"""Temperature-inversion symmetry (TIS) machinery.

The Boyer free energy splits as F = F1 - F2, where F1 and F2 are
conducting-pair free energies at separations 2d and d.  Each of those
obeys an exact inversion relation connecting low and high temperature;
the Boyer combination itself does not, because its boundary conditions
are not symmetric under the inversion.  ``free_energy`` composes the
production values from this split, and this module exposes its halves
from the same kernel (``casimir verify`` checks the kernel against the
lattice sums), the residuals of the inversion relations, the two
summation identities used to derive them, and the two classic applications
(Stefan-Boltzmann term to zero-temperature energy, and the high-T to low-T
mapping).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .epstein import EpsteinParams, epstein_direct
from .errors import DomainError
from .forms import free_energy_low_T
from .free_energy import (
    _HALVES,
    _MAX,
    PlateKind,
    PlateSystem,
    ThermalPoint,
    _require_separation,
    evaluate_free_energy,
    f_nontrivial,
    free_energy_auto,
    zero_temperature_energy,
)
from .specfun import (
    _DEFAULT_CTL,
    EvalResult,
    SeriesControl,
    coth_stable,
    inv_sinh_stable,
    sum_until,
)

__all__ = [
    "SplitFreeEnergies",
    "f1_eval",
    "f2_eval",
    "split_eval",
    "tis_residual_f1",
    "tis_residual_f2",
    "tis_residual_nontrivial",
    "tis_residual_boyer_naive",
    "identity_alternating",
    "identity_plain",
    "sb_to_casimir",
    "low_T_from_high_T",
]

_FLOOR = 1e-300

# self-dual points of the three inversion maps, pinned in the tests as
# exact-identity anchors
XI_FIXED_F1 = 1.0 / (4.0 * math.pi)
XI_FIXED_F2 = 1.0 / (2.0 * math.pi)
XI_FIXED_NONTRIVIAL = 1.0 / (2.0 * math.pi)


# separations of the halves F1 and F2, in units of d
(_A1, _), (_A2, _) = _HALVES[PlateKind.BOYER_MIXED]


class SplitFreeEnergies(namedtuple("SplitFreeEnergies", "f1 f2 xi")):
    """Conducting-pair free energies F1 (separation 2d) and F2
    (separation d) sharing the scaled temperature xi of the Boyer pair."""

    __slots__ = ()


def _conducting_half(a: float, xi: float, d: float, ctl: SeriesControl | None) -> EvalResult:
    """F/L^2 of the Boyer pair's conducting half at separation a d, which
    sees its own scaled temperature a xi: the conducting pair there, on the
    kernel's coth series."""
    _require_separation(d)
    if not 0.0 < xi <= _MAX:  # also an integer past the float range
        raise DomainError(f"xi must be finite and positive, got {xi!r}")
    return evaluate_free_energy(PlateSystem(a * d, "conductor"), ThermalPoint(a * xi), ctl, "coth")


def f1_eval(xi: float, d: float, ctl: SeriesControl | None = None) -> EvalResult:
    """F1/L^2: conducting pair at separation 2d, scaled temperature xi."""
    return _conducting_half(_A1, xi, d, ctl)


def f2_eval(xi: float, d: float, ctl: SeriesControl | None = None) -> EvalResult:
    """F2/L^2: conducting pair at separation d, scaled temperature xi."""
    return _conducting_half(_A2, xi, d, ctl)


def split_eval(xi: float, d: float, ctl: SeriesControl | None = None) -> SplitFreeEnergies:
    """Both halves of the F = F1 - F2 split at (xi, d)."""
    return SplitFreeEnergies(
        f1=f1_eval(xi, d, ctl).value, f2=f2_eval(xi, d, ctl).value, xi=xi
    )


def _inversion_residual(f, xi: float, c: float) -> float:
    """Relative residual of the inversion (c xi)^4 f(1/(c^2 xi)) = f(xi),
    whose self-dual point is xi = 1/c (Brown and Maclay, Phys. Rev. 184,
    1272 (1969), in this module's variable).  A xi that is not finite and
    positive, or whose image or scale (c xi)^4 leaves the float range, is a
    DomainError."""
    if not 0.0 < xi <= _MAX:
        raise DomainError(f"the inversion residual requires finite xi > 0, got {xi!r}")
    try:
        scale = (c * xi) ** 4
    except OverflowError:
        scale = math.inf
    image = 1.0 / (c * c * xi)
    if not (0.0 < scale < math.inf and image < math.inf):
        raise DomainError(f"the inversion of xi={xi!r} leaves the floating-point range")
    lhs = scale * f(image)
    rhs = f(xi)
    return abs(lhs - rhs) / max(abs(rhs), _FLOOR)


def tis_residual_f1(xi: float, d: float, ctl: SeriesControl | None = None) -> float:
    """Residual of (4 pi xi)^4 F1(1/(16 pi^2 xi)) = F1(xi) at fixed d."""
    return _inversion_residual(lambda x: f1_eval(x, d, ctl).value, xi, 4.0 * math.pi)


def tis_residual_f2(xi: float, d: float, ctl: SeriesControl | None = None) -> float:
    """Residual of (2 pi xi)^4 F2(1/(4 pi^2 xi)) = F2(xi) at fixed d."""
    return _inversion_residual(lambda x: f2_eval(x, d, ctl).value, xi, 2.0 * math.pi)


def tis_residual_nontrivial(xi: float, ctl: SeriesControl | None = None) -> float:
    """Residual of (2 pi xi)^4 f_nt(1/(4 pi^2 xi)) = f_nt(xi) for the
    non-trivial part of the conducting profile.

    In the variable used by Brown and Maclay (pi times the one used
    here) the inversion reads xi -> 1/(4 xi); translating to this
    module's convention gives the image 1/(4 pi^2 xi) and the self-dual
    point 1/(2 pi).  A version of the map lacking one factor of pi
    circulates in print; it fails numerically at order one.
    """
    return _inversion_residual(lambda x: f_nontrivial(x, ctl).value, xi, 2.0 * math.pi)


def tis_residual_boyer_naive(xi: float, d: float, ctl: SeriesControl | None = None) -> float:
    """Residual of the naive relation (2 pi xi)^4 F(1/(4 pi^2 xi)) = F(xi)
    applied to the Boyer free energy itself.

    This relation FAILS (residual of order one): the mixed pair's
    boundary conditions are not symmetric under temperature inversion.
    Only the conducting halves F1 and F2 transform covariantly.
    """
    sys = PlateSystem(d)
    return _inversion_residual(lambda x: free_energy_auto(sys, x, ctl).value, xi, 2.0 * math.pi)


def identity_alternating(b: float, ctl: SeriesControl | None = None):
    """sum over all integers m of (-1)^m/(m^2+b^2)^2, directly and closed.

    Closed form: pi^2 [1/(pi b) + coth(pi b)] / (2 b^2 sinh(pi b)).
    Returns (lhs, rhs).  Both identities take b in [1e-76, 1e76], where b^4
    and 1/b^4 are normal doubles.
    """
    if not 1e-76 <= b <= 1e76:
        raise DomainError(f"identity_alternating requires b in [1e-76, 1e76], got {b!r}")
    ctl = ctl or _DEFAULT_CTL
    b2 = b * b

    def term(m):
        return 2.0 * (-1.0) ** m / (m * m + b2) ** 2

    def tail(m, tm):
        # alternating with monotonically decreasing magnitude
        return 2.0 / ((m + 1.0) ** 2 + b2) ** 2

    s, _, _ = sum_until(term, tail, ctl, "identity_alternating")
    lhs = math.fsum((1.0 / b2**2, s))
    u = math.pi * b
    rhs = (
        math.pi**2
        * (1.0 / u + coth_stable(u))
        * inv_sinh_stable(u)
        / (2.0 * b2)
    )
    return lhs, rhs


def identity_plain(b: float, ctl: SeriesControl | None = None):
    """sum over all integers l of 1/(b^2+l^2)^2, directly and closed.

    Closed form: pi coth(pi b)/(2 b^3) + pi^2 / (2 b^2 sinh^2(pi b)).
    The direct side is 1/b^4 plus twice the Epstein sum E_1(2; 1, b^2),
    whose engine closes the tail of sum_m (m^2 + b^2)^-2 with its integral
    and the Euler-Maclaurin corrections.  Returns (lhs, rhs).
    """
    if not 1e-76 <= b <= 1e76:
        raise DomainError(f"identity_plain requires b in [1e-76, 1e76], got {b!r}")
    b2 = b * b
    s = epstein_direct(EpsteinParams(2.0, (1.0,), b2), ctl).value
    lhs = math.fsum((1.0 / b2**2, 2.0 * s))
    u = math.pi * b
    ish = inv_sinh_stable(u)
    rhs = math.pi * coth_stable(u) / (2.0 * b2 * b) + math.pi**2 * ish * ish / (2.0 * b2)
    return lhs, rhs


def sb_to_casimir() -> dict:
    """Zero-temperature Casimir energy from the Stefan-Boltzmann limits.

    Inverting the high-temperature limits F1 -> -2 pi^2 d/45 beta^4 and
    F2 -> -pi^2 d/45 beta^4 through the TIS relations gives the
    zero-temperature values in closed form (d = 1):
    F1(0) = -pi^2/5760, F2(0) = -pi^2/720, whose difference is the
    (7/8) pi^2/720 repulsive Boyer energy.
    """
    f1_zero = -math.pi**2 / (4**3 * 90.0)
    f2_zero = -math.pi**2 / (2**3 * 90.0)
    return {
        "f1_zero_T": f1_zero,
        "f2_zero_T": f2_zero,
        "boyer_zero_T_from_TIS": f1_zero - f2_zero,
        "direct": zero_temperature_energy(PlateSystem(1.0)),
    }


def low_T_from_high_T(xi: float) -> dict:
    """Low-temperature Boyer free energy obtained by mapping the
    high-temperature closed forms through the TIS relations (d = 1).

    mapped = (7/8) pi^2/720 - pi^2 (xi^3 + xi^2/2) e^{-1/(2 xi)},
    algebraically identical to the direct low-temperature form.  The direct
    form comes first: it rejects a xi that is not finite and positive, and
    is a DomainError wherever its pi^2 x^2 (x + 1), x = 2 xi, overflows, so
    the mapped form's xi^3 stays in range.
    """
    direct = free_energy_low_T(PlateSystem(1.0), ThermalPoint(xi))
    mapped = 0.875 * math.pi**2 / 720.0 - math.pi**2 * (
        xi**3 + 0.5 * xi * xi
    ) * math.exp(-0.5 / xi)
    return {"mapped": mapped, "direct_low_T": direct}
