"""Temperature-inversion symmetry (TIS) machinery.

The Boyer free energy splits as F = F1 - F2, conducting-pair free
energies at separations 2d and d.  Each obeys the conductors' inversion,
x' = 1/(4 pi^2 x), g -> g and p -> 2 g - p times (2 pi x)^4, and the paper's
modified TIS maps each half (a, w) to (1/a, w a^4): the Boyer pair's image
is another pair, so F itself does not transform.  This module exposes the
halves from the kernel (``casimir verify`` checks it against the lattice
sums), the residuals of the inversion, the two summation identities behind
it, and its two classic applications (Stefan-Boltzmann term to
zero-temperature energy, and the high-T to low-T mapping), computed
through ``free_energy._inverted``.
"""

from __future__ import annotations

import math

from .epstein import EpsteinParams, epstein_direct
from .errors import DomainError
from .free_energy import (
    _COTH_POISSON_SPLIT,
    _DEFAULT_CTL,
    _HALVES,
    _MAX,
    _PLANS,
    _TIS,
    EvalResult,
    PlateKind,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
    _inverted,
    _require_separation,
    evaluate_free_energy,
    f_nontrivial,
    free_energy_auto,
    zero_temperature_energy,
)
from .specfun import coth_stable, inv_sinh_stable, sum_until

__all__ = [
    "f1_eval",
    "f2_eval",
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

# the halves F1 and F2: separations in units of d, and weights
(_A1, _W1), (_A2, _) = _HALVES[PlateKind.BOYER_MIXED]
# self-dual points of the inversion, x = 1/(2 pi) at x = a xi, pinned in
# the tests as exact-identity anchors
XI_FIXED_F2 = XI_FIXED_NONTRIVIAL = _COTH_POISSON_SPLIT
XI_FIXED_F1 = XI_FIXED_F2 / _A1


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


def _inversion_residual(f, xi: float, c: float) -> float:
    """Relative residual of the inversion (c xi)^4 f(1/(c^2 xi)) = f(xi),
    self-dual at xi = 1/c.  A xi that is not finite and positive, or whose
    image or scale (c xi)^4 leaves the float range, is a DomainError."""
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
    here) the inversion reads xi -> 1/(4 xi).  A version of the map
    lacking one factor of pi circulates in print; it fails at order one.
    """
    return _inversion_residual(lambda x: f_nontrivial(x, ctl).value, xi, 2.0 * math.pi)


def tis_residual_boyer_naive(xi: float, d: float, ctl: SeriesControl | None = None) -> float:
    """Residual of the naive relation (2 pi xi)^4 F(1/(4 pi^2 xi)) = F(xi)
    applied to the Boyer free energy itself.  It FAILS (residual of order
    one): the inversion maps the Boyer pair's halves onto another pair;
    only the conducting halves F1 and F2 transform covariantly.
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

    The conducting pair's high-T monomial -pi^6 x^4/45, inverted, is its
    zero-T g(0) = -pi^2/720, and a conducting half at separation a d has
    F(0) = g(0)/(a d)^3: at d = 1, F1(0) = -pi^2/5760 and F2(0) = -pi^2/720,
    whose difference is the (7/8) pi^2/720 repulsive Boyer energy.
    """
    g0, _ = _inverted(*_PLANS[PlateKind.CONDUCTOR_CONDUCTOR]["poisson"][False][0][:2])
    f1_zero, f2_zero = g0 / _A1**3, g0 / _A2**3
    return {"f1_zero_T": f1_zero, "f2_zero_T": f2_zero, "boyer_zero_T_from_TIS": f1_zero - f2_zero,
            "direct": zero_temperature_energy(PlateSystem(1.0))}


def low_T_from_high_T(xi: float) -> dict:
    """Low-temperature Boyer free energy (d = 1) from the conducting halves'
    high-T closed forms at x' = 1/(4 pi^2 x), x = a xi: the conducting
    Poisson plan's monomials and ws (2 kA x' + 4 kB x'^2) e^(-rate x'), each
    term c x'^k inverted to c' x^(4 - k).  Only the slowest half keeps its
    exponential, as in the direct low-T form, the table's row ('free_energy',
    'low'), which comes first: it rejects a xi that is not finite and
    positive or whose x^3 overflows."""
    direct = evaluate_free_energy(PlateSystem(1.0), ThermalPoint(xi), None, "low").value
    (c0, k0, c1, k1, rate), (((_, ka, kb, _), ws, _),) = _PLANS[
        PlateKind.CONDUCTOR_CONDUCTOR]["poisson"][False]
    parts = [w * c * (a * xi) ** k for a, w in _HALVES[PlateKind.BOYER_MIXED]
             for c, k in (_inverted(c0, k0), _inverted(c1, k1))]
    x = _A1 * xi  # the slowest half
    parts += [_W1 * c * x**k * math.exp(-rate / _TIS / x)
              for c, k in (_inverted(2.0 * ws * ka, 1), _inverted(4.0 * ws * kb, 2))]
    return {"mapped": math.fsum(parts), "direct_low_T": direct}
