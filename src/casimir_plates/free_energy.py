"""Helmholtz free energy per unit plate area, in every representation.

Conventions (natural units, hbar = c = k_B = 1):

* ``d`` is the plate separation, ``beta`` the inverse temperature and
  ``xi = d / (pi beta)`` the dimensionless scaled temperature.
* All free energies are F/L^2, energy per unit area, units length^-3.
* For the mixed (conducting + permeable) pair the free energy splits as
  F/L^2 = (7/8) pi^2/(720 d^3) - f(xi)/(pi beta^3) with f > 0 the scaled
  thermal profile; the different representations below are numerically
  equivalent evaluations of the same function and are cross-checked
  against each other by the test suite.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from scipy import integrate

from . import epstein
from .errors import (
    DomainError,
    SlowConvergenceError,
    UnsupportedRepresentationError,
)
from .specfun import (
    ZETA3,
    EvalResult,
    SeriesControl,
    coth_minus_one,
    coth_stable,
    inv_sinh_stable,
    riemann_zeta,
    sum_until,
)

__all__ = [
    "PlateKind",
    "PlateSystem",
    "ThermalPoint",
    "RepresentationKind",
    "zero_temperature_energy",
    "f_scaled_single",
    "f_scaled_double",
    "free_energy_poisson",
    "free_energy_lattice",
    "free_energy_mode_integral",
    "free_energy_low_T",
    "free_energy_high_T",
    "f_nontrivial",
    "f_conducting_lattice",
    "f_conducting_single",
    "evaluate_free_energy",
    "free_energy_auto",
]


class PlateKind(enum.Enum):
    BOYER_MIXED = "boyer"
    CONDUCTOR_CONDUCTOR = "conductor"


@dataclass(frozen=True)
class PlateSystem:
    """Plate separation and boundary-condition kind."""

    d: float
    kind: PlateKind = PlateKind.BOYER_MIXED

    def __post_init__(self):
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise DomainError(f"plate separation d must be finite and positive, got {self.d!r}")
        if not isinstance(self.kind, PlateKind):
            object.__setattr__(self, "kind", PlateKind(self.kind))


@dataclass(frozen=True)
class ThermalPoint:
    """The scaled temperature xi = d/(pi beta), the one thermal variable.

    The inverse temperature is not stored: at plate separation d it is
    ``beta(d) = d/(pi xi)``.
    """

    xi: float

    def __post_init__(self):
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise DomainError(f"xi must be finite and positive, got {self.xi!r}")

    def beta(self, d: float) -> float:
        """Inverse temperature at plate separation d."""
        return d / (math.pi * self.xi)

    @classmethod
    def from_beta(cls, beta: float, d: float) -> "ThermalPoint":
        if not (beta > 0.0 and math.isfinite(beta)):
            raise DomainError(f"beta must be finite and positive, got {beta!r}")
        return cls(d / (math.pi * beta))

    @classmethod
    def from_xi(cls, xi: float, d: float) -> "ThermalPoint":
        """The point at scaled temperature xi; it does not depend on d."""
        return cls(xi)


class RepresentationKind(str, enum.Enum):
    BESSEL = "bessel"
    COTH_SINGLE = "coth"
    DOUBLE_SUM = "double"
    POISSON = "poisson"
    LATTICE = "lattice"
    MODE_INTEGRAL = "mode-integral"
    ASYMPTOTIC_LOW = "low"
    ASYMPTOTIC_HIGH = "high"


# test hook used by `casimir verify --tamper bessel-sign`: the sign of the
# double-sum engine's thermal part; never set in normal operation
_BESSEL_THERMAL_SIGN = 1.0

_COTH_POISSON_SPLIT = 0.4  # router threshold in xi, fixed by the equivalence grid
_POISSON_XI_FLOOR = 0.05  # both Poisson forms converge too slowly below this xi


def _route(xi: float) -> str:
    """The one router of free energy and pressure: 'zero-T', 'coth' or 'poisson'.

    xi = 0 is the exact zero-temperature limit (removable).  So is every xi
    whose exp(-1/(2 xi)) is exact floating-point zero: each thermal
    correction carries that factor, and beta = d/(pi xi) may not even be
    representable.
    """
    if not (xi >= 0.0 and math.isfinite(xi)):
        raise DomainError(f"xi must be finite and nonnegative, got {xi!r}")
    if xi == 0.0 or math.exp(-0.5 / xi) == 0.0:
        return "zero-T"
    return "coth" if xi < _COTH_POISSON_SPLIT else "poisson"


def _require_boyer(sys: PlateSystem, rep: str):
    if sys.kind is not PlateKind.BOYER_MIXED:
        raise UnsupportedRepresentationError(
            f"representation '{rep}' is only defined for the mixed "
            "conducting/permeable pair"
        )


def zero_temperature_energy(sys: PlateSystem) -> float:
    """Zero-temperature Casimir energy per unit area (closed form)."""
    e_cond = -math.pi**2 / (720.0 * sys.d**3)
    if sys.kind is PlateKind.BOYER_MIXED:
        return -0.875 * e_cond
    return e_cond


def f_scaled_single(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Scaled free energy f(xi) as a single sum of coth/sinh kernels.

    Every term is strictly positive; the tail is bounded geometrically
    with ratio exp(-1/(2 xi)).
    """
    if not xi > 0.0:
        raise DomainError("f_scaled_single requires xi > 0")
    ctl = ctl or SeriesControl()
    rr = math.exp(-0.5 / xi)

    def term(n):
        s = 0.5 * n / xi
        return (2.0 * xi / n + coth_stable(s)) * inv_sinh_stable(s) / (n * n)

    def tail(n, t):
        return 2.0 * t * rr / (1.0 - rr)

    total, bound, n = sum_until(term, tail, ctl, "f_scaled_single")
    q = 0.25 / xi
    return EvalResult(q * total, q * bound + 1e-16 * q * total, n, "coth")


def f_scaled_double(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Scaled free energy f(xi) from the defining (n, m) double sum.

    This is also the Macdonald-function (``bessel``) form term for term,
    since K_{3/2}(z) = sqrt(pi/2z) e^(-z) (1 + 1/z).
    """
    if not xi > 0.0:
        raise DomainError("f_scaled_double requires xi > 0")
    ctl = ctl or SeriesControl()
    parts = []
    nterms = 0
    total = 0.0
    tail_bound = 0.0
    n = 0
    while True:
        n += 1
        rn = math.exp(-n / (2.0 * xi))  # per-m decay ratio within row n
        row_first = None
        m = 0
        while True:
            m += 1
            nterms += 1
            if nterms > ctl.max_terms:
                raise SlowConvergenceError(
                    "f_scaled_double exhausted max_terms; use the Poisson "
                    "representation at large xi"
                )
            e1 = math.exp(-n * m / (2.0 * xi))
            e2 = e1 * e1
            pos = (1.0 / m**3 + n / (2.0 * xi * m * m)) * e1
            t = pos - (1.0 / m**3 + n / (xi * m * m)) * e2
            parts.append(t)
            total += t
            if row_first is None:
                row_first = pos
            mbound = pos * rn / (1.0 - rn)
            if m >= 2 and mbound <= 0.05 * ctl.rel_tol * abs(total):
                break
        # row-to-row ratio at m = 1: exp(-1/(2 xi)) times the prefactor growth
        r_row = math.exp(-0.5 / xi) * (2.0 * xi + n + 1.0) / (2.0 * xi + n)
        if r_row < 1.0:
            row_full = row_first * (1.0 + rn / (1.0 - rn))
            row_tail = row_full * r_row / (1.0 - r_row)
            if n >= ctl.min_terms and row_tail <= 0.5 * ctl.rel_tol * abs(total):
                tail_bound = row_tail + mbound
                break
    value = math.fsum(parts)
    return EvalResult(value, tail_bound + 1e-16 * abs(value), nterms, "double")


def _coth_sum_derivative(xi: float, c: float, ctl: SeriesControl):
    """(d/dxi)[(1/xi) sum_m coth(c m xi)/m^3], exponentially convergent.

    The coth tail is split off as 1 + (coth - 1); the constant part sums
    to zeta(3) in closed form, leaving only exponentially decaying terms.
    """
    rr = math.exp(-2.0 * c * xi)

    def term(m):
        u = c * m * xi
        ish = inv_sinh_stable(u)
        return (-coth_minus_one(u) / (xi * xi) - c * m * ish * ish / xi) / m**3

    def tail(m, tm):
        return 2.0 * abs(tm) * rr / (1.0 - rr)

    s, bound, n = sum_until(term, tail, ctl, "poisson coth sum")
    return -ZETA3 / (xi * xi) + s, bound, n


def free_energy_poisson(
    sys: PlateSystem,
    t: ThermalPoint,
    ctl: SeriesControl | None = None,
    xi_floor: float = _POISSON_XI_FLOOR,
) -> EvalResult:
    """F/L^2 from the Poisson-resummed (high-temperature friendly) form.

    The xi derivative is taken analytically term by term.  Below
    ``xi_floor`` convergence degrades; callers are redirected to the
    coth/double forms.
    """
    _require_boyer(sys, "poisson")
    ctl = ctl or SeriesControl()
    xi = t.xi
    if xi < xi_floor:
        raise SlowConvergenceError(
            f"poisson representation converges slowly for xi < {xi_floor}; "
            "use the coth or double representation"
        )
    d = sys.d
    beta = t.beta(d)
    d1, b1, n1 = _coth_sum_derivative(xi, 4.0 * math.pi**2, ctl)
    d2, b2, n2 = _coth_sum_derivative(xi, 2.0 * math.pi**2, ctl)
    c1 = 1.0 / (32.0 * math.pi**3 * beta**3)
    c2 = 1.0 / (8.0 * math.pi**3 * beta**3)
    value = -math.pi**2 * d / (45.0 * beta**4) + c1 * d1 - c2 * d2
    err = c1 * b1 + c2 * b2 + 1e-15 * abs(value)
    return EvalResult(value, err, n1 + n2, "poisson")


def f_nontrivial(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Non-trivial (neither zero-T nor Stefan-Boltzmann) part of the
    conducting-plate scaled free energy, as a positive-quadrant lattice sum."""
    if not xi > 0.0:
        raise DomainError("f_nontrivial requires xi > 0")
    ctl = ctl or SeriesControl()
    w = 2.0 * math.pi * xi
    r = epstein.epstein_direct(epstein.EpsteinParams(2.0, (w * w, 1.0)), ctl)
    q = w**4 / (4.0 * math.pi**2)
    return EvalResult(-q * r.value, q * r.abs_err_est, r.terms_used, "lattice")


def f_conducting_lattice(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Dimensionless conducting-plate free energy d^3 F/L^2 as a lattice sum.

    The axis lines of the lattice carry the Stefan-Boltzmann term
    -pi^6 xi^4/45 (m-axis) and the zero-temperature term -pi^2/720
    (n-axis); the open quadrant is the non-trivial part.
    """
    nt = f_nontrivial(xi, ctl)
    value = -math.pi**6 * xi**4 / 45.0 - math.pi**2 / 720.0 + nt.value
    return EvalResult(value, nt.abs_err_est, nt.terms_used, "lattice")


def f_conducting_single(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Dimensionless conducting-plate free energy d^3 F/L^2 as a single sum.

    Same quantity as :func:`f_conducting_lattice`, but through the
    coth/sinh^2 kernel sum, which converges exponentially at any xi.
    """
    if not xi > 0.0:
        raise DomainError("f_conducting_single requires xi > 0")
    ctl = ctl or SeriesControl()
    rr = math.exp(-1.0 / xi)

    def term(n):
        s = 0.5 * n / xi
        ish = inv_sinh_stable(s)
        return 4.0 * xi**3 / n**3 * coth_minus_one(s) + 2.0 * xi * xi / (n * n) * ish * ish

    def tail(n, tn):
        return 2.0 * tn * rr / (1.0 - rr)

    s, bound, n = sum_until(term, tail, ctl, "f_conducting_single")
    q = math.pi**2 / 8.0
    value = -math.pi**2 / 720.0 - q * (4.0 * xi**3 * ZETA3 + s)
    return EvalResult(value, q * bound + 1e-16 * abs(value), n, "coth")


def free_energy_lattice(
    sys: PlateSystem, t: ThermalPoint, ctl: SeriesControl | None = None
) -> EvalResult:
    """F/L^2 from the alternating integer-lattice representation.

    The alternating-in-m lattice is reorganized exactly into its axis
    lines (closed forms) plus even/odd positive quadrants, each evaluated
    as an Epstein sum; this reaches well beyond the ~1e-6 accuracy a raw
    shell truncation of the conditionally convergent sum can deliver.
    """
    _require_boyer(sys, "lattice")
    ctl = ctl or SeriesControl()
    xi, d = t.xi, sys.d
    w = 2.0 * math.pi * xi
    z4 = riemann_zeta(4.0)
    e_even = epstein.epstein_direct(
        epstein.EpsteinParams(2.0, (1.0, (2.0 * w) ** 2)), ctl
    )
    e_all = epstein.epstein_direct(epstein.EpsteinParams(2.0, (1.0, w * w)), ctl)
    raw = (
        2.0 * w**4 * z4
        - 1.75 * z4
        + 4.0 * w**4 * (2.0 * e_even.value - e_all.value)
    )
    q = 1.0 / (16.0 * math.pi**2 * d**3)
    value = -q * raw
    err = q * 4.0 * w**4 * (2.0 * e_even.abs_err_est + e_all.abs_err_est)
    return EvalResult(
        value, err + 1e-15 * abs(value), e_even.terms_used + e_all.terms_used, "lattice"
    )


def _blackbody_tail_integral(y: float, tol: float):
    """J(y) = int_y^inf u ln(1 - e^-u) du by adaptive quadrature."""
    with warnings.catch_warnings():
        # near the roundoff floor quad reports its own limitation; the
        # returned error estimate is still propagated to the caller
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            lambda u: u * math.log(-math.expm1(-u)) if u > 0 else 0.0,
            y,
            math.inf,
            epsabs=max(tol, 1e-14),
            epsrel=1e-12,
            limit=200,
        )
    return val, err


def free_energy_mode_integral(
    sys: PlateSystem, t: ThermalPoint, quadrature_tol: float = 1e-12
) -> EvalResult:
    """Mode-sum quadrature oracle for the free energy.

    Independent of every series representation: the thermal part is the
    black-body integrand integrated above each discrete transverse
    threshold, for conducting pairs at separations 2d and d.
    """
    _require_boyer(sys, "mode-integral")
    xi = t.xi
    parts = []
    qerr = 0.0
    n = 0
    while True:
        n += 1
        j1, e1 = _blackbody_tail_integral(0.5 * n / xi, 0.01 * quadrature_tol)
        j2, e2 = _blackbody_tail_integral(n / xi, 0.01 * quadrature_tol)
        parts.append(j2 - j1)
        qerr += e1 + e2
        if n >= 4 and abs(j1) < 0.01 * quadrature_tol * max(
            1e-300, abs(math.fsum(parts))
        ):
            break
        if n > 10**6:
            raise SlowConvergenceError("mode integral: threshold sum too long")
    f_val = math.fsum(parts)
    beta = t.beta(sys.d)
    thermal = f_val / (math.pi * beta**3)
    value = zero_temperature_energy(sys) - thermal
    err = (qerr + abs(j1)) / (math.pi * beta**3) + 1e-15 * abs(value)
    return EvalResult(value, err, 2 * n, "mode-integral")


def free_energy_low_T(sys: PlateSystem, t: ThermalPoint) -> float:
    """Closed-form low-temperature (xi <~ 0.1) asymptotics, both systems."""
    d = sys.d
    beta = t.beta(d)
    if sys.kind is PlateKind.BOYER_MIXED:
        return zero_temperature_energy(sys) - (
            1.0 / (math.pi * beta**3) + 1.0 / (2.0 * d * beta * beta)
        ) * math.exp(-math.pi * beta / (2.0 * d))
    return (
        -math.pi**2 / (720.0 * d**3)
        - ZETA3 / (2.0 * math.pi * beta**3)
        - (1.0 / (math.pi * beta**3) + 1.0 / (d * beta * beta))
        * math.exp(-math.pi * beta / d)
    )


def free_energy_high_T(sys: PlateSystem, t: ThermalPoint) -> float:
    """Closed-form high-temperature (xi >~ 1) asymptotics, both systems.

    For the mixed pair the exponential correction enters with a plus
    sign: it is the residual of the conductor-pair corrections at
    separations 2d and d, and the numerically dominant e^(-4 pi d/beta)
    piece flips sign relative to the plain conducting case.  Verified
    against the Poisson representation over xi in [1, 3].
    """
    d = sys.d
    beta = t.beta(d)
    sb = -math.pi**2 * d / (45.0 * beta**4)
    expo = math.exp(-4.0 * math.pi * d / beta)
    if sys.kind is PlateKind.BOYER_MIXED:
        return (
            sb
            + 3.0 / 32.0 * ZETA3 / (math.pi * d * d * beta)
            + (1.0 / (4.0 * math.pi * d * d * beta) + 1.0 / (d * beta * beta)) * expo
        )
    return (
        sb
        - ZETA3 / (8.0 * math.pi * d * d * beta)
        - (1.0 / (4.0 * math.pi * beta * d * d) + 1.0 / (d * beta * beta)) * expo
    )


def _from_profile(
    sys: PlateSystem, t: ThermalPoint, f: EvalResult, sign: float = 1.0
) -> EvalResult:
    """F/L^2 = E_0 - f(xi)/(pi beta^3) from the scaled thermal profile f."""
    q = 1.0 / (math.pi * t.beta(sys.d) ** 3)
    return EvalResult(
        zero_temperature_energy(sys) - sign * q * f.value,
        q * f.abs_err_est,
        f.terms_used,
        f.rep,
    )


def evaluate_free_energy(
    sys: PlateSystem,
    t: ThermalPoint,
    ctl: SeriesControl | None = None,
    rep: RepresentationKind | str = "auto",
) -> EvalResult:
    """Evaluate F/L^2 in the requested representation ('auto' routes).

    ``bessel`` is an alias of ``double``: the Macdonald-function sum is the
    double sum term for term, so both run the one double-sum engine.
    """
    if rep == "auto":
        return free_energy_auto(sys, t.xi, ctl)
    ctl = ctl or SeriesControl()
    rep = RepresentationKind(rep)
    if rep is RepresentationKind.ASYMPTOTIC_LOW:
        return EvalResult(free_energy_low_T(sys, t), 0.0, 0, "low")
    if rep is RepresentationKind.ASYMPTOTIC_HIGH:
        return EvalResult(free_energy_high_T(sys, t), 0.0, 0, "high")
    if sys.kind is PlateKind.CONDUCTOR_CONDUCTOR:
        if rep is RepresentationKind.COTH_SINGLE:
            r = f_conducting_single(t.xi, ctl)
        elif rep is RepresentationKind.LATTICE:
            r = f_conducting_lattice(t.xi, ctl)
        else:
            raise UnsupportedRepresentationError(
                f"representation '{rep.value}' is not available for "
                "conductor-conductor plates"
            )
        q = sys.d**-3
        return EvalResult(q * r.value, q * r.abs_err_est, r.terms_used, r.rep)
    if rep is RepresentationKind.COTH_SINGLE:
        return _from_profile(sys, t, f_scaled_single(t.xi, ctl))
    if rep in (RepresentationKind.DOUBLE_SUM, RepresentationKind.BESSEL):
        return _from_profile(sys, t, f_scaled_double(t.xi, ctl), _BESSEL_THERMAL_SIGN)
    if rep is RepresentationKind.POISSON:
        return free_energy_poisson(sys, t, ctl)
    if rep is RepresentationKind.LATTICE:
        return free_energy_lattice(sys, t, ctl)
    if rep is RepresentationKind.MODE_INTEGRAL:
        return free_energy_mode_integral(sys, t)
    raise UnsupportedRepresentationError(f"unknown representation {rep!r}")


def free_energy_auto(
    sys: PlateSystem, xi: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Routed evaluation by scaled temperature; xi = 0 is the exact
    zero-temperature limit (removable)."""
    route = _route(xi)
    if route == "zero-T":
        return EvalResult(zero_temperature_energy(sys), 0.0, 0, "zero-T")
    if sys.kind is PlateKind.CONDUCTOR_CONDUCTOR:
        route = "coth"  # the conductor single sum converges at every xi
    return evaluate_free_energy(sys, ThermalPoint(xi), ctl, route)
