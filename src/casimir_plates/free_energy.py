"""Helmholtz free energy per unit plate area, in every representation.

Conventions (natural units, hbar = c = k_B = 1):

* ``d`` is the plate separation, ``beta`` the inverse temperature and
  ``xi = d / (pi beta)`` the dimensionless scaled temperature.
* All free energies are F/L^2, energy per unit area, units length^-3.

One conductor kernel carries the production paths: the conducting-pair
profile g(x) = a^3 F_c, or p(x) = a^4 P_c = 3 g - x g', from the coth series
(tail ratio e^(-1/x)) or its Poisson resummation (e^(-4 pi^2 x)); the router
switches at x = 1/(2 pi), where the two ratios meet.  The Boyer pair is the
split F = F1(2d) - F2(d): d^3 F = g(2 xi)/8 - g(xi), d^4 P = p(2 xi)/8 - p(xi).
The other representations are independent evaluations, cross-checked
against the kernel by the tests and by ``casimir verify``.
"""
from __future__ import annotations

import enum
import math
import sys as _sys
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
    riemann_zeta,
    sum_until,
)

__all__ = [
    "PlateKind",
    "PlateSystem",
    "ThermalPoint",
    "RepresentationKind",
    "zero_temperature_energy",
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

# the self-dual point of the conductors' temperature inversion, where the
# coth tail ratio e^(-1/xi) equals the Poisson one e^(-4 pi^2 xi)
_COTH_POISSON_SPLIT = 1.0 / (2.0 * math.pi)
_POISSON_XI_FLOOR = 0.05  # both Poisson forms converge too slowly below this xi
_EPS = _sys.float_info.epsilon


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
    return _pair(sys, 0.0, "zero-T", None).value


# closed-form monomials (c, k), i.e. c x^k, of the conducting-pair profile
# g(x) on each route; the pressure profile p = 3 g - x g' has (3 - k) c x^k
_MONOMIALS = {
    "coth": ((-math.pi**2 / 720.0, 0), (-math.pi**2 * ZETA3 / 2.0, 3)),
    "poisson": ((-math.pi**6 / 45.0, 4), (-ZETA3 / 8.0, 1)),
}
# prefactor of the series part of (g, p) on each route
_SERIES_SCALE = {"coth": (-math.pi**2 / 8.0, math.pi**2 / 4.0), "poisson": (-0.125, -0.25)}
# each plate pair as halves (a, w): w times the conducting profile at x = a xi
_HALVES = {
    PlateKind.BOYER_MIXED: ((2.0, 0.125), (1.0, -1.0)),
    PlateKind.CONDUCTOR_CONDUCTOR: ((1.0, 1.0),),
}
# the monomials of each pair combined over its halves, c sum_h w_h a_h^k:
# exactly 0 for the Boyer pair's zeta(3) x^3 term
_PAIR_MONOMIALS = {
    (kind, route, p): [(c * (3 - k if p else 1) * math.fsum(w * a**k for a, w in halves), k)
                       for c, k in _MONOMIALS[route]]
    for kind, halves in _HALVES.items() for route in _MONOMIALS for p in (False, True)
}
_DEFAULT_CTL = SeriesControl()


def _conductor_series(x: float, route: str, pressure: bool, ctl: SeriesControl):
    """Series part of the conducting-pair profile g(x), or of p(x).

    Every term is positive.  coth route, s = n/(2x):
      g: sum_n 4x^3/n^3 (coth s - 1) + 2x^2/n^2 csch^2 s,
      p: sum_n x coth s csch^2 s / n;
    Poisson route, u = 2 pi^2 m x:
      g: sum_m [x (coth u - 1) + 2 pi^2 m x^2 csch^2 u] / m^3,
      p: the same plus (2 pi^2 m)^2 x^3 coth u csch^2 u in the bracket.
    With e = e^(-v) and D = 1 - e^(-2v): csch v = 2e/D, coth v - 1 = 2e^2/D.
    Returns (sum, tail bound, terms) of :func:`sum_until`.
    """
    if route == "coth":
        rate = 1.0 / x

        def term(n):
            s = 0.5 * n / x
            e = math.exp(-s)
            den = -math.expm1(-2.0 * s)
            ish = 2.0 * e / den
            if pressure:
                return x * (1.0 + e * ish) * ish * ish / n
            return 2.0 * x * x / (n * n) * (2.0 * x / n * e * ish + ish * ish)

    else:
        rate = 4.0 * math.pi**2 * x
        c = 2.0 * math.pi**2 * x

        def term(m):
            u = c * m
            e = math.exp(-u)
            ish = 2.0 * e / -math.expm1(-2.0 * u)
            a = u * ish
            t = e * ish + a * ish
            if pressure:
                t += a * a * (1.0 + e * ish)
            return x * t / m**3

    # twice the geometric tail r/(1 - r) after the last term, r = e^(-rate)
    q = 2.0 * math.exp(-rate) / -math.expm1(-rate)
    return sum_until(term, lambda n, t: q * t, ctl, f"conductor {route} series")


def _pair_profile(
    kind: PlateKind, xi: float, route: str, pressure: bool, ctl: SeriesControl | None = None
):
    """d^3 F (pressure: d^4 P) of a plate pair, composed from the kernel.

    Returns (value, series part, error bar, terms).  The closed-form
    monomials are combined over the halves first, so the Boyer pair's
    zeta(3) x^3 terms cancel exactly.  Route 'zero-T' keeps the monomials
    alone, with error bar 0 by convention: every series term underflows
    there.  Otherwise the bar is each half's tail bound and rounding floor
    plus eps |value| per rounding of the combination and its scaling; a
    value outside the float range is a DomainError.
    """
    series, err, terms = [], 0.0, 0
    try:
        parts = [
            c * xi**k
            for c, k in _PAIR_MONOMIALS[kind, "poisson" if route == "poisson" else "coth", pressure]
        ]
        if route != "zero-T":
            scale = _SERIES_SCALE[route][pressure]
            for a, w in _HALVES[kind]:
                s, bound, n = _conductor_series(a * xi, route, pressure, ctl or _DEFAULT_CTL)
                series.append(w * scale * s)
                err += abs(w * scale) * (bound + 8.0 * _EPS * s)
                terms += n
            err += 4.0 * _EPS * sum(map(abs, parts))
        # at most two parts each, so plain sums round once, like fsum; a
        # non-finite half gives inf or nan here, caught below
        s_part = sum(series)
        value = sum(parts) + s_part
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the plate-pair profile at xi={xi!r} overflows the floating-point range")
    return value, s_part, err + (route != "zero-T") * 2.0 * _EPS * abs(value), terms


def _per_area(value: float, err: float, d: float, power: int):
    """(value, err) times d^-power, one division by d at a time so that no
    intermediate over- or underflows before the result does."""
    for _ in range(power):
        value /= d
        err /= d
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the result at d={d!r} is outside the floating-point range")
    return value, err


def _pair(sys: PlateSystem, xi: float, route: str, ctl: SeriesControl | None) -> EvalResult:
    """F/L^2 of the plate pair on one route of the conductor kernel."""
    value, _, err, terms = _pair_profile(sys.kind, xi, route, False, ctl)
    return EvalResult(*_per_area(value, err, sys.d, 3), terms, route)


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


def free_energy_poisson(
    sys: PlateSystem,
    t: ThermalPoint,
    ctl: SeriesControl | None = None,
    xi_floor: float = _POISSON_XI_FLOOR,
) -> EvalResult:
    """F/L^2 from the Poisson-resummed (high-temperature friendly) form.

    Below ``xi_floor`` convergence degrades; callers are redirected to the
    coth/double forms.
    """
    if t.xi < xi_floor:
        raise SlowConvergenceError(
            f"poisson representation converges slowly for xi < {xi_floor}; "
            "use the coth or double representation"
        )
    return _pair(sys, t.xi, "poisson", ctl)


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

    Same quantity as :func:`f_conducting_lattice`, through the kernel's coth
    series, which converges exponentially at any xi.
    """
    if not xi > 0.0:
        raise DomainError("f_conducting_single requires xi > 0")
    value, _, err, terms = _pair_profile(PlateKind.CONDUCTOR_CONDUCTOR, xi, "coth", False, ctl)
    return EvalResult(value, err, terms, "coth")


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
    if rep is RepresentationKind.COTH_SINGLE:
        return _pair(sys, t.xi, "coth", ctl)
    if rep is RepresentationKind.POISSON:
        return free_energy_poisson(sys, t, ctl)
    if sys.kind is PlateKind.CONDUCTOR_CONDUCTOR:
        if rep is not RepresentationKind.LATTICE:
            raise UnsupportedRepresentationError(
                f"representation '{rep.value}' is not available for "
                "conductor-conductor plates"
            )
        r = f_conducting_lattice(t.xi, ctl)
        return EvalResult(*_per_area(r.value, r.abs_err_est, sys.d, 3), r.terms_used, r.rep)
    if rep in (RepresentationKind.DOUBLE_SUM, RepresentationKind.BESSEL):
        # d^3 F = d^3 E_0 - pi^2 xi^3 f(xi), i.e. F = E_0 - f/(pi beta^3)
        f, q = f_scaled_double(t.xi, ctl), math.pi**2 * t.xi**3
        g0 = _pair_profile(sys.kind, 0.0, "zero-T", False)[0]
        value = g0 - _BESSEL_THERMAL_SIGN * q * f.value
        return EvalResult(*_per_area(value, q * f.abs_err_est, sys.d, 3), f.terms_used, f.rep)
    if rep is RepresentationKind.LATTICE:
        return free_energy_lattice(sys, t, ctl)
    if rep is RepresentationKind.MODE_INTEGRAL:
        return free_energy_mode_integral(sys, t)
    raise UnsupportedRepresentationError(f"unknown representation {rep!r}")


def free_energy_auto(
    sys: PlateSystem, xi: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Routed evaluation by scaled temperature; xi = 0 is the exact
    zero-temperature limit (removable).  On the 'zero-T' route only the
    closed-form terms survive: the conducting pair keeps its
    -pi^2 zeta(3) xi^3/(2 d^3)."""
    return _pair(sys, xi, _route(xi), ctl)
