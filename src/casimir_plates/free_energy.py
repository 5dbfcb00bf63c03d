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
against the kernel by the tests and by ``casimir verify``.  Like the kernel,
each forms the dimensionless d^3 F and scales it by d^-3 once.  Only the
validation forms use scipy (the lattice sums through ``epstein``, the
mode-integral quadrature), and they import it on first use: the routed
paths, ``double`` and the closed forms need ``math`` alone.
"""
from __future__ import annotations

import enum
import math
import sys as _sys
import warnings
from dataclasses import dataclass

from . import epstein
from .errors import (
    ConvergenceError,
    DomainError,
    SlowConvergenceError,
    UnsupportedRepresentationError,
)
from .specfun import (
    ZETA3,
    EvalResult,
    SeriesControl,
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

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality; Enum's own hashes the name in Python code,
    # on every lookup of the hot path's tables keyed by the kind
    __hash__ = object.__hash__


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
# the halves with w times the route's series prefactor, as (a, w scale, |w scale|)
_SERIES_HALVES = {
    (kind, route, p): tuple((a, w * scale[p], abs(w * scale[p])) for a, w in halves)
    for kind, halves in _HALVES.items() for route, scale in _SERIES_SCALE.items()
    for p in (False, True)
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
    """Terms of the series part of the conducting-pair profile g(x), or of p(x).

    Every term is positive.  coth route, s = n/(2x):
      g: sum_n 4x^3/n^3 (coth s - 1) + 2x^2/n^2 csch^2 s,
      p: sum_n x coth s csch^2 s / n;
    Poisson route, u = 2 pi^2 m x:
      g: sum_m [x (coth u - 1) + 2 pi^2 m x^2 csch^2 u] / m^3,
      p: the same plus (2 pi^2 m)^2 x^3 coth u csch^2 u in the bracket.
    With e = e^(-v) and D = 1 - e^(-2v): csch v = 2e/D, coth v - 1 = 2e^2/D.

    The tail bound is proven from the first term.  With r = e^(-rate)
    (rate = 1/x on the coth route, 4 pi^2 x on the Poisson route) e^(-2v)
    is r^n, and each of the four term types is r^n times a sum of positive
    factors n^-k (k = 1, 2, 3) D^-j (j = 1, 2, 3), the ones with coth also
    times 1 + r^n; none increases with n, since D = 1 - r^n grows.  So
    every ratio of successive terms is at most r, the tail after a term t
    is at most t r/(1 - r), and q t with q = 2r/(1 - r) bounds it with a
    factor 2 to spare for rounding.

    The sum stops at the first n with q t <= tol partial, where tol is
    min(rel_tol, eps/2) below ``ctl.min_terms`` (a sum leaves before that
    floor only once its tail cannot move the double result) and rel_tol
    from there on.  Returns (terms, tail bound); running into
    ``ctl.max_terms`` is a ConvergenceError, as in :func:`sum_until`.
    """
    coth = route == "coth"
    if coth:
        rate = 1.0 / x
    else:
        rate = 4.0 * math.pi**2 * x
        c = 2.0 * math.pi**2 * x
    q = 2.0 * math.exp(-rate) / -math.expm1(-rate)
    min_terms, rel_tol = ctl.min_terms, ctl.rel_tol
    early_tol = min(rel_tol, 0.5 * _EPS)
    parts = []
    total = 0.0
    for n in range(1, ctl.max_terms + 1):
        if coth:
            s = 0.5 * n / x
            e = math.exp(-s)
            ish = 2.0 * e / -math.expm1(-2.0 * s)
            if pressure:
                t = x * (1.0 + e * ish) * ish * ish / n
            else:
                t = 2.0 * x * x / (n * n) * (2.0 * x / n * e * ish + ish * ish)
        else:
            u = c * n
            e = math.exp(-u)
            ish = 2.0 * e / -math.expm1(-2.0 * u)
            a = u * ish
            t = e * ish + a * ish
            if pressure:
                t += a * a * (1.0 + e * ish)
            t = x * t / n**3
        parts.append(t)
        total += t
        bound = q * t
        if bound <= (rel_tol if n >= min_terms else early_tol) * total:
            return parts, bound
    raise ConvergenceError(
        f"conductor {route} series: no convergence within {ctl.max_terms} terms"
    )


def _pair_series(
    kind: PlateKind, xi: float, route: str, pressure: bool, ctl: SeriesControl | None
):
    """Series part of a plate pair's d^3 F (pressure: d^4 P) on route 'coth'
    or 'poisson': its halves' kernel sums, weighted and scaled.

    Returns (sum, error bar, terms); the bar is each half's tail bound plus
    8 eps of its series for rounding.
    """
    total, err, terms = 0.0, 0.0, 0
    for a, ws, abs_ws in _SERIES_HALVES[kind, route, pressure]:
        parts, bound = _conductor_series(a * xi, route, pressure, ctl or _DEFAULT_CTL)
        s = math.fsum(parts)
        total += ws * s
        err += abs_ws * (bound + 8.0 * _EPS * s)
        terms += len(parts)
    return total, err, terms


def _pair_profile(
    kind: PlateKind, xi: float, route: str, pressure: bool, ctl: SeriesControl | None = None
):
    """d^3 F (pressure: d^4 P) of a plate pair, composed from the kernel.

    Returns (value, series part, error bar, terms).  The closed-form
    monomials are combined over the halves first, so the Boyer pair's
    zeta(3) x^3 terms cancel exactly.  Route 'zero-T' keeps the monomials
    alone, with error bar 0 by convention: every series term underflows
    there.  Otherwise the bar is that of :func:`_pair_series` plus 4 eps of
    the monomials and eps |value| per rounding of the combination and its
    scaling; a value outside the float range is a DomainError.
    """
    s_part, err, terms = 0.0, 0.0, 0
    try:
        parts = [
            c * xi**k
            for c, k in _PAIR_MONOMIALS[kind, "poisson" if route == "poisson" else "coth", pressure]
        ]
        if route != "zero-T":
            s_part, err, terms = _pair_series(kind, xi, route, pressure, ctl)
            err += 4.0 * _EPS * sum(map(abs, parts))
        # at most two parts each, so plain sums round once, like fsum; a
        # non-finite half gives inf or nan here, caught below
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

    Every term t = pos - neg lies in [0, pos], and pos falls by at least
    r_n = e^(-n/(2 xi)) per step in m, so the error bar sums the m-tail left
    behind in every row, the tail of the rows after the last, and the
    rounding of each term, at most (5 + x) eps (pos + neg) with
    x = n m/(2 xi) (the rounding of x enters e^(-x) multiplied by x).
    Both geometric factors r/(1 - r) are formed from expm1, so they stay
    accurate as the ratios near 1; where e^(-1/(2 xi)) rounds to 1 the
    terms are not resolved at all, and that is a DomainError.
    """
    if not xi > 0.0:
        raise DomainError("f_scaled_double requires xi > 0")
    if math.exp(-0.5 / xi) == 1.0:
        raise DomainError(
            f"the double sum's decay ratio exp(-1/(2 xi)) rounds to 1 at xi={xi!r}, "
            "outside the floating-point range of its terms; use the Poisson representation"
        )
    ctl = ctl or SeriesControl()
    parts = []
    nterms = 0
    total = 0.0
    m_tails = 0.0
    rounding = 0.0
    n = 0
    while True:
        n += 1
        a = n / (2.0 * xi)
        geo = math.exp(-a) / -math.expm1(-a)  # r_n/(1 - r_n) within row n
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
            x = n * m / (2.0 * xi)
            e1 = math.exp(-x)
            e2 = e1 * e1
            pos = (1.0 / m**3 + n / (2.0 * xi * m * m)) * e1
            neg = (1.0 / m**3 + n / (xi * m * m)) * e2
            t = pos - neg
            parts.append(t)
            total += t
            rounding += (5.0 + x) * (pos + neg)
            if row_first is None:
                row_first = pos
            mbound = pos * geo
            if m >= 2 and mbound <= 0.05 * ctl.rel_tol * abs(total):
                break
        m_tails += mbound
        # log of the row-to-row ratio at m = 1: exp(-1/(2 xi)) times the
        # prefactor growth (2 xi + n + 1)/(2 xi + n)
        lr = math.log1p(1.0 / (2.0 * xi + n)) - 0.5 / xi
        if lr < 0.0:
            row_full = row_first * (1.0 + geo)
            row_tail = row_full * math.exp(lr) / -math.expm1(lr)
            if n >= ctl.min_terms and row_tail <= 0.5 * ctl.rel_tol * abs(total):
                break
    value = math.fsum(parts)
    return EvalResult(value, row_tail + m_tails + _EPS * (rounding + abs(value)), nterms, "double")


def free_energy_poisson(
    sys: PlateSystem, t: ThermalPoint, ctl: SeriesControl | None = None
) -> EvalResult:
    """F/L^2 from the Poisson-resummed (high-temperature friendly) form.

    Below xi = 0.05 convergence degrades; callers are redirected to the
    coth/double forms.
    """
    if t.xi < _POISSON_XI_FLOOR:
        raise SlowConvergenceError(
            f"poisson representation converges slowly for xi < {_POISSON_XI_FLOOR}; "
            "use the coth or double representation"
        )
    return _pair(sys, t.xi, "poisson", ctl)


def f_nontrivial(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Non-trivial (neither zero-T nor Stefan-Boltzmann) part of the
    conducting-plate scaled free energy, as a positive-quadrant lattice sum.

    The quadrant is E(2; 1, w^2) = E(2; w^2, 1) with w = 2 pi xi; the engine
    sums the last coefficient's axis outermost, and with w^2 there it takes
    fewer terms than the other order from xi ~ 0.2 up (half as many from
    xi ~ 0.5), where most lattice halves lie.
    """
    if not xi > 0.0:
        raise DomainError("f_nontrivial requires xi > 0")
    ctl = ctl or SeriesControl()
    w = 2.0 * math.pi * xi
    value = err = math.inf
    try:
        # a float overflow in the lattice coefficient, the Epstein sum or
        # its scaling ends below as a DomainError naming xi
        if math.isfinite(w * w):
            r = epstein.epstein_direct(epstein.EpsteinParams(2.0, (1.0, w * w)), ctl)
            q = w**4 / (4.0 * math.pi**2)
            value, err = -q * r.value, q * r.abs_err_est
    except OverflowError:
        pass
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the lattice sum at xi={xi!r} overflows the floating-point range")
    return EvalResult(value, err, r.terms_used, "lattice")


def f_conducting_lattice(xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Dimensionless conducting-plate free energy d^3 F/L^2 as a lattice sum.

    The axis lines of the lattice carry the Stefan-Boltzmann term
    -pi^6 xi^4/45 (m-axis) and the zero-temperature term -pi^2/720
    (n-axis); the open quadrant is the non-trivial part.  The error bar is
    the quadrant's, plus 4 eps of each of the three parts for their
    rounding and 2 eps |value| for that of their sum.
    """
    nt = f_nontrivial(xi, ctl)
    parts = (-math.pi**6 * xi**4 / 45.0, -math.pi**2 / 720.0, nt.value)
    value = sum(parts)
    err = nt.abs_err_est + 4.0 * _EPS * sum(map(abs, parts)) + 2.0 * _EPS * abs(value)
    return EvalResult(value, err, nt.terms_used, "lattice")


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
    """F/L^2 of either plate pair from the lattice sums of its conducting
    halves: w times :func:`f_conducting_lattice` at a xi for each half
    (a, w), scaled by d^-3 once.

    The error bar is the halves' bars weighted by |w|, plus 2 eps |value|
    for the rounding of the combination and of the scaling.  A half whose
    lattice leaves the float range is a DomainError naming this xi.
    """
    value, err, terms = 0.0, 0.0, 0
    for a, w in _HALVES[sys.kind]:
        try:
            half = f_conducting_lattice(a * t.xi, ctl)
        except DomainError as exc:
            raise DomainError(
                f"the lattice sum at xi={t.xi!r} is outside the floating-point range"
            ) from exc
        value += w * half.value
        err += abs(w) * half.abs_err_est
        terms += half.terms_used
    return EvalResult(*_per_area(value, err + 2.0 * _EPS * abs(value), sys.d, 3), terms, "lattice")


# absolute tolerance of each quadrature, and the relative size of the last
# threshold's integral at which the mode integral stops
_MODE_TOL = 1e-14


def _blackbody_tail_integral(y: float):
    """J(y) = int_y^inf u ln(1 - e^-u) du by adaptive quadrature."""
    from scipy import integrate

    with warnings.catch_warnings():
        # near the roundoff floor quad reports its own limitation; the
        # returned error estimate is still propagated to the caller
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            lambda u: u * math.log(-math.expm1(-u)) if u > 0 else 0.0,
            y,
            math.inf,
            epsabs=_MODE_TOL,
            epsrel=1e-12,
            limit=200,
        )
    return val, err


def free_energy_mode_integral(
    sys: PlateSystem, t: ThermalPoint, ctl: SeriesControl | None = None
) -> EvalResult:
    """Mode-sum quadrature oracle for the free energy.

    Independent of every series representation: the thermal part is the
    black-body integrand integrated above each discrete transverse
    threshold, for conducting pairs at separations 2d and d.  The threshold
    sum needs about 70 xi thresholds; past ``ctl.max_terms`` of them it
    is a SlowConvergenceError.
    """
    _require_boyer(sys, "mode-integral")
    ctl = ctl or SeriesControl()
    xi = t.xi
    parts = []
    qerr = 0.0
    n = 0
    while True:
        n += 1
        j1, e1 = _blackbody_tail_integral(0.5 * n / xi)
        j2, e2 = _blackbody_tail_integral(n / xi)
        parts.append(j2 - j1)
        qerr += e1 + e2
        if n >= 4 and abs(j1) < _MODE_TOL * max(1e-300, abs(math.fsum(parts))):
            break
        if n >= ctl.max_terms:
            raise SlowConvergenceError(
                f"mode integral: no convergence within {ctl.max_terms} thresholds "
                f"at xi={xi!r}; use the poisson representation"
            )
    # d^3 F = d^3 E_0 - pi^2 xi^3 f, i.e. F = E_0 - f/(pi beta^3)
    q = math.pi**2 * xi**3
    value = _pair_profile(sys.kind, 0.0, "zero-T", False)[0] - q * math.fsum(parts)
    err = (qerr + abs(j1)) * q + 1e-15 * abs(value)
    return EvalResult(*_per_area(value, err, sys.d, 3), 2 * n, "mode-integral")


def _asymptotic_profile(kind: PlateKind, xi: float, high: bool, pressure: bool = False) -> float:
    """d^3 F of a plate pair from its low- or high-temperature closed form;
    with ``pressure``, d^4 P from the high-temperature one.

    The conducting profile g(x) is its closed-form monomials (those of the
    kernel's coth route at low, of its Poisson route at high temperature)
    plus one exponential, -pi^2 x^2 (x + 1) e^(-1/x) at low and
    -x (1/4 + pi^2 x) e^(-4 pi^2 x) at high temperature.  The pressure
    profile p = 3 g - x g' has the monomials (3 - k) c x^k and, at high
    temperature, the exponential -x (2 + 8 pi^2 x + 16 pi^4 x^2) e^(-4 pi^2 x)/4.
    A pair is its halves' monomials plus the exponential of its slowest
    half (largest x at low, smallest at high temperature); for the Boyer
    pair the other half's is the next, dropped, order.  So at high
    temperature the Boyer correction enters with a plus sign: the half at
    separation d carries weight -1.
    """
    a, w = (min if high else max)(_HALVES[kind])
    x = a * xi
    try:
        if high:
            r = math.exp(-4.0 * math.pi**2 * x)
            if pressure:
                e = -0.25 * x * (2.0 + 8.0 * math.pi**2 * x + 16.0 * math.pi**4 * x * x) * r
            else:
                e = -x * (0.25 + math.pi**2 * x) * r
        else:
            e = -math.pi**2 * x * x * (x + 1.0) * math.exp(-1.0 / x)
        value = w * e + sum(c * xi**k for c, k in _PAIR_MONOMIALS[
            kind, "poisson" if high else "coth", pressure])
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(
            f"the {'high' if high else 'low'}-temperature closed form at xi={xi!r} "
            "overflows the floating-point range"
        )
    return value


def free_energy_low_T(sys: PlateSystem, t: ThermalPoint) -> float:
    """Closed-form low-temperature (xi <~ 0.1) asymptotics, both systems."""
    return _per_area(_asymptotic_profile(sys.kind, t.xi, False), 0.0, sys.d, 3)[0]


def free_energy_high_T(sys: PlateSystem, t: ThermalPoint) -> float:
    """Closed-form high-temperature (xi >~ 1) asymptotics, both systems.

    Verified against the Poisson representation over xi in [1, 3].
    """
    return _per_area(_asymptotic_profile(sys.kind, t.xi, True), 0.0, sys.d, 3)[0]


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
    if rep is RepresentationKind.LATTICE:
        return free_energy_lattice(sys, t, ctl)
    if sys.kind is PlateKind.CONDUCTOR_CONDUCTOR:
        raise UnsupportedRepresentationError(
            f"representation '{rep.value}' is not available for "
            "conductor-conductor plates"
        )
    if rep in (RepresentationKind.DOUBLE_SUM, RepresentationKind.BESSEL):
        # d^3 F = d^3 E_0 - pi^2 xi^3 f(xi), i.e. F = E_0 - f/(pi beta^3)
        f, q = f_scaled_double(t.xi, ctl), math.pi**2 * t.xi**3
        g0 = _pair_profile(sys.kind, 0.0, "zero-T", False)[0]
        value = g0 - _BESSEL_THERMAL_SIGN * q * f.value
        # f's bar, then the rounding of q f and g0, of their difference and
        # of the d^-3 scaling, as in _pair_profile
        err = q * f.abs_err_est + 4.0 * _EPS * (abs(g0) + q * abs(f.value)) + 2.0 * _EPS * abs(value)
        return EvalResult(*_per_area(value, err, sys.d, 3), f.terms_used, f.rep)
    if rep is RepresentationKind.MODE_INTEGRAL:
        return free_energy_mode_integral(sys, t, ctl)
    raise UnsupportedRepresentationError(f"unknown representation {rep!r}")


def free_energy_auto(
    sys: PlateSystem, xi: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Routed evaluation by scaled temperature; xi = 0 is the exact
    zero-temperature limit (removable).  On the 'zero-T' route only the
    closed-form terms survive: the conducting pair keeps its
    -pi^2 zeta(3) xi^3/(2 d^3)."""
    return _pair(sys, xi, _route(xi), ctl)
