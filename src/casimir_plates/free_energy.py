"""Helmholtz free energy per unit plate area: the records, the routed
kernel and the table of every representation the package serves.

Conventions (natural units, hbar = c = k_B = 1):

* ``d`` is the plate separation, ``beta`` the inverse temperature and
  ``xi = d / (pi beta)`` the dimensionless scaled temperature.
* All free energies are F/L^2, energy per unit area, units length^-3.

One conductor kernel carries the production paths: the conducting-pair
profile g(x) = a^3 F_c, or p(x) = a^4 P_c = 3 g - x g', from the coth series
(tail ratio e^(-1/x)) or its Poisson resummation (e^(-4 pi^2 x)); the router
switches at x = 1/(2 pi), where the two ratios meet.  ``_pair`` is the one
way into it: the router, the d^-3 (d^-4) scaling and its range check, for
the routed functions, every kernel row of the table and the zero-T
energies alike.  The Boyer pair is the split F = F1(2d) - F2(d):
d^3 F = g(2 xi)/8 - g(xi), d^4 P = p(2 xi)/8 - p(xi).
The paper's modified TIS is the conductors' inversion x' = 1/(4 pi^2 x),
g -> g and p -> 2 g - p times (2 pi x)^4, taken half by half: a half (a, w)
at xi is the half (1/a, w a^4) at xi'.  Its coefficients are written once,
in coth form, and the Poisson route is the coth route of the inverted pair.
The other representations are independent evaluations, cross-checked
against the kernel by the tests and by ``casimir verify``; all but the
lattice sums live in ``forms``.  Like the kernel, each forms the
dimensionless d^3 F and scales it by d^-3 once.  ``forms``, ``epstein``
and scipy (the lattice sums, the mode-integral quadrature) are imported on
first use: the routed paths need ``math`` alone.
"""
from __future__ import annotations

import enum
import math
import operator
import sys as _sys
from collections import namedtuple

from .errors import (
    ConvergenceError,
    DomainError,
    SlowConvergenceError,
    UnsupportedRepresentationError,
)

__all__ = [
    "SeriesControl",
    "EvalResult",
    "PlateKind",
    "PlateSystem",
    "ThermalPoint",
    "RepresentationKind",
    "zero_temperature_energy",
    "free_energy_lattice",
    "f_nontrivial",
    "f_conducting_lattice",
    "evaluate_free_energy",
    "free_energy_auto",
]


def _record(name: str, fields: str):
    """A namedtuple base for a record type whose subclass validates in
    ``__new__``; its ``_make``, and so ``_replace``, goes through that too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class SeriesControl(_record("SeriesControl", "rel_tol max_terms")):
    """Truncation policy shared by every adaptive series evaluator.

    A series evaluator stops only once its bounded tail estimate drops
    below ``rel_tol`` times the magnitude of the partial sum; running into
    ``max_terms``, an integer of at least 1, raises
    :class:`~casimir_plates.errors.ConvergenceError` (or its subclass
    :class:`~casimir_plates.errors.SlowConvergenceError`) instead of
    returning silently.  A series whose tail estimate is heuristic sums at
    least ``_MIN_TERMS`` terms first; the conductor kernel, whose tail bound
    is proven from the first term, may stop before that floor, once the
    bound is below min(rel_tol, eps/2) of the partial sum: where its tail
    cannot move the double result.
    """

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-12, max_terms: int = 10**6):
        if not rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        try:
            if isinstance(max_terms, bool):
                raise TypeError
            max_terms = operator.index(max_terms)  # any integral type (numpy too) as an int
        except TypeError:
            raise DomainError(f"max_terms must be an integer, got {max_terms!r}") from None
        if max_terms < 1:
            raise DomainError("max_terms must be at least 1")
        return tuple.__new__(cls, (rel_tol, max_terms))


class EvalResult(_record("EvalResult", "value abs_err_est terms_used rep")):
    """Value of a truncated series together with its error bookkeeping."""

    __slots__ = ()

    def __new__(cls, value: float, abs_err_est: float, terms_used: int, rep: str):
        if not abs_err_est >= 0.0:  # also rejects nan
            raise DomainError("abs_err_est must be nonnegative")
        return tuple.__new__(cls, (value, abs_err_est, terms_used, rep))


# the truncation policy of every evaluator called without one; records are
# immutable, so all of them share this one
_DEFAULT_CTL = SeriesControl()
# the fewest terms a series with a heuristic tail estimate sums before it may stop
_MIN_TERMS = 8


ZETA3 = 1.2020569031595942  # Apery's constant zeta(3), correctly rounded


class PlateKind(enum.Enum):
    BOYER_MIXED = "boyer"
    CONDUCTOR_CONDUCTOR = "conductor"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"{value!r} is not a valid PlateKind")

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality; Enum's own hashes the name in Python code,
    # on every lookup of the hot path's tables keyed by the kind
    __hash__ = object.__hash__


def _require_separation(d: float):
    if not 0.0 < d <= _MAX:
        raise DomainError(f"plate separation d must be finite and positive, got {d!r}")


class PlateSystem(_record("PlateSystem", "d kind")):
    """Plate separation and boundary-condition kind."""

    __slots__ = ()

    def __new__(cls, d: float, kind: PlateKind | str = PlateKind.BOYER_MIXED):
        if not 0.0 < d <= _MAX:
            _require_separation(d)
        if not isinstance(kind, PlateKind):
            kind = PlateKind(kind)
        return tuple.__new__(cls, (d, kind))


class ThermalPoint(_record("ThermalPoint", "xi")):
    """The scaled temperature xi = d/(pi beta), the one thermal variable.

    The inverse temperature is not stored: at plate separation d it is
    ``beta(d) = d/(pi xi)``.
    """

    __slots__ = ()

    def __new__(cls, xi: float):
        if not 0.0 < xi <= _MAX:
            raise DomainError(f"xi must be finite and positive, got {xi!r}")
        return tuple.__new__(cls, (xi,))

    def beta(self, d: float) -> float:
        """Inverse temperature at plate separation d."""
        return d / (math.pi * self.xi)

    @classmethod
    def from_beta(cls, beta: float, d: float) -> "ThermalPoint":
        if not 0.0 < beta <= _MAX:
            raise DomainError(f"beta must be finite and positive, got {beta!r}")
        return cls(d / (math.pi * beta))

    @classmethod
    def from_xi(cls, xi: float, d: float) -> "ThermalPoint":
        """The point at scaled temperature xi; it does not depend on d.  Kept
        because ``benchmarks/child.py`` calls it; ``ThermalPoint(xi)`` is the
        same point."""
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

    @classmethod
    def _missing_(cls, value):
        raise UnsupportedRepresentationError(f"{value!r} is not a valid RepresentationKind")


# test hook used by `casimir verify --tamper bessel-sign`: the sign of the
# double-sum engine's thermal part; never set in normal operation
_BESSEL_THERMAL_SIGN = 1.0

# the self-dual point of the conductors' temperature inversion, where the
# coth tail ratio e^(-1/xi) equals the Poisson one e^(-4 pi^2 xi)
_COTH_POISSON_SPLIT = 1.0 / (2.0 * math.pi)
_POISSON_XI_FLOOR = 0.05  # _pair refuses the Poisson route below this xi: too slow there
_EPS = _sys.float_info.epsilon
_INF = math.inf
# the largest finite float: a bound x <= _MAX, unlike x < inf, also refuses
# an integer past the float range, at the same cost for a float
_MAX = _sys.float_info.max
# the largest xi with exp(-1/(2 xi)) == 0.0, bisected between exp(-833) = 0 and exp(-714) > 0
_ZERO_T_XI, _hi = 6e-4, 7e-4
while _ZERO_T_XI < (_mid := 0.5 * (_ZERO_T_XI + _hi)) < _hi:
    _ZERO_T_XI, _hi = (_mid, _hi) if math.exp(-0.5 / _mid) == 0.0 else (_ZERO_T_XI, _mid)
del _hi, _mid


def _route(xi: float) -> str:
    """The one router of free energy and pressure: 'zero-T', 'coth' or 'poisson'.

    xi = 0 is the exact zero-temperature limit (removable).  So is every xi
    whose exp(-1/(2 xi)) is exact floating-point zero, xi <= _ZERO_T_XI:
    each thermal correction carries that factor, and beta = d/(pi xi) may
    not even be representable.
    """
    if not 0.0 <= xi <= _MAX:
        raise DomainError(f"xi must be finite and nonnegative, got {xi!r}")
    if xi <= _ZERO_T_XI:
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
    return _pair(sys.kind, sys.d, 0.0, False, None, "zero-T").value


# the closed-form monomials (c, k), i.e. c x^k, of the conducting profile
# g(x) on the coth route; the pressure profile p = 3 g - x g' has (3 - k) c x^k
_MONOMIALS = ((-math.pi**2 / 720.0, 0), (-math.pi**2 * ZETA3 / 2.0, 3))
# each plate pair as halves (a, w): w times the conducting profile at x = a xi
_HALVES = {
    PlateKind.BOYER_MIXED: ((2.0, 0.125), (1.0, -1.0)),
    PlateKind.CONDUCTOR_CONDUCTOR: ((1.0, 1.0),),
}
# the inversion of the module docstring (Brown and Maclay, Phys. Rev. 184,
# 1272 (1969)); the Boyer pair's image is (1/2, 2), (1, -1), another pair
_TIS = 4.0 * math.pi**2


def _inverted(c: float, k: int):
    """The term c x'^k times (2 pi x)^4 = _TIS^2 x^4, as (c', k'): c' x^k'."""
    return c * _TIS ** (2 - k), 4 - k


def _plan(halves, route: str, p: bool):
    """What :func:`_pair_profile` composes on a route: ((c0, k0, c1, k1,
    rate), halves), c x^k the pair's monomials combined over its halves
    (the Boyer pair's zeta(3) x^3 cancels exactly), and e^(-rate/xi) (coth)
    or e^(-rate xi) (Poisson) its slowest tail ratio.  A half is ((fast, kA,
    kB, kC), ws, |ws|), a fast one at twice that rate, with term n
    ws (A y/n^3 + B z/n^2 + C z (1 + y)/n), A = kA xi^3 (Poisson: kA xi),
    B = kB xi^2, C = kC xi (kC xi^3).  'zero-T' has no series.

    On the coth route, alpha g + beta p has (A, B, C) = -pi^2/8 (4 alpha x^3,
    2 alpha x^2, -2 beta x), the sign in ws.  The Poisson plan is the coth plan
    of the inverted pair and of (alpha + 2 beta) g - beta p, each term mapped
    by :func:`_inverted`, and the rate 1/a' = a times _TIS.
    """
    alpha, beta = (0.0, 1.0) if p else (1.0, 0.0)
    to_xi = _inverted if route == "poisson" else lambda c, k: (c, k)
    if route == "poisson":
        halves = tuple((1.0 / a, w * a**4) for a, w in halves)
        alpha, beta = alpha + 2.0 * beta, -beta
    (c0, k0), (c1, k1) = (
        to_xi(c * (alpha + beta * (3 - k)) * math.fsum(w * a**k for a, w in halves), k)
        for c, k in _MONOMIALS)
    if route == "zero-T":
        return (c0, k0, c1, k1, 0.0), ()
    slow = max(a for a, _ in halves)
    series = []
    for a, w in halves:
        ks = (4.0 * alpha * a**3, 2.0 * alpha * a**2, -2.0 * beta * a)
        ws = -math.pi**2 / 8.0 * (-w if sum(ks) < 0.0 else w)
        ks = (to_xi(abs(k), power)[0] for k, power in zip(ks, (3, 2, 1)))  # on x^3, x^2, x
        series.append(((a != slow, *ks), ws, abs(ws)))
    rate = 1.0 / slow * (_TIS if route == "poisson" else 1.0)
    return (c0, k0, c1, k1, rate), tuple(series)


# _PLANS[kind][route] is (free-energy plan, pressure plan), indexed by the
# pressure flag, so a routed evaluation looks its plan up once
_PLANS = {
    kind: {route: (_plan(halves, route, False), _plan(halves, route, True))
           for route in ("zero-T", "coth", "poisson")}
    for kind, halves in _HALVES.items()
}


def _pair_profile(
    kind: PlateKind, xi: float, route: str, pressure: bool, ctl: SeriesControl | None = None
):
    """d^3 F (pressure: d^4 P) of a plate pair, every half in one pass.

    Returns (value, series part, error bar, terms).  The monomials are
    combined over the halves first (the Boyer pair's zeta(3) x^3 terms
    cancel exactly); route 'zero-T' keeps them alone, with bar 0.

    Series.  With r = e^(-2v), v = n/(2x), D = 1 - r, y = coth v - 1 = 2r/D
    and z = csch^2 v = 2y/D the conducting profile's coth terms are
      g: (4x^3 y/n + 2x^2 z)/n^2     p: x z (1 + y)/n
    (times -pi^2/8 and pi^2/4); the Poisson route is the coth route of the
    inverted pair (:func:`_plan`), at x' = 1/(4 pi^2 x).
    They need r_n = r_1^n, r_1 = e^(-rate), rate = 1/x or 4 pi^2 x.  One
    exp gives the slowest half's r_1, the other half's is its square, and
    each half runs r_n = r_(n-1) r_1, with D_n = 1 - r_n while r_n < 1/2
    (routed points have r_1 <= e^(-pi)), -expm1(-n rate) from 1/2 up.

    Tail.  Each term is r^n times factors n^-k, D^-j, r^n, 1 + y that do
    not increase with n, so the terms fall by r_1 or more each, the tail
    after a term t is at most t r_1/(1 - r_1), and q t, q = 2 r_1/D_1,
    bounds it with a factor 2 to spare for rounding.  A half stops at the
    first n with q t <= tol partial, tol = min(rel_tol, eps/2) below
    ``_MIN_TERMS`` (early only once its tail cannot move the double
    result), rel_tol from there on; ``ctl.max_terms`` is a ConvergenceError.

    Rounding, to first order in u = eps/2, exp and expm1 within 1 ulp: the
    rate carries 3u, so r_1 is within (3 rate + 5)u, r_n within
    rho_n = n (3 rate + 6)u.  A term is at most r^2/D^3 in r and D, with
    18u from its other factors and operations; D = 1 - r carries
    w rho_n + u (w = r/D <= min(1, q/2)), expm1's D 6u.  So term n is within
    (2 + 3w) rho_n + 36u, sum_n n t_n <= (1 + q/2) s as the terms fall by
    r_1, the running sum of N terms adds (N - 1)u s, and as
    (3 + 4.5 min(1, q/2))(1 + q/2) <= 3 + 6q a half's rounding allowance is
      eps s ((3 + 6q)(rate + 2) + 18 + N/2)
    (a term whose r_n is subnormal is below 2^-1021 of its coefficients).
    The bar adds to the halves' weighted tail bounds and allowances 4 eps of
    the monomials and eps |value| per rounding of their sum and its scaling.
    """
    (c0, k0, c1, k1, rate), halves = _PLANS[kind][route][pressure]
    rel_tol, max_terms = ctl or _DEFAULT_CTL
    min_terms = _MIN_TERMS
    s_part, err, terms = 0.0, 0.0, 0
    try:
        m0, m1 = c0 * xi**k0, c1 * xi**k1
        if halves:
            xi2, coth = xi * xi, route == "coth"
            rate, pa, pc = (rate / xi, xi2 * xi, xi) if coth else (rate * xi, xi, xi2 * xi)
            base = math.exp(-rate)
            early_tol = rel_tol if rel_tol < 0.5 * _EPS else 0.5 * _EPS
            for (fast, ka, kb, kc), ws, abs_ws in halves:
                if fast:
                    lam = rate + rate
                    r = r1 = base * base
                else:
                    lam = rate
                    r = r1 = base
                a, b = ka * pa, kb * xi2
                h = 2.0 / (1.0 - r) if r < 0.5 else -2.0 / math.expm1(-lam)
                q = y = h * r
                z = h * y
                t = a * y + b * z  # term 1, where dividing by n is exact
                if pressure:
                    t += kc * pc * z * (1.0 + y)
                total, n = t, 1
                # early_tol <= rel_tol, so this is the stop rule above
                while not (q * t <= early_tol * total
                           or (n >= min_terms and q * t <= rel_tol * total)):
                    if n == max_terms:
                        raise ConvergenceError(
                            f"conductor {route} series: no convergence within {max_terms} terms"
                        )
                    n += 1
                    r *= r1
                    h = 2.0 / (1.0 - r) if r < 0.5 else -2.0 / math.expm1(-n * lam)
                    y = h * r
                    z = h * y
                    if pressure:
                        t = ((a * y / n + b * z) / n + kc * pc * z * (1.0 + y)) / n
                    else:
                        t = (a * y / n + b * z) / (n * n)
                    total += t
                s_part += ws * total
                err += abs_ws * (
                    q * t + ((3.0 + 6.0 * q) * (lam + 2.0) + 18.0 + 0.5 * n) * _EPS * total)
                terms += n
        # two monomials, so the plain sum rounds once, like fsum; a
        # non-finite half gives inf or nan here, caught below
        value = m0 + m1 + s_part
        if halves:
            err += _EPS * (4.0 * (abs(m0) + abs(m1)) + 2.0 * abs(value))
    except OverflowError:
        value = math.inf
    if not (-_INF < value < _INF and err < _INF):
        raise DomainError(f"the plate-pair profile at xi={xi!r} overflows the floating-point range")
    return value, s_part, err, terms


def _per_area(value: float, err: float, d: float, power: int):
    """(value, err) times d^-power, power 3 or 4, one division by d at a
    time so that no intermediate over- or underflows before the result does."""
    value = value / d / d / d
    err = err / d / d / d
    if power == 4:
        value /= d
        err /= d
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the result at d={d!r} is outside the floating-point range")
    return value, err


def _pair(kind: PlateKind, d: float, xi: float, pressure: bool, ctl=None, route=None):
    """F/L^2 (pressure: P) of the pair ``kind`` at separation d and xi, on
    ``route`` of the kernel or, with None, the routed one: the one way into
    the kernel.  An explicit Poisson route below xi = 0.05 is the package's
    one floor; the pressure's coth route is reported as 'dfdxi'."""
    # _route and _per_area's scaling are written out here, not called: on
    # the routed path two more calls cost a few percent of an evaluation
    if route is None:
        if _ZERO_T_XI < xi < _INF:
            route = "coth" if xi < _COTH_POISSON_SPLIT else "poisson"
        else:
            route = _route(xi)
    elif route == "poisson" and xi < _POISSON_XI_FLOOR:
        raise SlowConvergenceError(
            f"the poisson representation converges too slowly below xi={_POISSON_XI_FLOOR}; "
            "use the coth series"
        )
    value, _, err, terms = _pair_profile(kind, xi, route, pressure, ctl)
    value, err = value / d / d / d, err / d / d / d
    if pressure:
        value, err = value / d, err / d
        if route == "coth":
            route = "dfdxi"
    if not (-_INF < value < _INF and err < _INF):
        raise DomainError(f"the result at d={d!r} is outside the floating-point range")
    return tuple.__new__(EvalResult, (value, err, terms, route))


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
    from . import epstein

    ctl = ctl or _DEFAULT_CTL
    value = err = math.inf
    try:
        # a float overflow in the lattice coefficient, the Epstein sum or
        # its scaling ends below as a DomainError naming xi
        w = 2.0 * math.pi * xi
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


def evaluate_free_energy(
    sys: PlateSystem,
    t: ThermalPoint,
    ctl: SeriesControl | None = None,
    rep: RepresentationKind | str = "auto",
) -> EvalResult:
    """Evaluate F/L^2 in the requested representation ('auto' routes), as
    the row ('free_energy', rep) of :data:`_SERVED` gives it; at
    xi <= _ZERO_T_XI every representation returns the routed zero-T value.

    ``bessel`` is an alias of ``double``: the Macdonald-function sum is the
    double sum term for term, so both run the one double-sum engine.
    """
    return _evaluator("free_energy", rep, sys.kind, t.xi)(sys, t.xi, ctl)


def free_energy_auto(
    sys: PlateSystem, xi: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Routed evaluation by scaled temperature; xi = 0 is the exact
    zero-temperature limit (removable).  On the 'zero-T' route only the
    closed-form terms survive: the conducting pair keeps its
    -pi^2 zeta(3) xi^3/(2 d^3)."""
    return _pair(sys.kind, sys.d, xi, False, ctl)


def _forms():
    """The validation representations' module, imported on first use."""
    from . import forms

    return forms


def _kernel_row(pressure: bool, route: str | None):
    """The table's evaluator of the kernel on ``route`` (None: routed)."""
    return lambda sys, xi, ctl: _pair(sys.kind, sys.d, xi, pressure, ctl, route)


_BOTH = frozenset(PlateKind)
_BOYER = frozenset((PlateKind.BOYER_MIXED,))
# The one table of what the package serves: each (quantity, representation)
# row is (evaluator(sys, xi, ctl) -> EvalResult, the plate kinds it serves),
# and a missing row or kind is the refusal (_evaluator).  A validation row
# loads ``forms`` when called; pressure.py adds the pressure rows.
_SERVED = {
    ("free_energy", "auto"): (_kernel_row(False, None), _BOTH),
    ("free_energy", "coth"): (_kernel_row(False, "coth"), _BOTH),
    ("free_energy", "poisson"): (_kernel_row(False, "poisson"), _BOTH),
    ("free_energy", "lattice"): (
        lambda sys, xi, ctl: free_energy_lattice(sys, ThermalPoint(xi), ctl), _BOTH),
    ("free_energy", "low"): (lambda sys, xi, ctl: _forms()._closed_form(sys, xi, False), _BOTH),
    ("free_energy", "high"): (lambda sys, xi, ctl: _forms()._closed_form(sys, xi, True), _BOTH),
    ("free_energy", "double"): (lambda sys, xi, ctl: _forms()._double(sys, xi, ctl), _BOYER),
    ("free_energy", "mode-integral"): (lambda sys, xi, ctl: _forms().free_energy_mode_integral(
        sys, ThermalPoint(xi), ctl), _BOYER),
}
# an alias: the Macdonald-function sum is the double sum term for term
_SERVED["free_energy", "bessel"] = _SERVED["free_energy", "double"]


def _evaluator(quantity: str, rep: RepresentationKind | str, kind: PlateKind, xi: float):
    """The evaluator of ``quantity`` in ``rep`` for the pair ``kind`` at xi
    from :data:`_SERVED`, or an UnsupportedRepresentationError naming all
    three.  At a zero-T xi (:func:`_route`), where every thermal part is 0,
    each row of either quantity is its routed row, ``auto``."""
    try:
        evaluator, kinds = _SERVED[quantity, rep]
        if _route(xi) == "zero-T":
            evaluator, kinds = _SERVED[quantity, "auto"]
    except (KeyError, TypeError):  # no row, or a key that cannot be one
        evaluator, kinds = None, ()
    if kind not in kinds:
        rep = getattr(rep, "value", rep)  # a RepresentationKind as its string
        raise UnsupportedRepresentationError(
            f"{quantity} in representation '{rep}' is not served for the {kind.value} pair")
    return evaluator
