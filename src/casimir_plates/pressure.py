"""Net Casimir pressure on the mixed conducting/permeable plate pair.

Positive pressure means repulsion (the plates are pushed apart).  The
routed forms compose the conductor kernel's pressure profile,
d^4 P = p(2 xi)/8 - p(xi) with p = 3 g - x g', on its coth route
(``dfdxi``) or its Poisson route (``poisson``).  The thermal-log series is
an independent evaluation; the high-temperature closed form is the
pressure profile of the free energy's.  The relation P = 3F - xi dF/dxi
between the composed pressure and free energy holds by construction of
the profiles, so it is checked once in ``casimir verify``
(:func:`_thermodynamic_residual`), not on every call; so is the agreement
of the routed pressure with the thermal-log series.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .free_energy import (
    _BOYER,
    _COTH_POISSON_SPLIT,
    _EPS,
    _INF,
    _MAX,
    _SERVED,
    _ZERO_T_XI,
    PlateKind,
    PlateSystem,
    ThermalPoint,
    _asymptotic_profile,
    _pair,
    _pair_profile,
    _per_area,
    _require_boyer,
    _require_separation,
    _route,
)
from .specfun import _DEFAULT_CTL, EvalResult, SeriesControl, sum_until

__all__ = [
    "pressure_zero_T",
    "pressure_net_dfdxi",
    "pressure_thermal_log",
    "pressure_poisson",
    "pressure_high_T",
    "pressure_auto",
]


def pressure_zero_T(sys: PlateSystem) -> float:
    """Zero-temperature net pressure, +(7/8) pi^2/(240 d^4)."""
    _require_boyer(sys, "pressure")
    return _pair(sys, 0.0, "zero-T", None, True).value


def _thermodynamic_residual(xi: float, route: str, ctl: SeriesControl | None = None) -> float:
    """Relative residual of P = 3F - xi dF/dxi on the composed Boyer profile
    at xi on route 'coth' or 'poisson'; ``casimir verify`` holds it to 1e-6.

    The closed-form monomials obey the relation by construction, so the
    series parts are compared: 3F - P against a central difference
    xi dF/dxi with step h = 1e-5 max(xi, 0.01).  The residual is 0 where the
    difference's truncation error (set by the log-derivative of the slowest
    tail ratio) is not below 1e-7 relative, or where both sides are below
    1e-250: there the difference is not accurate enough to test anything.
    """
    h = 1e-5 * max(xi, 0.01)
    rate = 0.5 / (xi * xi) if route == "coth" else 4.0 * math.pi**2
    if not (xi > h and (h * rate) ** 2 / 6.0 < 1e-7):
        return 0.0

    def f(x):
        return _pair_profile(PlateKind.BOYER_MIXED, x, route, False, ctl)[1]

    p_series = _pair_profile(PlateKind.BOYER_MIXED, xi, route, True, ctl)[1]
    analytic = 3.0 * f(xi) - p_series
    fd = xi * (f(xi + h) - f(xi - h)) / (2.0 * h)
    scale = max(abs(analytic), abs(fd), 1e-280)
    if scale <= 1e-250:
        return 0.0
    return abs(analytic - fd) / scale


def pressure_net_dfdxi(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Net pressure from the kernel's coth series, the xi-derivative form:
    d^4 P = p(2 xi)/8 - p(xi), p = -pi^2/240 + (pi^2 x/4) sum coth csch^2/n."""
    return _pair(PlateSystem(d), t.xi, "coth", ctl, True, "dfdxi")


def pressure_thermal_log(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Thermal pressure from the n^2 log(1 - e^(-n/2xi)) series,
    d^4 P = -pi^2 xi sum_n n^2 [log(1 - e^(-n/2xi))/4 - log(1 - e^(-n/xi))].

    Exposed for cross-validation: pressure_zero_T plus this value is the
    routed pressure, an evaluation independent of the conductor kernel.

    The error bar is proven.  With y = e^(-n/2xi) the bracket is
    sum_k c_k y^k/k with c_k = -1/4 for odd and 7/4 for even k, so term n
    is at most n^2 y (1/4 + (7/8) y/(1 - y)) in size.  The tail after term
    n is therefore at most (1/4 + (7/8) y_N/(1 - y_N)) S_N with N = n + 1,
    r = e^(-1/2xi) and S_N = sum_{m >= N} m^2 r^m
    = r^N [N^2/(1 - r) + 2 N r/(1 - r)^2 + r (1 + r)/(1 - r)^3].  That
    bound is tight where y_N is small, so the bar takes twice it, as the
    conductor kernel does, to leave room for the rounding.  Each log
    of argument x carries (6 + x) eps of its size for rounding: the rounding
    of x enters e^(-x) multiplied by x, as in :func:`f_scaled_double`, and
    up to 6 eps come from exp, expm1 or log1p, the log, and the bracket's
    difference and product.  5 eps |value| cover the sum, its prefactor
    pi^2 xi and the d^-4 scaling.
    """
    _require_separation(d)
    ctl = ctl or _DEFAULT_CTL
    xi = t.xi
    r = math.exp(-0.5 / xi)
    g = 1.0 / -math.expm1(-0.5 / xi)  # 1/(1 - r)
    rounding = 0.0

    def logf(x):
        # log(1 - e^-x), accurate for both small and large x
        if x < 1.0:
            return math.log(-math.expm1(-x))
        return math.log1p(-math.exp(-x))

    def term(n):
        nonlocal rounding
        x = 0.5 * n / xi
        l1, l2 = logf(x), logf(n / xi)
        if l1:  # where e^-x underflows both logs are 0, and x may be inf
            rounding += n * n * ((6.0 + x) * 0.25 * abs(l1) + (6.0 + 2.0 * x) * abs(l2))
        return n * n * (0.25 * l1 - l2)

    def tail(n, tn):
        big_n = n + 1
        y = math.exp(-0.5 * big_n / xi)
        s_n = y * (big_n * big_n * g + 2.0 * big_n * r * g * g + r * (1.0 + r) * g * g * g)
        return (0.5 + 1.75 * y / -math.expm1(-0.5 * big_n / xi)) * s_n

    total, bound, n = sum_until(term, tail, ctl, "pressure_thermal_log")
    q = math.pi**2 * xi
    value = -q * total
    err = q * (bound + _EPS * rounding) + 5.0 * _EPS * abs(value)
    value, err = _per_area(value, err, d, 4)
    return EvalResult(value, err, n, "thermal-log")


def pressure_poisson(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """All-temperature net pressure from the kernel's Poisson series:
    d^4 P = p(2 xi)/8 - p(xi) with
    p = pi^6 x^4/45 - zeta(3) x/4 - (1/4) sum_m [...]/m^3.  Below
    xi = 0.05 it is the Poisson route's SlowConvergenceError."""
    return _pair(PlateSystem(d), t.xi, "poisson", ctl, True)


def pressure_high_T(t: ThermalPoint, d: float) -> float:
    """High-temperature (xi >~ 1) closed form of the net pressure,
    d^4 P = pi^6 xi^4/45 + 3 zeta(3) xi/16
    + xi (2 + 8 pi^2 xi + 16 pi^4 xi^2) e^(-4 pi^2 xi)/4.

    It is the pressure profile of the high-temperature free energy's closed
    form.  In physical units the zeta(3) term is 3 zeta(3)/(16 pi d^3 beta);
    its 1/pi drops out of some printed versions of this asymptote.  It
    matches the Poisson representation to relative 1e-6 already at
    beta = 0.1, d = 1.
    """
    _require_separation(d)
    value = _asymptotic_profile(PlateKind.BOYER_MIXED, t.xi, True, True)
    return _per_area(value, 0.0, d, 4)[0]


def pressure_auto(d: float, xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Routed pressure by scaled temperature: derivative form at small xi,
    Poisson above; xi = 0 is the exact zero-temperature limit (removable)."""
    if _ZERO_T_XI < xi < _INF:  # the routes of _route, inline
        route = "coth" if xi < _COTH_POISSON_SPLIT else "poisson"
    else:
        route = _route(xi)
    if not 0.0 < d <= _MAX:  # also an integer d past the float range
        _require_separation(d)
    value, _, err, terms = _pair_profile(PlateKind.BOYER_MIXED, xi, route, True, ctl)
    value, err = value / d / d / d / d, err / d / d / d / d
    if not (-_INF < value < _INF and err < _INF):
        raise DomainError(f"the result at d={d!r} is outside the floating-point range")
    return tuple.__new__(EvalResult, (value, err, terms, "dfdxi" if route == "coth" else route))


# the table's pressure row (see free_energy._SERVED): routed, and Boyer only
_SERVED["pressure", "auto"] = (lambda sys, xi, ctl: pressure_auto(sys.d, xi, ctl), _BOYER)
