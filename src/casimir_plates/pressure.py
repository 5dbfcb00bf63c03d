"""Net Casimir pressure on the mixed conducting/permeable plate pair.

Positive pressure means repulsion (the plates are pushed apart).  The
routed forms compose the conductor kernel's pressure profile,
d^4 P = p(2 xi)/8 - p(xi) with p = 3 g - x g', on its coth route
(``dfdxi``) or its Poisson route (``poisson``).  Each composed value runs
one in-path check of P = 3F - xi dF/dxi against a central difference of the
composed free-energy profile, where that difference is accurate enough.
The thermal-log series and the high-temperature closed form are
independent evaluations.
"""

from __future__ import annotations

import math

from .errors import InternalConsistencyError, SlowConvergenceError
from .free_energy import (
    _POISSON_XI_FLOOR,
    PlateKind,
    PlateSystem,
    ThermalPoint,
    _pair_profile,
    _pair_series,
    _per_area,
    _require_boyer,
    _route,
)
from .specfun import ZETA3, EvalResult, SeriesControl, sum_until

__all__ = [
    "pressure_zero_T",
    "pressure_net_dfdxi",
    "pressure_thermal_log",
    "pressure_poisson",
    "pressure_high_T",
    "evaluate_pressure",
]


def pressure_zero_T(sys: PlateSystem) -> float:
    """Zero-temperature net pressure, +(7/8) pi^2/(240 d^4)."""
    _require_boyer(sys, "pressure")
    return _pressure(sys.d, 0.0, "zero-T", None, "zero-T").value


def _check_thermodynamics(xi: float, route: str, p_series: float, ctl: SeriesControl | None):
    """In-path check of P = 3F - xi dF/dxi on the composed Boyer profile.

    The closed-form monomials obey it by construction, so the series parts
    are compared: 3F - P against a central difference xi dF/dxi, wherever
    the difference's truncation error (set by the log-derivative of the
    slowest tail ratio) is below the 1e-6 relative tolerance.
    """
    h = 1e-5 * max(xi, 0.01)
    rate = 0.5 / (xi * xi) if route == "coth" else 4.0 * math.pi**2
    if not (xi > h and (h * rate) ** 2 / 6.0 < 1e-7):
        return

    def f(x):
        return _pair_series(PlateKind.BOYER_MIXED, x, route, False, ctl)[0]

    analytic = 3.0 * f(xi) - p_series
    fd = xi * (f(xi + h) - f(xi - h)) / (2.0 * h)
    scale = max(abs(analytic), abs(fd), 1e-280)
    if abs(analytic - fd) > 1e-6 * scale and scale > 1e-250:
        raise InternalConsistencyError(
            f"xi dF/dxi analytic={analytic!r} vs finite-difference={fd!r} "
            f"at xi={xi}, route {route}"
        )


def _pressure(d: float, xi: float, route: str, ctl: SeriesControl | None, rep: str) -> EvalResult:
    sys = PlateSystem(d)  # validates d
    value, p_series, err, terms = _pair_profile(sys.kind, xi, route, True, ctl)
    if route != "zero-T":
        _check_thermodynamics(xi, route, p_series, ctl)
    return EvalResult(*_per_area(value, err, d, 4), terms, rep)


def pressure_net_dfdxi(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Net pressure from the kernel's coth series, the xi-derivative form:
    d^4 P = p(2 xi)/8 - p(xi), p = -pi^2/240 + (pi^2 x/4) sum coth csch^2/n."""
    return _pressure(d, t.xi, "coth", ctl, "dfdxi")


def pressure_thermal_log(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Thermal pressure from the n^2 log(1 - e^(-n/2xi)) series.

    Exposed primarily for cross-validation: pressure_zero_T plus this
    value reproduces the other net-pressure forms.
    """
    PlateSystem(d)  # validates d
    ctl = ctl or SeriesControl()
    xi = t.xi
    rr = math.exp(-0.5 / xi)

    def logf(x):
        # log(1 - e^-x), accurate for both small and large x
        if x < 1.0:
            return math.log(-math.expm1(-x))
        return math.log1p(-math.exp(-x))

    def term(n):
        return n * n * (0.25 * logf(0.5 * n / xi) - logf(n / xi))

    def tail(n, tn):
        return 2.0 * abs(tn) * rr / (1.0 - rr)

    total, bound, n = sum_until(term, tail, ctl, "pressure_thermal_log")
    q = -1.0 / (math.pi**2 * t.beta(d) ** 4 * xi**3)
    value = q * total
    return EvalResult(value, abs(q) * bound + 1e-16 * abs(value), n, "thermal-log")


def pressure_poisson(
    t: ThermalPoint,
    d: float,
    ctl: SeriesControl | None = None,
    xi_floor: float = _POISSON_XI_FLOOR,
) -> EvalResult:
    """All-temperature net pressure from the kernel's Poisson series:
    d^4 P = p(2 xi)/8 - p(xi) with
    p = pi^6 x^4/45 - zeta(3) x/4 - (1/4) sum_m [...]/m^3."""
    PlateSystem(d)  # validates d
    if t.xi < xi_floor:
        raise SlowConvergenceError(
            f"pressure_poisson converges too slowly below xi={xi_floor}; "
            "use pressure_net_dfdxi"
        )
    return _pressure(d, t.xi, "poisson", ctl, "poisson")


def pressure_high_T(t: ThermalPoint, d: float) -> float:
    """High-temperature (xi >~ 1) closed form of the net pressure.

    The zeta(3)/(16 d^3 beta) term carries a 1/pi that drops out of some
    printed versions of this asymptote; the form here is the exact
    d-derivative of the high-temperature free energy and matches the
    Poisson representation to relative 1e-6 already at beta = 0.1, d = 1.
    """
    PlateSystem(d)  # validates d
    beta = t.beta(d)
    e = math.exp(-4.0 * math.pi * d / beta)
    return (
        math.pi**2 / (45.0 * beta**4)
        + 3.0 * ZETA3 / (16.0 * math.pi * d**3 * beta)
        + e
        / (2.0 * math.pi * d**3 * beta)
        * (1.0 + 4.0 * math.pi * d / beta + 8.0 * math.pi**2 * d * d / (beta * beta))
    )


def evaluate_pressure(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Routed net pressure at a thermal point (see :func:`pressure_auto`)."""
    return pressure_auto(d, t.xi, ctl)


def pressure_auto(d: float, xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Routed pressure by scaled temperature: derivative form at small xi,
    Poisson above; xi = 0 is the exact zero-temperature limit (removable)."""
    route = _route(xi)
    return _pressure(d, xi, route, ctl, "dfdxi" if route == "coth" else route)
