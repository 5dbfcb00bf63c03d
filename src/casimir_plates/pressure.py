"""Net Casimir pressure on the mixed conducting/permeable plate pair.

Positive pressure means repulsion (the plates are pushed apart).  Three
independent evaluations are provided -- the xi-derivative of the scaled
free energy, the thermal-log series, and the Poisson-resummed
all-temperature form -- plus the high-temperature closed form.  Every
analytic derivative is cross-checked internally against finite
differences of the underlying sums.
"""

from __future__ import annotations

import math

from .errors import InternalConsistencyError, SlowConvergenceError
from .free_energy import (
    _POISSON_XI_FLOOR,
    PlateSystem,
    ThermalPoint,
    _require_boyer,
    _route,
    f_scaled_single,
)
from .specfun import (
    ZETA3,
    EvalResult,
    SeriesControl,
    coth_minus_one,
    coth_stable,
    inv_sinh_stable,
    sum_until,
)

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
    return 0.875 * math.pi**2 / (240.0 * sys.d**4)


def _df_dxi_terms(xi: float, ctl: SeriesControl) -> EvalResult:
    """df/dxi by term-wise differentiation of the coth/sinh single sum.

    With s = n/(2 xi), each term of f differentiates to a closed
    combination of coth, 1/sinh and coth/sinh^2 kernels; every piece
    decays like exp(-s), so the tail is geometric with ratio
    exp(-1/(2 xi)).
    """
    rr = math.exp(-0.5 / xi)

    def term(n):
        s = 0.5 * n / xi
        ch = coth_stable(s)
        ish = inv_sinh_stable(s)
        if ish == 0.0:  # every piece carries an ish factor; avoid 0 * inf
            return 0.0
        a = 2.0 * xi / n + ch
        a_p = 2.0 / n + ish * ish * s / xi
        b_p = ish * ch * s / xi
        g = a * ish / (4.0 * xi * n * n)
        return (a_p * ish + a * b_p) / (4.0 * xi * n * n) - g / xi

    def tail(n, t):
        return 2.0 * abs(t) * rr / (1.0 - rr)

    total, bound, n = sum_until(term, tail, ctl, "df_dxi")
    return EvalResult(total, bound + 1e-16 * abs(total), n, "coth")


def pressure_net_dfdxi(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Net pressure as (7/8) pi^2/240d^4 + (1/pi^2 beta^4) df/dxi.

    The analytic derivative is validated against a central finite
    difference of the scaled free energy; disagreement beyond 1e-6
    relative raises ``InternalConsistencyError``.
    """
    sys = PlateSystem(d)  # validates d
    ctl = ctl or SeriesControl()
    xi = t.xi
    dfd = _df_dxi_terms(xi, ctl)
    h = 1e-5 * max(xi, 0.01)
    # the log-derivative of f scales like 1/(2 xi^2); only run the check
    # where the central-difference truncation error is itself below the
    # tolerance, else a healthy analytic derivative would be flagged
    if xi > h and (h / (2.0 * xi * xi)) ** 2 / 6.0 < 1e-7:
        fp = f_scaled_single(xi + h, ctl).value
        fm = f_scaled_single(xi - h, ctl).value
        fd = (fp - fm) / (2.0 * h)
        scale = max(abs(dfd.value), abs(fd), 1e-280)
        if abs(dfd.value - fd) > 1e-6 * scale and scale > 1e-250:
            raise InternalConsistencyError(
                f"df/dxi analytic={dfd.value!r} vs finite-difference={fd!r} "
                f"at xi={xi}"
            )
    # 1/(pi^2 beta^4) written via xi so huge beta underflows instead of
    # overflowing
    q = (math.pi * xi / d) ** 4 / math.pi**2
    value = pressure_zero_T(sys) + q * dfd.value
    return EvalResult(value, q * dfd.abs_err_est + 1e-16 * abs(value), dfd.terms_used, "dfdxi")


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


def _coth_sum_second_derivative(xi: float, c: float, ctl: SeriesControl):
    """(d^2/dxi^2)[(1/xi) sum_m coth(c m xi)/m^3], exponentially convergent.

    The constant part of coth sums to zeta(3), contributing 2 zeta(3)/xi^3
    in closed form; the remainder uses
    (d^2/dxi^2)[coth(a xi)/xi] = 2 coth/xi^3 + 2a/(xi^2 sinh^2)
                                 + 2a^2 coth/(xi sinh^2), a = c m.
    """
    rr = math.exp(-2.0 * c * xi)

    def term(m):
        a = c * m
        u = a * xi
        ish = inv_sinh_stable(u)
        ch = coth_stable(u)
        return (
            2.0 * coth_minus_one(u) / xi**3
            + 2.0 * a * ish * ish / (xi * xi)
            + 2.0 * a * a * ch * ish * ish / xi
        ) / m**3

    def tail(m, tm):
        return 2.0 * abs(tm) * rr / (1.0 - rr)

    s, bound, n = sum_until(term, tail, ctl, "coth_sum_second_derivative")
    return 2.0 * ZETA3 / xi**3 + s, bound, n


def _coth_sum_value(xi: float, c: float, ctl: SeriesControl):
    """(1/xi) sum_m coth(c m xi)/m^3 via the same zeta(3) split."""
    rr = math.exp(-2.0 * c * xi)

    def term(m):
        return coth_minus_one(c * m * xi) / m**3

    def tail(m, tm):
        return 2.0 * abs(tm) * rr / (1.0 - rr)

    s, _, _ = sum_until(term, tail, ctl, "coth_sum_value")
    return (ZETA3 + s) / xi


def pressure_poisson(
    t: ThermalPoint,
    d: float,
    ctl: SeriesControl | None = None,
    xi_floor: float = _POISSON_XI_FLOOR,
) -> EvalResult:
    """All-temperature net pressure from the Poisson-resummed form.

    P = pi^2/45b^4 - (1/32 pi^4 b^4) S''(4 pi^2) + (1/8 pi^4 b^4) S''(2 pi^2)
    with S(c) = (1/xi) sum_m coth(c m xi)/m^3 and analytic second
    derivatives, each validated against a second central difference.
    """
    PlateSystem(d)  # validates d
    ctl = ctl or SeriesControl()
    xi, beta = t.xi, t.beta(d)
    if xi < xi_floor:
        raise SlowConvergenceError(
            f"pressure_poisson converges too slowly below xi={xi_floor}; "
            "use pressure_net_dfdxi"
        )
    c1, c2 = 4.0 * math.pi**2, 2.0 * math.pi**2
    d1, b1, n1 = _coth_sum_second_derivative(xi, c1, ctl)
    d2, b2, n2 = _coth_sum_second_derivative(xi, c2, ctl)
    h = 1e-4 * max(xi, 0.1)
    for c, dd in ((c1, d1), (c2, d2)):
        fd2 = (
            _coth_sum_value(xi + h, c, ctl)
            - 2.0 * _coth_sum_value(xi, c, ctl)
            + _coth_sum_value(xi - h, c, ctl)
        ) / (h * h)
        if abs(dd - fd2) > 1e-6 * max(abs(dd), abs(fd2)):
            raise InternalConsistencyError(
                f"Poisson second derivative analytic={dd!r} vs "
                f"finite-difference={fd2!r} at xi={xi}, c={c}"
            )
    q = 1.0 / (math.pi**4 * beta**4)
    value = math.pi**2 / (45.0 * beta**4) - q / 32.0 * d1 + q / 8.0 * d2
    err = q * (b1 / 32.0 + b2 / 8.0) + 1e-15 * abs(value)
    return EvalResult(value, err, n1 + n2, "poisson")


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
    if route == "zero-T":
        return EvalResult(pressure_zero_T(PlateSystem(d)), 0.0, 0, "zero-T")
    if route == "coth":
        return pressure_net_dfdxi(ThermalPoint(xi), d, ctl)
    return pressure_poisson(ThermalPoint(xi), d, ctl)
