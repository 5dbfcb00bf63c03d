"""The validation representations of free energy and pressure.

Each serves only an explicit representation, ``casimir verify`` and the
tests: the (n, m) double sum, the mode-sum quadrature, the low- and
high-temperature closed forms of both quantities (the table's ``low`` and
``high`` rows) and the thermal-log pressure series.  The closed forms are
the kernel's plans cut to leading order; the high-T one is the low-T one of
the pair inverted by the paper's modified TIS (x' = 1/(4 pi^2 x), each half
(a, w) -> (1/a, w a^4), g -> g, p -> 2 g - p).  ``free_energy``'s table
imports this module on first use, so neither ``import casimir_plates`` nor
a routed evaluation parses it.  Conventions are those of ``free_energy``.
"""
from __future__ import annotations

import math
import warnings

from . import free_energy as fe
from . import specfun
from .errors import DomainError, SlowConvergenceError
from .free_energy import (
    _DEFAULT_CTL,
    _EPS,
    _MAX,
    _MIN_TERMS,
    _PLANS,
    ZETA3,
    EvalResult,
    PlateKind,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
    _pair_profile,
    _per_area,
    _require_boyer,
    _require_separation,
)

__all__ = ["f_scaled_double", "free_energy_mode_integral", "pressure_thermal_log"]


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
    if not 0.0 < xi <= _MAX:
        raise DomainError(f"f_scaled_double requires finite xi > 0, got {xi!r}")
    if math.exp(-0.5 / xi) == 1.0:
        raise DomainError(
            f"the double sum's decay ratio exp(-1/(2 xi)) rounds to 1 at xi={xi!r}, "
            "outside the floating-point range of its terms; use the Poisson representation"
        )
    ctl = ctl or _DEFAULT_CTL
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
            if n >= _MIN_TERMS and row_tail <= 0.5 * ctl.rel_tol * abs(total):
                break
    value = math.fsum(parts)
    return EvalResult(value, row_tail + m_tails + _EPS * (rounding + abs(value)), nterms, "double")


def _double(sys: PlateSystem, xi: float, ctl: SeriesControl | None) -> EvalResult:
    """F/L^2 of the Boyer pair, d^3 F = d^3 E_0 - pi^2 xi^3 f(xi), f the double sum;
    its thermal part's sign is free_energy._BESSEL_THERMAL_SIGN at call time."""
    f, q = f_scaled_double(xi, ctl), math.pi**2 * xi**3
    g0 = _pair_profile(sys.kind, 0.0, "zero-T", False)[0]
    value = g0 - fe._BESSEL_THERMAL_SIGN * q * f.value
    # f's bar, then the rounding of q f and g0, of their difference and
    # of the d^-3 scaling, as in _pair_profile
    err = q * f.abs_err_est + 4.0 * _EPS * (abs(g0) + q * abs(f.value)) + 2.0 * _EPS * abs(value)
    return EvalResult(*_per_area(value, err, sys.d, 3), f.terms_used, f.rep)


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
    is a SlowConvergenceError, raised at once where certain: the sum stops at
    n once |J(n/(2 xi))| < 1e-14 |sum|, while |J(y)| >= (1 + y) e^-y and
    |sum| <= min(n zeta(3), 2 xi int_0^inf |J| = 4 xi zeta(4)) (part n is at
    most |J(n/(2 xi))| <= zeta(3), decreasing); where ``ctl.max_terms``
    fails that by 2.5x (room for quadrature error), every n fails it.
    """
    _require_boyer(sys, "mode-integral")
    ctl = ctl or _DEFAULT_CTL
    xi = t.xi
    too_slow = SlowConvergenceError(f"mode integral: no convergence within {ctl.max_terms} "
                                    f"thresholds at xi={xi!r}; use the poisson representation")
    y = 0.5 * ctl.max_terms / xi
    if (1.0 + y) * math.exp(-y) >= 2.5 * _MODE_TOL * min(
            ctl.max_terms * ZETA3, 2.0 * math.pi**4 * xi / 45.0):
        raise too_slow
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
            raise too_slow
    # d^3 F = d^3 E_0 - pi^2 xi^3 f, i.e. F = E_0 - f/(pi beta^3)
    q = math.pi**2 * xi**3
    value = _pair_profile(sys.kind, 0.0, "zero-T", False)[0] - q * math.fsum(parts)
    err = (qerr + abs(j1)) * q + 1e-15 * abs(value)
    return EvalResult(*_per_area(value, err, sys.d, 3), 2 * n, "mode-integral")


def _asymptotic_profile(kind: PlateKind, xi: float, high: bool, pressure: bool = False):
    """(d^3 F, error bar) (pressure: d^4 P) of a plate pair from its low- or
    high-temperature closed form: the kernel's coth (high: Poisson) plan cut
    to its monomials and the slowest half's first term at leading order in
    its tail ratio r (y ~ 2r, z ~ 4r, 1 + y ~ 1), -pi^2 x^2 (x + 1) e^(-1/x)
    per unit weight of g at x = a xi on the coth plan.  The Poisson plan is
    the coth plan of the inverted pair, so the high-T form is its low-T one.

    The bar: each half's series is at most t_1 (1 + y_1), the kernel's tail
    bound, less what the form keeps of the slowest half's t_1; plus rounding,
    (3 lam + 10) eps of the kept term (r = e^(-lam)), 4 eps of each monomial
    and 2 eps |value|."""
    (c0, k0, c1, k1, rate), halves = _PLANS[kind]["poisson" if high else "coth"][pressure]
    bound = 0.0
    try:
        xi2 = xi * xi
        lam, pa, pc = (rate * xi, xi, xi2 * xi) if high else (rate / xi, xi2 * xi, xi)
        r = math.exp(-lam)
        for (fast, ka, kb, kc), ws, abs_ws in halves:
            a, b, c = ka * pa, kb * xi2, kc * pc if pressure else 0.0
            rh, lh = (r * r, lam + lam) if fast else (r, lam)
            h = 2.0 / (1.0 - rh) if rh < 0.5 else -2.0 / math.expm1(-lh)
            y = h * rh
            z = h * y
            bound += abs_ws * (a * y + b * z + c * z * (1.0 + y)) * (1.0 + y)
            if not fast:
                kept = ws * (2.0 * a + 4.0 * b + 4.0 * c) * r
        m0, m1 = c0 * xi**k0, c1 * xi**k1
        value = kept + (m0 + m1)
        err = bound - abs(kept) + _EPS * (
            (3.0 * lam + 10.0) * abs(kept) + 4.0 * (abs(m0) + abs(m1)) + 2.0 * abs(value))
    except OverflowError:
        value = err = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the {'high' if high else 'low'}-temperature closed form at "
                          f"xi={xi!r} overflows the floating-point range")
    return value, err


def _closed_form(sys: PlateSystem, xi: float, high: bool, pressure: bool = False) -> EvalResult:
    """F/L^2 (pressure: P) and its bar from the low- or high-T closed form:
    the rows ``low`` and ``high`` of both quantities.  In physical units the
    Boyer pressure's high-T zeta(3) term is 3 zeta(3)/(16 pi d^3 beta); the
    1/pi drops out of some printed versions of that asymptote."""
    value, err = _asymptotic_profile(sys.kind, xi, high, pressure)
    return EvalResult(*_per_area(value, err, sys.d, 4 if pressure else 3), 0,
                      "high" if high else "low")


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
    rate = _PLANS[PlateKind.BOYER_MIXED][route][False][0][4] / (xi * xi if route == "coth" else 1.0)
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

    # looked up at call time, so that a tracer's rebinding of it sees this call
    total, bound, n = specfun.sum_until(term, tail, ctl, "pressure_thermal_log")
    q = math.pi**2 * xi
    value = -q * total
    err = q * (bound + _EPS * rounding) + 5.0 * _EPS * abs(value)
    value, err = _per_area(value, err, d, 4)
    return EvalResult(value, err, n, "thermal-log")
