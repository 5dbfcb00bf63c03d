"""Pressure representations: derivative form vs Poisson-resummed form vs
zero-T-plus-thermal-log form, the thermodynamic relation P = -dF/dd, and
closed-form limits."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plates import (
    CasimirError,
    DomainError,
    PlateKind,
    PlateSystem,
    SeriesControl,
    SlowConvergenceError,
    ThermalPoint,
    free_energy_auto,
    pressure_auto,
    pressure_zero_T,
)
from casimir_plates import free_energy as free_energy_module
from casimir_plates.forms import _thermodynamic_residual, pressure_thermal_log
from casimir_plates.verification import GRIDS, run_all

TIGHT = SeriesControl(rel_tol=1e-14)


def boyer(d=1.0):
    return PlateSystem(d=d, kind=PlateKind.BOYER_MIXED)


def pressure_row(rep, t, d, ctl=TIGHT):
    """The table's row ('pressure', rep) at the point t and separation d."""
    sys = boyer(d)
    return free_energy_module._evaluator("pressure", rep, sys.kind, t.xi)(sys, t.xi, ctl)


def _mpmath_pressure(xi, d=1.0, prec=40):
    """Oracle: P(xi, d) = -d/dd [F/L^2], with F built independently as the
    conductor-pair difference F(d) = g(2 xi_d)/(8 d^3) - g(xi_d)/d^3 where
    g is the dimensionless conducting-plate profile, differentiated in
    arbitrary precision."""
    with mpmath.workdps(prec):
        dd = mpmath.mpf(d)
        beta = dd / (mpmath.pi * mpmath.mpf(xi))

        def g(y):
            def term(n):
                s = n / (2 * y)
                return (
                    4 * y**3 / n**3 * (mpmath.coth(s) - 1)
                    + 2 * y**2 / n**2 / mpmath.sinh(s) ** 2
                )

            return -mpmath.pi**2 / 720 - (mpmath.pi**2 / 8) * (
                4 * y**3 * mpmath.zeta(3) + mpmath.nsum(term, [1, mpmath.inf])
            )

        def free(dv):
            y = dv / (mpmath.pi * beta)
            return g(2 * y) / (8 * dv**3) - g(y) / dv**3

        return float(-mpmath.diff(free, dd))


def _mpmath_pressure_profile(x):
    """d^4 P/L^2 of the conducting pair, p = -pi^2/240 + (pi^2 x/4)
    sum_n coth(s) csch^2(s)/n with s = n/(2x), as an mpmath number (the
    relation p = 3 g - x g' behind it is checked in test_free_energy)."""
    x = mpmath.mpf(x)

    def term(n):
        s = n / (2 * x)
        return mpmath.coth(s) / mpmath.sinh(s) ** 2 / n

    return -mpmath.pi**2 / 240 + mpmath.pi**2 * x / 4 * mpmath.nsum(term, [1, mpmath.inf])


def _mpmath_thermal_log_profile(xi):
    """d^4 P of the thermal-log series as an mpmath number: -pi^2 xi
    sum_n n^2 [log(1 - e^(-n/2xi))/4 - log(1 - e^(-n/xi))], summed until a
    term is below 1e-45 of the sum.  log1p keeps log(1 - e^-x) from
    rounding to 0 for large x."""
    xi = mpmath.mpf(xi)
    total, n = mpmath.mpf(0), 0
    while True:
        n += 1
        t = n * n * (mpmath.log1p(-mpmath.exp(-n / (2 * xi))) / 4
                     - mpmath.log1p(-mpmath.exp(-n / xi)))
        total += t
        if abs(t) < mpmath.mpf(10) ** -45 * abs(total):
            return -mpmath.pi**2 * xi * total


class TestOracle:
    @pytest.mark.parametrize("xi", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0])
    def test_pressure_matches_mpmath_derivative(self, xi):
        ref = _mpmath_pressure(xi)
        got = pressure_auto(1.0, xi, TIGHT).value
        assert got == pytest.approx(ref, rel=1e-8)

    def test_pressure_is_minus_dF_dd(self):
        # central finite difference of the free energy in d
        d, xi = 1.0, 0.7
        h = 1e-5
        beta = d / (math.pi * xi)

        def F(dv):
            return free_energy_auto(boyer(dv), dv / (math.pi * beta), TIGHT).value

        fd = -(F(d + h) - F(d - h)) / (2.0 * h)
        got = pressure_auto(d, xi, TIGHT).value
        assert got == pytest.approx(fd, rel=1e-7)


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("xi", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0])
    def test_dfdxi_equals_poisson(self, xi):
        d = 1.0
        t = ThermalPoint.from_xi(xi, d)
        a = pressure_row("coth", t, d).value
        b = pressure_row("poisson", t, d).value
        assert a == pytest.approx(b, abs=1e-8 * max(1.0, abs(a)))

    @pytest.mark.parametrize("xi", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0])
    def test_thermal_log_decomposition(self, xi):
        d = 1.0
        t = ThermalPoint.from_xi(xi, d)
        a = pressure_row("coth", t, d).value
        b = pressure_zero_T(boyer(d)) + pressure_thermal_log(t, d, TIGHT).value
        assert a == pytest.approx(b, abs=1e-8 * max(1.0, abs(a)))

    def test_zero_temperature_limit(self):
        d = 1.0
        t = ThermalPoint.from_beta(100.0, d)
        got = pressure_row("coth", t, d).value
        assert got == pytest.approx(pressure_zero_T(boyer(d)), abs=1e-12)

    def test_thermal_log_vanishing_at_low_T(self):
        d = 1.0
        # the thermal correction decays like e^{-1/(2 xi)}
        assert abs(
            pressure_thermal_log(ThermalPoint.from_xi(0.02, d), d, TIGHT).value
        ) < 1e-12
        assert abs(
            pressure_thermal_log(ThermalPoint.from_xi(0.01, d), d, TIGHT).value
        ) < 1e-15


class TestCancellationAndAsymptotics:
    def test_poisson_recovers_zero_T_at_small_xi(self):
        # at xi = 0.05 the Poisson form carries ~1.6e-4 relative residual
        # from the large-term cancellation; at xi = 0.04 it is below 1e-4
        d = 1.0
        p0 = pressure_zero_T(boyer(d))
        got5 = pressure_row("poisson", ThermalPoint.from_xi(0.05, d), d).value
        assert got5 == pytest.approx(p0, rel=2e-4)
        # the Poisson route of the kernel itself, d^4 P = P at d = 1: the
        # poisson row refuses xi < 0.05
        got4 = free_energy_module._pair_profile(PlateKind.BOYER_MIXED, 0.04, "poisson", True,
                                                TIGHT)[0]
        assert got4 == pytest.approx(p0, rel=1e-4)

    @pytest.mark.parametrize("beta,rtol", [(0.1, 1e-6), (0.5, 1e-3)])
    def test_high_T_closed_form(self, beta, rtol):
        d = 1.0
        t = ThermalPoint.from_beta(beta, d)
        exact = pressure_row("poisson", t, d).value
        assert pressure_row("high", t, d).value == pytest.approx(exact, rel=rtol)

    def test_stefan_boltzmann_dominates(self):
        d, beta = 1.0, 0.05
        t = ThermalPoint.from_beta(beta, d)
        got = pressure_row("poisson", t, d).value
        assert got == pytest.approx(math.pi**2 / (45.0 * beta**4), rel=1e-3)

    def test_printed_high_T_variant_within_a_part_in_a_thousand(self):
        # the variant without the 1/pi in the zeta(3) coefficient is a
        # common transcription; it still lands within 1e-3 at beta = 0.1
        d, beta = 1.0, 0.1
        t = ThermalPoint.from_beta(beta, d)
        exact = pressure_row("poisson", t, d).value
        variant = (
            math.pi**2 / (45.0 * beta**4)
            + 3.0 * float(mpmath.zeta(3)) / (16.0 * d**3 * beta)
            + math.exp(-4.0 * math.pi * d / beta)
            / (2.0 * math.pi * d**3 * beta)
            * (1.0 + 4.0 * math.pi * d / beta + 8.0 * math.pi**2 * d**2 / beta**2)
        )
        assert variant == pytest.approx(exact, rel=1e-3)
        assert variant != pytest.approx(exact, rel=1e-5)


class TestScalingAndSign:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_homogeneity(self, lam):
        xi = 0.7
        base = pressure_auto(1.0, xi, TIGHT).value
        scaled = pressure_auto(lam, xi, TIGHT).value
        assert scaled == pytest.approx(base / lam**4, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=5.0))
    def test_always_repulsive(self, xi):
        assert pressure_auto(1.0, xi).value > 0.0

    def test_zero_T_value(self):
        assert pressure_zero_T(boyer(1.0)) == pytest.approx(
            0.875 * math.pi**2 / 240.0, rel=1e-15
        )

    def test_router_zero_xi_exact(self):
        r = pressure_auto(1.0, 0.0)
        assert r.value == pressure_zero_T(boyer(1.0))
        assert r.abs_err_est == 0.0


class TestValidation:
    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pressure_auto(-1.0, 0.5)
        with pytest.raises(DomainError):
            pressure_auto(1.0, -0.5)
        t = ThermalPoint.from_xi(0.5, 1.0)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="d must be"):
                pressure_row("coth", t, bad)
        with pytest.raises(DomainError, match="xi"):
            pressure_auto(1.0, math.inf)

    def test_poisson_floor(self):
        t = ThermalPoint.from_xi(0.01, 1.0)
        with pytest.raises(SlowConvergenceError):
            pressure_row("poisson", t, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(math.log(1e-3), math.log(5.0)).map(math.exp),
        st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
    )
    def test_error_estimates_bound_true_error(self, xi, d):
        with mpmath.workdps(40):
            ref = _mpmath_pressure_profile(2.0 * xi) / 8 - _mpmath_pressure_profile(xi)
            ref /= mpmath.mpf(d) ** 4
            r = pressure_auto(d, xi)
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err_est

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(1e-3), math.log(10.0)).map(math.exp),
        st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
    )
    @example(1.166e-3, 1.0)
    def test_thermal_log_error_estimate_bounds_true_error(self, xi, d):
        r = pressure_thermal_log(ThermalPoint(xi), d)
        with mpmath.workdps(40):
            ref = _mpmath_thermal_log_profile(xi) / mpmath.mpf(d) ** 4
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err_est

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
    )
    def test_routed_result_is_finite_or_typed_error(self, xi, d):
        try:
            r = pressure_auto(d, xi)
        except CasimirError:
            return
        assert math.isfinite(r.value) and math.isfinite(r.abs_err_est)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["thermal-log", "high-T"]),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
    )
    @example("thermal-log", 1e-3, 1e-120)
    @example("thermal-log", 1e17, 1.0)
    @example("thermal-log", 5.0, 1e100)
    def test_explicit_forms_are_finite_or_typed_error(self, form, xi, d):
        # a small term budget: the thermal-log series needs about 150 xi terms
        t = ThermalPoint(xi)
        try:
            if form == "thermal-log":
                r = pressure_thermal_log(t, d, SeriesControl(max_terms=2000))
            else:  # the high row, with its own bar
                r = pressure_row("high", t, d, None)
        except CasimirError:
            return
        assert math.isfinite(r.value) and math.isfinite(r.abs_err_est)


class TestInPathCheck:
    """The checks of the routed pressure, which run in ``casimir verify``
    and here, not on every call: P = 3F - xi dF/dxi, and the thermal-log
    series as an oracle independent of the conductor kernel."""

    ROWS = {"pressure/thermodynamic-identity", "pressure/thermal-log-vs-routed"}

    @staticmethod
    def _tamper(monkeypatch, route):
        # scale the Boyer pressure's series part on one route by (1 + 1e-5)
        # as it enters the routed value
        plans = free_energy_module._PLANS[PlateKind.BOYER_MIXED]
        f_plan, (monomials, halves) = plans[route]
        k = 1.0 + 1e-5
        scaled = tuple((a, ws * k, abs_ws * k) for a, ws, abs_ws in halves)
        monkeypatch.setitem(plans, route, (f_plan, (monomials, scaled)))

    @pytest.mark.parametrize("xi, rep", [(0.1, "dfdxi"), (0.5, "poisson")])
    def test_fires_on_a_tampered_series(self, monkeypatch, xi, rep):
        # on the default grid 0.1 is the one point of the coth route and
        # 0.5 one of the Poisson route's
        untampered = pressure_auto(1.0, xi)
        assert untampered.rep == rep
        self._tamper(monkeypatch, "coth" if rep == "dfdxi" else rep)
        assert pressure_auto(1.0, xi).value != untampered.value
        failed = {c.name for c in run_all("default") if not c.passed}
        assert self.ROWS <= failed

    @pytest.mark.parametrize("xi", GRIDS["default"])
    def test_passes_untampered(self, xi):
        r = pressure_auto(1.0, xi)
        assert math.isfinite(r.value) and r.value > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(math.log(1e-3), math.log(10.0)).map(math.exp))
    def test_thermodynamic_identity(self, xi):
        # both routes of the kernel, the Poisson one down to its floor
        routes = ("coth", "poisson") if xi >= 0.05 else ("coth",)
        assert max(_thermodynamic_residual(xi, route) for route in routes) <= 1e-6

    @pytest.mark.parametrize("op, xi, halves", [
        ("pressure", 0.1, 2), ("pressure", 0.5, 2), ("pressure", 0.0, 0), ("pressure", 1e-4, 0),
        ("boyer", 0.1, 2), ("boyer", 0.5, 2), ("boyer", 0.0, 0), ("boyer", 1e-4, 0),
        ("conductor", 0.1, 1), ("conductor", 0.5, 1), ("conductor", 0.0, 0), ("conductor", 1e-4, 0),
    ])
    def test_routed_op_sums_only_its_halves(self, monkeypatch, op, xi, halves):
        # one kernel pass per op, over the halves of its plate pair and no
        # other sum: no self-check runs on the hot path.  The pass takes one
        # exponential for all its halves, and none on the zero-T route
        real = free_energy_module._pair_profile
        passes = []
        exps = 0

        def counting(*args):
            passes.append(args)
            return real(*args)

        def counted(fn):
            def wrapped(x):
                nonlocal exps
                exps += 1
                return fn(x)
            return wrapped

        monkeypatch.setattr(free_energy_module, "_pair_profile", counting)
        monkeypatch.setattr(math, "exp", counted(math.exp))
        monkeypatch.setattr(math, "expm1", counted(math.expm1))
        if op == "pressure":
            pressure_auto(1.0, xi)
        else:
            free_energy_auto(PlateSystem(1.0, op), xi)
        assert len(passes) == 1
        kind, _, route, pressure = passes[0][:4]
        assert len(free_energy_module._PLANS[kind][route][pressure][1]) == halves
        assert exps == (1 if halves else 0)
