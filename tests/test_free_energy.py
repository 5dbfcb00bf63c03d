"""Free-energy representations: cross-checks against an mpmath oracle,
closed-form limits, and the routing / validation behavior of the public
entry points."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import (
    DomainError,
    PlateKind,
    PlateSystem,
    SeriesControl,
    SlowConvergenceError,
    ThermalPoint,
    UnsupportedRepresentationError,
    evaluate_free_energy,
    free_energy_auto,
    zero_temperature_energy,
)
from casimir_plates.free_energy import (
    f_conducting_lattice,
    f_conducting_single,
    f_nontrivial,
    f_scaled_double,
    f_scaled_single,
    free_energy_high_T,
    free_energy_low_T,
    free_energy_mode_integral,
)

TIGHT = SeriesControl(rel_tol=1e-14)
REPS = ("bessel", "coth", "double", "poisson", "lattice")


def boyer(d=1.0):
    return PlateSystem(d=d, kind=PlateKind.BOYER_MIXED)


def conductor(d=1.0):
    return PlateSystem(d=d, kind=PlateKind.CONDUCTOR_CONDUCTOR)


def _mpmath_f_scaled(xi, prec=40):
    """Oracle: f(xi) via the single coth/csch sum in arbitrary precision."""
    with mpmath.workdps(prec):
        x = mpmath.mpf(xi)
        zero_t = -mpmath.pi**2 / mpmath.mpf(720)

        def term(n):
            s = n / (2 * x)
            return (
                4 * x**3 / n**3 * (mpmath.coth(s) - 1)
                + 2 * x**2 / n**2 / mpmath.sinh(s) ** 2
            )

        q = mpmath.pi**2 / 8
        total = 4 * x**3 * mpmath.zeta(3) + mpmath.nsum(term, [1, mpmath.inf])
        return float(zero_t - q * total)


class TestMpmathOracle:
    """High-precision reference values for d^3 F/L^2 (conducting pair) and
    the Boyer combination F(xi) = f(2 xi)/8 - f(xi) in units of 1/d^3."""

    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 1.0, 2.0, 5.0])
    def test_conducting_single_matches_mpmath(self, xi):
        ref = _mpmath_f_scaled(xi)
        got = f_conducting_single(xi, TIGHT).value
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "xi,ref",
        [
            (0.5, -1.27891634458356395),
            (2.0, -341.601883157432487),
        ],
    )
    def test_boyer_free_energy_reference_values(self, xi, ref):
        # independently recomputed from the mpmath single-sum oracle
        oracle = _mpmath_f_scaled(2.0 * xi) / 8.0 - _mpmath_f_scaled(xi)
        assert oracle == pytest.approx(ref, rel=1e-14)
        r = free_energy_auto(boyer(), xi, TIGHT)
        assert r.value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("rep", REPS)
    @pytest.mark.parametrize("xi", [0.1, 0.5, 2.0])
    def test_all_representations_match_oracle(self, rep, xi):
        ref = _mpmath_f_scaled(2.0 * xi) / 8.0 - _mpmath_f_scaled(xi)
        t = ThermalPoint.from_xi(xi, 1.0)
        r = evaluate_free_energy(boyer(), t, TIGHT, rep)
        tol = 1e-5 if rep == "lattice" else 1e-8
        assert r.value == pytest.approx(ref, abs=tol * max(1.0, abs(ref)))


class TestScaledThermalFunction:
    def test_single_equals_double(self):
        a = f_scaled_single(0.5, TIGHT).value
        b = f_scaled_double(0.5, TIGHT).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_low_temperature_leading_exponential(self):
        # f(xi) -> (1 + 1/(2 xi)) e^{-1/(2 xi)} for small xi; at xi=0.1 this
        # is 6 e^{-5} and the next correction is ~2e-3 relative
        xi = 0.1
        approx = (1.0 + 0.5 / xi) * math.exp(-1.0 / (2.0 * xi))
        got = f_scaled_single(xi, TIGHT).value
        assert got == pytest.approx(approx, rel=2e-3)
        assert approx == pytest.approx(0.0404277, rel=1e-4)

    def test_high_temperature_stefan_boltzmann(self):
        xi = 5.0
        got = f_scaled_double(xi, TIGHT).value
        assert got == pytest.approx(math.pi**4 * xi / 45.0, rel=1e-3)

    def test_small_xi_against_low_T_form(self):
        xi = 0.05
        got = f_scaled_double(xi, TIGHT).value
        approx = (1.0 + 0.5 / xi) * math.exp(-1.0 / (2.0 * xi))
        assert got == pytest.approx(approx, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_scaled_single(0.0)
        with pytest.raises(DomainError):
            f_scaled_double(-1.0)


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 1.0, 2.0, 5.0])
    def test_bessel_equals_coth_decomposition(self, xi):
        sys = boyer()
        t = ThermalPoint.from_xi(xi, 1.0)
        via_bessel = evaluate_free_energy(sys, t, TIGHT, "bessel").value
        decomposed = (
            zero_temperature_energy(sys)
            - f_scaled_single(xi, TIGHT).value / (math.pi * t.beta(1.0) ** 3)
        )
        assert via_bessel == pytest.approx(decomposed, abs=1e-10)

    def test_mode_integral_oracle(self):
        sys = boyer()
        for xi in (0.3, 1.0):
            t = ThermalPoint.from_xi(xi, 1.0)
            ref = free_energy_mode_integral(sys, t).value
            got = evaluate_free_energy(sys, t, TIGHT, "auto").value
            assert got == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))

    def test_zero_temperature_limit(self):
        sys = boyer()
        t = ThermalPoint.from_beta(100.0, 1.0)
        r = evaluate_free_energy(sys, t, TIGHT, "bessel")
        assert r.value == pytest.approx(zero_temperature_energy(sys), abs=1e-12)

    def test_poisson_high_T_residual(self):
        # F + pi^2 d/(45 beta^4) -> 3 zeta(3)/(32 pi d^2 beta) as beta -> 0
        d, beta = 1.0, 0.1
        t = ThermalPoint.from_beta(beta, d)
        r = evaluate_free_energy(boyer(d), t, TIGHT, "poisson")
        residual = r.value + math.pi**2 * d / (45.0 * beta**4)
        z3 = float(mpmath.zeta(3))
        assert residual == pytest.approx(
            3.0 * z3 / (32.0 * math.pi * d * d * beta), rel=1e-2
        )

    def test_poisson_floor_raises(self):
        t = ThermalPoint.from_xi(0.01, 1.0)
        with pytest.raises(SlowConvergenceError):
            evaluate_free_energy(boyer(), t, TIGHT, "poisson")


class TestScalingAndStructure:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_homogeneity(self, lam):
        # at fixed xi, F/L^2 scales as d^-3
        xi = 0.7
        base = free_energy_auto(boyer(1.0), xi, TIGHT).value
        scaled = free_energy_auto(boyer(lam), xi, TIGHT).value
        assert scaled == pytest.approx(base / lam**3, rel=1e-10)

    def test_monotone_decreasing_in_temperature(self):
        sys = boyer()
        vals = [free_energy_auto(sys, xi, TIGHT).value for xi in
                (0.05, 0.1, 0.3, 0.6, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.05, max_value=5.0))
    def test_boyer_free_energy_below_zero_T_value(self, xi):
        sys = boyer()
        r = free_energy_auto(sys, xi)
        assert r.value <= zero_temperature_energy(sys) + 1e-12

    def test_router_zero_xi_exact(self):
        sys = boyer()
        r = free_energy_auto(sys, 0.0)
        assert r.value == zero_temperature_energy(sys)
        assert r.abs_err_est == 0.0

    def test_zero_temperature_energies(self):
        assert zero_temperature_energy(boyer(1.0)) == pytest.approx(
            0.875 * math.pi**2 / 720.0, rel=1e-15
        )
        assert zero_temperature_energy(conductor(1.0)) == pytest.approx(
            -math.pi**2 / 720.0, rel=1e-15
        )

    def test_plate_kind_coercion(self):
        assert PlateSystem(1.0, "boyer").kind is PlateKind.BOYER_MIXED
        assert PlateSystem(1.0, "conductor").kind is PlateKind.CONDUCTOR_CONDUCTOR


class TestConductorRepresentations:
    @pytest.mark.parametrize("xi", [0.1, 0.5, 1.0, 2.0])
    def test_single_equals_lattice(self, xi):
        a = f_conducting_single(xi, TIGHT)
        b = f_conducting_lattice(xi, TIGHT)
        assert a.value == pytest.approx(b.value, abs=1e-8 * max(1.0, abs(a.value)))

    def test_nontrivial_part_is_negative(self):
        for xi in (0.1, 0.5, 1.0, 2.0):
            assert f_nontrivial(xi, TIGHT).value < 0.0

    def test_conductor_low_T_closed_form(self):
        sys = conductor()
        t = ThermalPoint.from_xi(0.05, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "coth").value
        assert free_energy_low_T(sys, t) == pytest.approx(exact, rel=1e-5)

    def test_conductor_high_T_closed_form(self):
        sys = conductor()
        t = ThermalPoint.from_xi(2.0, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "coth").value
        assert free_energy_high_T(sys, t) == pytest.approx(exact, rel=1e-4)

    def test_boyer_high_T_is_conductor_difference(self):
        # F_boyer(d) = F_cond(2d) - F_cond(d) must survive the asymptotics
        d, xi = 1.0, 2.0
        tb = ThermalPoint.from_xi(xi, d)
        t2 = ThermalPoint.from_beta(tb.beta(d), 2.0 * d)
        lhs = free_energy_high_T(boyer(d), tb)
        rhs = free_energy_high_T(conductor(2.0 * d), t2) - free_energy_high_T(
            conductor(d), tb
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_boyer_low_T_matches_bessel(self):
        sys = boyer()
        t = ThermalPoint.from_xi(0.05, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "bessel").value
        assert free_energy_low_T(sys, t) == pytest.approx(exact, rel=1e-5)

    def test_boyer_high_T_matches_poisson(self):
        sys = boyer()
        t = ThermalPoint.from_xi(2.0, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "poisson").value
        assert free_energy_high_T(sys, t) == pytest.approx(exact, rel=1e-4)


class TestValidation:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_thermal_point_rejects_nonfinite(self, bad):
        with pytest.raises(DomainError, match="xi"):
            ThermalPoint(bad)
        with pytest.raises(DomainError, match="beta"):
            ThermalPoint.from_beta(bad, 1.0)
        with pytest.raises(DomainError, match="d must be finite"):
            PlateSystem(d=bad)
        with pytest.raises(DomainError, match="xi"):
            free_energy_auto(boyer(), bad)

    def test_beta_derived_from_xi(self):
        t = ThermalPoint.from_beta(2.0, 3.0)
        assert t.xi == 3.0 / (math.pi * 2.0)
        assert t.beta(3.0) == 3.0 / (math.pi * t.xi)
        assert ThermalPoint.from_xi(0.5, 7.0) == ThermalPoint(0.5)
        with pytest.raises(DomainError, match="xi"):
            ThermalPoint.from_beta(1e-320, 1.0)  # xi overflows

    def test_nonpositive_xi_or_beta(self):
        with pytest.raises(DomainError):
            ThermalPoint.from_beta(-1.0, 1.0)
        with pytest.raises(DomainError):
            ThermalPoint.from_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            ThermalPoint(xi=0.0)
        with pytest.raises(DomainError):
            ThermalPoint(xi=-0.5)
        with pytest.raises(DomainError):
            PlateSystem(d=0.0)
        with pytest.raises(DomainError):
            free_energy_auto(boyer(), -0.1)

    def test_bessel_unsupported_for_conductor(self):
        t = ThermalPoint.from_xi(0.5, 1.0)
        for rep in ("bessel", "double", "poisson", "mode-integral"):
            with pytest.raises(UnsupportedRepresentationError):
                evaluate_free_energy(conductor(), t, TIGHT, rep)

    def test_unknown_representation(self):
        t = ThermalPoint.from_xi(0.5, 1.0)
        with pytest.raises(ValueError):
            evaluate_free_energy(boyer(), t, TIGHT, "chebyshev")

    def test_error_estimates_bound_true_error(self):
        for rep in REPS:
            for xi in (0.1, 0.5, 2.0):
                ref = _mpmath_f_scaled(2.0 * xi) / 8.0 - _mpmath_f_scaled(xi)
                t = ThermalPoint.from_xi(xi, 1.0)
                r = evaluate_free_energy(boyer(), t, TIGHT, rep)
                assert abs(r.value - ref) <= 10.0 * r.abs_err_est + 1e-12 * abs(ref)
