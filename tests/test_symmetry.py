"""Temperature-inversion symmetry (TIS), the conductor-pair split of the
mixed-plate free energy, and the lattice-sum identities behind the Poisson
resummation."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import (
    DomainError,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
    evaluate_free_energy,
    zero_temperature_energy,
)
from casimir_plates.symmetry import (
    XI_FIXED_F1,
    XI_FIXED_F2,
    XI_FIXED_NONTRIVIAL,
    f1_eval,
    f2_eval,
    identity_alternating,
    identity_plain,
    low_T_from_high_T,
    sb_to_casimir,
    tis_residual_boyer_naive,
    tis_residual_f1,
    tis_residual_f2,
    tis_residual_nontrivial,
)

TIGHT = SeriesControl(rel_tol=1e-14)
GRID = (0.1, 0.3, 0.5, 1.0, 2.0)


class TestSplit:
    @pytest.mark.parametrize("xi", GRID)
    def test_split_reconstructs_boyer(self, xi):
        d = 1.0
        r1, r2 = f1_eval(xi, d, TIGHT), f2_eval(xi, d, TIGHT)
        t = ThermalPoint.from_xi(xi, d)
        direct = evaluate_free_energy(PlateSystem(d), t, TIGHT).value
        assert r1.value - r2.value == pytest.approx(direct, abs=1e-8 * max(1.0, abs(direct)))
        assert abs((r1.value - r2.value) - direct) <= 10.0 * (
            r1.abs_err_est + r2.abs_err_est + 1e-12
        )

    @pytest.mark.parametrize("xi", GRID)
    def test_lattice_rep_equals_split(self, xi):
        d = 1.0
        split = f1_eval(xi, d, TIGHT).value - f2_eval(xi, d, TIGHT).value
        t = ThermalPoint.from_xi(xi, d)
        lat = evaluate_free_energy(PlateSystem(d), t, TIGHT, "lattice").value
        assert split == pytest.approx(lat, abs=1e-8 * max(1.0, abs(lat)))

    def test_split_zero_T_limits(self):
        xi = 0.001
        assert f1_eval(xi, 1.0, TIGHT).value == pytest.approx(
            -math.pi**2 / 5760.0, rel=1e-5
        )
        assert f2_eval(xi, 1.0, TIGHT).value == pytest.approx(
            -math.pi**2 / 720.0, rel=1e-5
        )

    def test_split_high_T_limits(self):
        # F1 -> -2 pi^2 d/(45 beta^4), F2 -> -pi^2 d/(45 beta^4)
        xi, d = 20.0, 1.0
        beta = d / (math.pi * xi)
        assert f1_eval(xi, d, TIGHT).value == pytest.approx(
            -2.0 * math.pi**2 * d / (45.0 * beta**4), rel=1e-4
        )
        assert f2_eval(xi, d, TIGHT).value == pytest.approx(
            -math.pi**2 * d / (45.0 * beta**4), rel=1e-4
        )


class TestTemperatureInversion:
    @pytest.mark.parametrize("xi", GRID)
    def test_f1_residual(self, xi):
        assert tis_residual_f1(xi, 1.0, TIGHT) < 1e-8

    @pytest.mark.parametrize("xi", GRID)
    def test_f2_residual(self, xi):
        assert tis_residual_f2(xi, 1.0, TIGHT) < 1e-8

    @pytest.mark.parametrize("xi", GRID)
    def test_nontrivial_residual(self, xi):
        assert tis_residual_nontrivial(xi, TIGHT) < 1e-9

    def test_fixed_points(self):
        assert XI_FIXED_F1 == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
        assert XI_FIXED_F2 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert XI_FIXED_NONTRIVIAL == XI_FIXED_F2
        # the maps are exactly the identity at their fixed points
        assert 1.0 / (16.0 * math.pi**2 * XI_FIXED_F1) == pytest.approx(
            XI_FIXED_F1, rel=1e-15
        )
        assert 1.0 / (4.0 * math.pi**2 * XI_FIXED_F2) == pytest.approx(
            XI_FIXED_F2, rel=1e-15
        )
        assert tis_residual_f1(XI_FIXED_F1, 1.0, TIGHT) < 1e-12
        assert tis_residual_f2(XI_FIXED_F2, 1.0, TIGHT) < 1e-12
        assert tis_residual_nontrivial(XI_FIXED_NONTRIVIAL, TIGHT) < 1e-12

    def test_naive_boyer_map_fails(self):
        # the full Boyer difference does not transform under either map
        assert tis_residual_boyer_naive(0.5, 1.0, TIGHT) > 1e-2

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.1, max_value=2.0))
    def test_residuals_small_everywhere(self, xi):
        assert tis_residual_f1(xi, 1.0) < 1e-7
        assert tis_residual_f2(xi, 1.0) < 1e-7


class TestLatticeIdentities:
    @pytest.mark.parametrize("b", [0.3, 1.0, 5.0])
    def test_alternating_identity(self, b):
        lhs, rhs = identity_alternating(b, TIGHT)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    def test_alternating_identity_small_b(self):
        # lhs ~ 1/b^4 = 1.6e5; the machine floor is ~1e-11 absolute
        lhs, rhs = identity_alternating(0.05, TIGHT)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_alternating_identity_large_b(self):
        lhs, rhs = identity_alternating(20.0, TIGHT)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("b", [0.05, 0.3, 1.0, 5.0, 20.0])
    def test_plain_identity(self, b):
        lhs, rhs = identity_plain(b, TIGHT)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_plain_identity_large_b_limit(self):
        # coth -> 1, csch -> 0: the sum tends to pi/(2 b^3)
        b = 10.0
        lhs, _ = identity_plain(b, TIGHT)
        assert lhs == pytest.approx(math.pi / (2.0 * b**3), rel=1e-12)

    @pytest.mark.parametrize("b", [0.2, 0.7, 3.0])
    def test_identities_against_mpmath(self, b):
        with mpmath.workdps(30):
            alt = float(
                mpmath.nsum(
                    lambda m: (-1) ** m / (m * m + b * b) ** 2,
                    [-mpmath.inf, mpmath.inf],
                )
            )
            plain = float(
                mpmath.nsum(
                    lambda m: 1 / (m * m + b * b) ** 2, [-mpmath.inf, mpmath.inf]
                )
            )
        lhs_a, rhs_a = identity_alternating(b, TIGHT)
        lhs_p, rhs_p = identity_plain(b, TIGHT)
        assert lhs_a == pytest.approx(alt, rel=1e-11)
        assert rhs_a == pytest.approx(alt, rel=1e-11)
        assert lhs_p == pytest.approx(plain, rel=1e-11)
        assert rhs_p == pytest.approx(plain, rel=1e-11)

    @pytest.mark.parametrize("b", [0.05, 0.3, 1.0, 5.0, 20.0])
    def test_plain_direct_side_to_rounding(self, b):
        # the Euler-Maclaurin closure of the tail leaves only rounding,
        # against the closed form at 40 digits
        lhs, _ = identity_plain(b, TIGHT)
        with mpmath.workdps(40):
            u = mpmath.pi * b
            ref = (mpmath.pi * mpmath.coth(u) / (2 * mpmath.mpf(b) ** 3)
                   + mpmath.pi**2 / (2 * mpmath.mpf(b) ** 2 * mpmath.sinh(u) ** 2))
        assert abs(lhs - float(ref)) <= 2e-15 * float(ref)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=30.0))
    def test_identities_hypothesis(self, b):
        lhs, rhs = identity_alternating(b)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-13)
        lhs, rhs = identity_plain(b)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestLimitMaps:
    def test_sb_to_casimir_closed_forms(self):
        r = sb_to_casimir()
        assert r["f1_zero_T"] == pytest.approx(-math.pi**2 / 5760.0, rel=1e-15)
        assert r["f2_zero_T"] == pytest.approx(-math.pi**2 / 720.0, rel=1e-15)
        assert r["boyer_zero_T_from_TIS"] == pytest.approx(
            0.875 * math.pi**2 / 720.0, rel=1e-15
        )
        assert r["boyer_zero_T_from_TIS"] == pytest.approx(r["direct"], rel=1e-15)
        assert r["direct"] == zero_temperature_energy(PlateSystem(1.0))

    def test_low_T_from_high_T_consistency(self):
        r = low_T_from_high_T(0.05)
        assert r["mapped"] == pytest.approx(r["direct_low_T"], rel=1e-12)

    def test_low_T_map_matches_series(self):
        d = 1.0
        for xi, rtol in ((0.05, 1e-5), (0.1, 1e-3)):
            t = ThermalPoint.from_xi(xi, d)
            exact = evaluate_free_energy(PlateSystem(d), t, TIGHT, "bessel").value
            assert low_T_from_high_T(xi)["mapped"] == pytest.approx(exact, rel=rtol)


class TestValidation:
    def test_domains(self):
        with pytest.raises(DomainError):
            identity_alternating(0.0)
        with pytest.raises(DomainError):
            identity_plain(-1.0)
        with pytest.raises(DomainError):
            low_T_from_high_T(0.0)
        with pytest.raises(DomainError):
            f1_eval(-0.5, 1.0)
