import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from casimir_plates.errors import DomainError
from casimir_plates.specfun import (
    ZETA3,
    SeriesControl,
    coth_stable,
    inv_sinh_stable,
    macdonald_half,
    riemann_zeta,
)


class TestRiemannZeta:
    def test_classical_values(self):
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
        assert riemann_zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-13)
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)

    def test_negative_odd(self):
        # reflection formula against the Bernoulli value
        assert riemann_zeta(-3.0) == pytest.approx(1.0 / 120.0, rel=1e-12)
        assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-12)

    @pytest.mark.parametrize("s", [-5.0, -3.0, -1.0])
    def test_reflection_residual(self, s):
        rhs = (
            2.0**s
            * math.pi ** (s - 1.0)
            * math.sin(0.5 * math.pi * s)
            * math.gamma(1.0 - s)
            * riemann_zeta(1.0 - s)
        )
        assert abs(riemann_zeta(s) - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("s", [-2.5, -0.5, 0.3, 0.5, 1.5, 2.2, 3.0, 7.5])
    def test_against_mpmath(self, s):
        ref = float(mpmath.zeta(s))
        assert riemann_zeta(s) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300.0, -150.0))
    def test_far_negative_against_mpmath(self, s):
        # the reflection's product in log space where Gamma(1 - s) alone
        # overflows (s < -170.6): finite down to about s = -260, then a
        # DomainError.  Near a trivial zero the rounding of pi s/2 moves
        # sin by up to |s| eps, a relative error of about |s| eps |cot|.
        with mpmath.workdps(30):
            ref = mpmath.zeta(s)
            cot = abs(mpmath.cot(mpmath.pi * s / 2)) if ref else 0
        if abs(ref) > 1.8e308:
            with pytest.raises(DomainError):
                riemann_zeta(s)
            return
        if abs(ref) > 1.79e308:  # within the rounding of the float limit
            return
        got = riemann_zeta(s)
        tol = 1e-12 + 8.0 * abs(s) * 2.0**-52 * float(cot)
        assert abs(got - ref) <= tol * abs(ref) or abs(got - ref) <= 1e-300

    def test_zeta3_constant_is_correctly_rounded(self):
        # the kernel's ZETA3 is a literal, so that no zeta runs at import;
        # riemann_zeta(3.0) itself may be off by an ulp
        assert ZETA3 == float(mpmath.zeta(3))
        assert abs(riemann_zeta(3.0) - ZETA3) <= math.ulp(ZETA3)

    def test_trivial_zeros(self):
        assert riemann_zeta(-2.0) == pytest.approx(0.0, abs=1e-14)

    def test_pole(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)


class TestMacdonaldHalf:
    def test_closed_values(self):
        assert macdonald_half(0, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.e**-1, rel=1e-14
        )
        assert macdonald_half(1, 1.0) == pytest.approx(
            2.0 * math.sqrt(math.pi / 2.0) * math.e**-1, rel=1e-14
        )
        assert macdonald_half(1, 10.0) == pytest.approx(
            math.sqrt(math.pi / 20.0) * math.exp(-10.0) * 1.1, rel=1e-14
        )

    @pytest.mark.parametrize("n", range(0, 7))
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_against_scipy(self, n, z):
        assert macdonald_half(n, z) == pytest.approx(
            float(special.kv(n + 0.5, z)), rel=1e-12
        )

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
    def test_recurrence(self, n, z):
        nu = n + 0.5
        lhs = macdonald_half(n + 1, z) - macdonald_half(n - 1, z)
        rhs = 2.0 * nu / z * macdonald_half(n, z)
        assert abs(lhs - rhs) <= 1e-12 * macdonald_half(n + 1, z)

    def test_underflow_is_exact_zero(self):
        assert macdonald_half(0, 1e4) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            macdonald_half(0, 0.0)
        with pytest.raises(DomainError):
            macdonald_half(0, -1.0)


class TestHyperbolicKernels:
    def test_values(self):
        assert coth_stable(1.0) == pytest.approx(1.3130352855, abs=5e-11)
        assert inv_sinh_stable(1.0) == pytest.approx(0.8509181282, abs=5e-11)

    def test_large_argument(self):
        assert coth_stable(50.0) == pytest.approx(1.0, abs=1e-15)
        assert inv_sinh_stable(50.0) == pytest.approx(2.0 * math.exp(-50.0), rel=1e-14)
        # no overflow far beyond float range of cosh/sinh
        assert coth_stable(1e4) == 1.0
        assert inv_sinh_stable(1e4) == 0.0

    def test_small_argument(self):
        x = 1e-6
        assert coth_stable(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-12)
        assert inv_sinh_stable(x) == pytest.approx(1.0 / x - x / 6.0, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 700.0])
    def test_pythagorean_identity(self, x):
        # coth^2 - 1/sinh^2 = 1, stated as (coth - 1)(coth + 1) = 1/sinh^2
        # so the comparison stays meaningful where coth ~ 1/x >> 1
        c, s = coth_stable(x), inv_sinh_stable(x)
        assert (c - 1.0) * (c + 1.0) == pytest.approx(s * s, rel=1e-12)
        if x >= 0.1:
            assert c * c - s * s == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        for fn in (coth_stable, inv_sinh_stable):
            with pytest.raises(DomainError):
                fn(0.0)


class TestSeriesControl:
    def test_defaults(self):
        ctl = SeriesControl()
        assert ctl.rel_tol == 1e-12
        assert ctl.max_terms == 10**6
        assert ctl.min_terms == 8

    def test_validation(self):
        with pytest.raises(DomainError):
            SeriesControl(rel_tol=0.0)
        with pytest.raises(DomainError):
            SeriesControl(min_terms=10, max_terms=5)
