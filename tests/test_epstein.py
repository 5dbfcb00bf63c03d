import math
import time

import mpmath
import numpy as np
import pytest

from casimir_plates.epstein import (
    EpsteinParams,
    epstein1_closed,
    epstein2_continued,
    epstein_direct,
)
from casimir_plates.errors import DomainError, PoleError
from casimir_plates.specfun import SeriesControl

CTL = SeriesControl(rel_tol=1e-13)


def brute_e2(z: float, a1: float, a2: float, n_cut: int = 1600) -> float:
    """Brute-force quadrant sum, Richardson-extrapolated in the cutoff.

    The truncation residual scales like N^-(2z-2); eliminating that
    leading power from two cutoffs leaves ~1e-10 absolute error at z = 2.
    """

    def head(n_max):
        n = np.arange(1, n_max + 1, dtype=float)
        q = a1 * n[:, None] ** 2 + a2 * n[None, :] ** 2
        return float(np.sum(q**-z))

    s1, s2 = head(n_cut), head(2 * n_cut)
    return s2 + (s2 - s1) / (2.0 ** (2.0 * z - 2.0) - 1.0)


class TestDirect:
    def test_reduces_to_zeta(self):
        assert epstein_direct(EpsteinParams(1.0, (1.0,)), CTL).value == pytest.approx(
            math.pi**2 / 6.0, rel=1e-12
        )
        assert epstein_direct(EpsteinParams(1.0, (4.0,)), CTL).value == pytest.approx(
            math.pi**2 / 24.0, rel=1e-12
        )

    def test_square_lattice_closed_form(self):
        # quadrant sum over (n^2+m^2)^-2 equals zeta(2) beta(2) - zeta(4)
        # via the full-lattice factorization with the Dirichlet beta function
        catalan = float(mpmath.catalan)
        ref = (math.pi**2 / 6.0) * catalan - math.pi**4 / 90.0
        got = epstein_direct(EpsteinParams(2.0, (1.0, 1.0)), CTL)
        assert got.value == pytest.approx(ref, abs=1e-11)

    @pytest.mark.parametrize("z,a1,a2", [(2.0, 1.0, 1.0), (2.0, 1.0, 4.0), (2.5, 0.25, 1.0)])
    def test_against_bruteforce(self, z, a1, a2):
        got = epstein_direct(EpsteinParams(z, (a1, a2)), CTL).value
        assert got == pytest.approx(brute_e2(z, a1, a2), abs=5e-9)

    def test_three_dimensional(self):
        n = np.arange(1, 200, dtype=float)
        q = (
            n[:, None, None] ** 2
            + 2.0 * n[None, :, None] ** 2
            + 3.0 * n[None, None, :] ** 2
        )
        ref = float(np.sum(q**-4.0))
        # the nested recursion counts every leaf term, so the 3D budget
        # is far larger than the 2D default
        ctl = SeriesControl(rel_tol=1e-10, max_terms=10**8)
        got = epstein_direct(EpsteinParams(4.0, (1.0, 2.0, 3.0)), ctl).value
        assert got == pytest.approx(ref, abs=1e-12)

    def test_inhomogeneous(self):
        n = np.arange(1, 4000, dtype=float)
        ref = float(np.sum((n**2 + 2.5) ** -2.0))
        got = epstein_direct(EpsteinParams(2.0, (1.0,), m2=2.5), CTL).value
        assert got == pytest.approx(ref, abs=1e-10)

    def test_convergence_region_enforced(self):
        with pytest.raises(DomainError):
            epstein_direct(EpsteinParams(1.0, (1.0, 1.0)), CTL)
        with pytest.raises(DomainError):
            epstein_direct(EpsteinParams(0.5, (1.0,)), CTL)


class TestClosedE1:
    def test_values(self):
        assert epstein1_closed(1.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert epstein1_closed(2.0, 1.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-12)
        assert epstein1_closed(-1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_scaling(self):
        assert epstein1_closed(1.5, 4.0) == pytest.approx(
            4.0**-1.5 * epstein1_closed(1.5, 1.0), rel=1e-13
        )

    def test_pole(self):
        with pytest.raises(DomainError):
            epstein1_closed(0.5, 1.0)


class TestContinuation:
    @pytest.mark.parametrize("z", [1.6, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("a", [(1.0, 1.0), (1.0, 4.0), (0.25, 1.0)])
    def test_overlap_with_direct(self, z, a):
        direct = epstein_direct(EpsteinParams(z, a), CTL)
        cont = epstein2_continued(z, a[0], a[1], CTL)
        assert abs(cont.value - direct.value) <= 1e-9
        assert abs(cont.value - direct.value) <= 10.0 * (
            cont.abs_err_est + direct.abs_err_est
        )

    def test_exchange_symmetry(self):
        v12 = epstein2_continued(2.0, 1.0, 2.0, CTL).value
        v21 = epstein2_continued(2.0, 2.0, 1.0, CTL).value
        assert v12 == pytest.approx(v21, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_homogeneity(self, lam):
        z = 2.2
        base = epstein2_continued(z, 1.0, 3.0, CTL).value
        scaled = epstein2_continued(z, lam, 3.0 * lam, CTL).value
        assert scaled == pytest.approx(lam**-z * base, rel=1e-10)
        d_base = epstein_direct(EpsteinParams(z, (1.0, 3.0)), CTL).value
        d_scaled = epstein_direct(EpsteinParams(z, (lam, 3.0 * lam)), CTL).value
        assert d_scaled == pytest.approx(lam**-z * d_base, rel=1e-10)

    def test_below_convergence_region(self):
        # z = 0.8 < N/2: only the continuation can reach it; pin against a
        # high-precision mpmath evaluation of the same continuation formula
        got = epstein2_continued(0.8, 1.0, 1.0, CTL).value
        ref = _mpmath_e2(0.8, 1.0, 1.0)
        assert got == pytest.approx(ref, rel=1e-11)

    def test_poles(self):
        with pytest.raises(PoleError):
            epstein2_continued(1.0, 1.0, 1.0, CTL)
        with pytest.raises(PoleError):
            epstein2_continued(0.5, 1.0, 1.0, CTL)
        with pytest.raises(PoleError):
            epstein2_continued(0.0, 1.0, 1.0, CTL)
        with pytest.raises(PoleError):
            epstein2_continued(-2.0, 1.0, 1.0, CTL)

    @pytest.mark.parametrize("z", [-0.5, -1.5, -2.5])
    def test_negative_half_integers_end_at_once(self, z):
        # Gamma(z - 1/2) meets a trivial zero of zeta(2z - 1) there, so the
        # closed-form head is 0 * inf, and no stop test on it can pass
        t0 = time.perf_counter()
        with pytest.raises(PoleError):
            epstein2_continued(z, 1.0, 4.0, CTL)
        assert time.perf_counter() - t0 < 1.0

    def test_nonfinite_head_ends_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="head"):
            epstein2_continued(-200.3, 1.0, 4.0, CTL)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize(
        "z,a1,a2", [(0.3, 1e-300, 1e300), (3.0, 1.0, 1e-300)],
        ids=["bessel-sum", "prefactor"],
    )
    def test_nonfinite_result_is_a_domain_error(self, z, a1, a2):
        # sqrt(a1/a2) underflows, so every Bessel term is K(0) = inf; and
        # a2^(z/2 + 1/4) underflows, so the prefactor divides by zero
        with pytest.raises(DomainError, match="not finite"):
            epstein2_continued(z, a1, a2, CTL)

    def test_domain(self):
        with pytest.raises(DomainError):
            epstein2_continued(2.0, -1.0, 1.0, CTL)
        with pytest.raises(DomainError):
            epstein2_continued(2.0, 1.0, 0.0, CTL)


def _mpmath_e2(z, a1, a2):
    """Independent high-precision evaluation of the N = 2 continuation."""
    with mpmath.workdps(40):
        z_, a1_, a2_ = mpmath.mpf(z), mpmath.mpf(a1), mpmath.mpf(a2)
        nu = z_ - mpmath.mpf(1) / 2
        term1 = -(a1_**-z_) / 2 * mpmath.zeta(2 * z_)
        term2 = (
            mpmath.sqrt(mpmath.pi / a2_)
            / 2
            * mpmath.gamma(nu)
            / mpmath.gamma(z_)
            * a1_**-nu
            * mpmath.zeta(2 * nu)
        )
        def bessel_part():
            # exp(-2 pi n m sqrt(a1/a2)) decay: arguments beyond ~120 are
            # below the working precision
            cut = 120.0 / (2 * math.pi * math.sqrt(a1 / a2))
            s = mpmath.mpf(0)
            for n in range(1, int(cut) + 2):
                for m in range(1, int(cut / n) + 2):
                    s += (
                        m**nu
                        * (mpmath.sqrt(a1_) * n) ** -nu
                        * mpmath.besselk(nu, 2 * mpmath.pi * n * m * mpmath.sqrt(a1_ / a2_))
                    )
            return s
        term3 = (
            2
            * mpmath.pi**z_
            / (mpmath.gamma(z_) * a2_ ** (z_ / 2 + mpmath.mpf(1) / 4))
            * bessel_part()
        )
        return float(term1 + term2 + term3)
