import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plates import epstein
from casimir_plates.epstein import (
    EpsteinParams,
    epstein1_closed,
    epstein2_continued,
    epstein_direct,
)
from casimir_plates.errors import CasimirError, DomainError, PoleError
from casimir_plates.free_energy import SeriesControl

CTL = SeriesControl(rel_tol=1e-13)
# exponents of the continuation's properties, off its poles: z in [-3.3, 10.2]
_CONTINUATION_Z = (-3.3, -1.3, -0.7, 0.3, 0.8, 1.6, 2.5, 5.5, 10.2)

_SLOW_BESSEL_SUM = """
import math
from casimir_plates.epstein import epstein2_continued
from casimir_plates.errors import CasimirError
try:
    r = epstein2_continued(0.3, 1.0, 1e300)
except CasimirError:
    print("CasimirError")
else:
    print("finite" if math.isfinite(r.value) and math.isfinite(r.abs_err_est) else "nonfinite")
"""


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
        # E(z; a1, a2) = E(z; a2, a1): the continuation at the exchanged
        # coefficients against the direct lattice sum, a second computation
        v21 = epstein2_continued(2.0, 2.0, 1.0, CTL).value
        v12 = epstein_direct(EpsteinParams(2.0, (1.0, 2.0)), CTL).value
        assert v21 == pytest.approx(v12, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_homogeneity(self, lam):
        z = 2.2
        base = epstein2_continued(z, 1.0, 3.0, CTL).value
        scaled = epstein2_continued(z, lam, 3.0 * lam, CTL).value
        assert scaled == pytest.approx(lam**-z * base, rel=1e-10)
        d_base = epstein_direct(EpsteinParams(z, (1.0, 3.0)), CTL).value
        d_scaled = epstein_direct(EpsteinParams(z, (lam, 3.0 * lam)), CTL).value
        assert d_scaled == pytest.approx(lam**-z * d_base, rel=1e-10)

    @given(
        z=st.sampled_from([0.3, 0.8, 1.6, 2.0, 2.5, 3.0]),
        a1=st.floats(0.25, 4.0),
        a2=st.floats(0.25, 4.0),
        log_s=st.floats(math.log(1e-6), math.log(1e6)),
    )
    @example(z=2.0, a1=1.0, a2=1.0, log_s=math.log(1e-4))
    @example(z=2.0, a1=1.0, a2=1.0, log_s=math.log(1e-6))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_within_the_bars(self, z, a1, a2, log_s):
        # E(z; s a1, s a2) = s^-z E(z; a1, a2): the Bessel sum's prefactor
        # scales like s^-(z/2 + 1/4), so a stop rule on the bare terms
        # stops early (s << 1) or late (s >> 1); no slack on the bars
        s = math.exp(log_s)
        base = epstein2_continued(z, a1, a2, CTL)
        scaled = epstein2_continued(z, s * a1, s * a2, CTL)
        q = s**-z
        assert abs(scaled.value - q * base.value) <= scaled.abs_err_est + q * base.abs_err_est

    @given(
        z=st.sampled_from(_CONTINUATION_Z),
        log_ratio=st.floats(0.0, math.log(1e8)),
    )
    @example(z=0.3, log_ratio=math.log(1e8))
    @example(z=1.6, log_ratio=math.log(1e8))
    @example(z=10.2, log_ratio=math.log(1e8))
    @settings(max_examples=30, deadline=None)
    def test_exchange_within_the_bars(self, z, log_ratio):
        # E(z; 1, r) = E(z; r, 1): in either argument order the value is
        # within its own bar of the 40-digit continuation; no slack.  The
        # reference sums with the larger coefficient first, where its Bessel
        # sum is short
        r = math.exp(log_ratio)
        ref = _mpmath_e2(z, r, 1.0)
        for a1, a2 in ((1.0, r), (r, 1.0)):
            got = epstein2_continued(z, a1, a2)
            assert abs(got.value - ref) <= got.abs_err_est, (a1, a2)

    @pytest.mark.parametrize("z", _CONTINUATION_Z)
    def test_larger_coefficient_summed_first(self, z):
        # with a2/a1 = 1e8 the Bessel sum in the given order would fall by
        # exp(-2 pi 1e-4) per term; exchanged it falls by exp(-2 pi 1e4)
        assert epstein2_continued(z, 1.0, 1e8).terms_used <= 20

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

    def test_slow_bessel_sum_ends_in_bounded_time(self):
        # sqrt(a1/a2) = 1e-150: in this order the Bessel terms would barely
        # decay, so the sum must run exchanged, or at least stop at
        # max_terms without re-summing the terms taken.  A child
        # interpreter, so that a hang fails here after 30 s
        src = os.path.dirname(os.path.dirname(os.path.abspath(epstein.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        r = subprocess.run([sys.executable, "-c", _SLOW_BESSEL_SUM],
                           capture_output=True, text=True, env=env, timeout=30)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split()[0] in ("finite", "CasimirError")

    def test_vanishing_prefactor_ends_at_once(self):
        # sqrt(a1/a2) = 1e-150 and, in this order, a Bessel-sum prefactor of
        # ~1e-120: each term is far below the value, but ~1e149 of them add
        # up to about 1e60, the value itself.  It must end, either way,
        # within a second
        epstein2_continued(2.0, 1.0, 4.0)  # scipy loaded before the clock starts
        t0 = time.perf_counter()
        try:
            r = epstein2_continued(0.3, 1.0, 1e300)
        except CasimirError:
            pass
        else:
            assert math.isfinite(r.value) and math.isfinite(r.abs_err_est)
        assert time.perf_counter() - t0 < 1.0

    def test_too_slow_bessel_sum_is_summed_exchanged(self):
        # sqrt(a1/a2) = 1e-150: the first row could not converge within
        # max_terms, so the sum runs with a1 and a2 exchanged; there every
        # Bessel term is exp(-2 pi 1e150) = 0, and the value is the closed-form
        # head, about 4e59 (not the head of the unexchanged form, about 1)
        r = epstein2_continued(0.3, 1.0, 1e300)
        assert r == epstein2_continued(0.3, 1e300, 1.0)
        with mpmath.workdps(30):
            z, a = mpmath.mpf(0.3), mpmath.mpf(1e300)
            head = -(a**-z) / 2 * mpmath.zeta(2 * z) + mpmath.sqrt(mpmath.pi) / 2 * (
                mpmath.gamma(z - 0.5) / mpmath.gamma(z) * a ** (0.5 - z) * mpmath.zeta(2 * z - 1))
            assert abs(r.value - head) <= r.abs_err_est
        assert r.value == pytest.approx(float(head), rel=1e-12)

    @pytest.mark.parametrize("z,a1,a2", [(3.0, 1.0, 1e-300)], ids=["prefactor"])
    def test_nonfinite_result_is_a_domain_error(self, z, a1, a2):
        # a2^(z/2 + 1/4) underflows, so the prefactor divides by zero
        with pytest.raises(DomainError, match="not finite"):
            epstein2_continued(z, a1, a2, CTL)

    def test_underflowing_coefficient_ratio_is_the_head(self):
        # a1/a2 = 1e-600 underflows, but E_2 is finite: summed with
        # a1 = 1e300 first, every Bessel term is exp(-2 pi 1e300) = 0 and
        # the value is the closed-form head, about 4.26e209
        r = epstein2_continued(0.3, 1e-300, 1e300, CTL)
        with mpmath.workdps(30):
            z, a1, a2 = mpmath.mpf(0.3), mpmath.mpf(1e300), mpmath.mpf(1e-300)
            head = -(a1**-z) / 2 * mpmath.zeta(2 * z) + mpmath.sqrt(mpmath.pi / a2) / 2 * (
                mpmath.gamma(z - 0.5) / mpmath.gamma(z) * a1 ** (0.5 - z) * mpmath.zeta(2 * z - 1))
            assert abs(r.value - head) <= r.abs_err_est
        assert r.value == pytest.approx(float(head), rel=1e-12)

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
