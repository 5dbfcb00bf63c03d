"""Epstein zeta functions over positive-integer lattices.

``epstein_direct`` evaluates the defining sum

    E_N(z; a_1..a_N, M^2) = sum_{n_1..n_N >= 1} (a_1 n_1^2 + ... + M^2)^(-z)

for z > N/2.  The truncated lattice sum is closed with the comparison
integral of the tail plus Euler-Maclaurin boundary corrections, which is
what makes sub-1e-10 absolute accuracy reachable for exponents barely
inside the convergence region.

``epstein2_continued`` is the meromorphic continuation for N = 2, M^2 = 0,
whose Bessel double sum, taken with the larger coefficient first, converges
everywhere at least like exp(-2 pi n m).

scipy (``betainc``, ``quad``, ``kv``, ``gammaln``) is imported on first use,
inside the functions that call it, so importing this module is cheap; the
results are returned as Python floats.
"""
from __future__ import annotations

import math
import warnings

from .errors import ConvergenceError, DomainError, PoleError
from .free_energy import _DEFAULT_CTL, _MAX, EvalResult, SeriesControl, _record
from .specfun import riemann_zeta

__all__ = [
    "EpsteinParams",
    "epstein_direct",
    "epstein1_closed",
    "epstein2_continued",
]


class EpsteinParams(_record("EpsteinParams", "z a m2")):
    """Exponent, quadratic-form coefficients and inhomogeneity M^2."""

    __slots__ = ()

    def __new__(cls, z: float, a: tuple[float, ...], m2: float = 0.0):
        if len(a) < 1:
            raise DomainError("need at least one lattice coefficient")
        if any(c <= 0.0 for c in a):
            raise DomainError("lattice coefficients must be positive")
        if m2 < 0.0:
            raise DomainError("M^2 must be nonnegative")
        if not all(-_MAX <= v <= _MAX for v in (z, *a, m2)):
            raise DomainError("z, the lattice coefficients and M^2 must be finite")
        return tuple.__new__(cls, (z, a, m2))


def _tail_integral_1d(z: float, a: float, c: float, x0: float) -> float:
    """Closed form of int_{x0}^inf (a x^2 + c)^(-z) dx for z > 1/2."""
    from scipy import special

    if c == 0.0:
        return a ** (-z) * x0 ** (1.0 - 2.0 * z) / (2.0 * z - 1.0)
    u0 = c / (c + a * x0 * x0)
    return (
        0.5
        / math.sqrt(a)
        * c ** (0.5 - z)
        * special.beta(z - 0.5, 0.5)
        * special.betainc(z - 0.5, 0.5, u0)
    )


class _LatticeSum:
    """Recursive lattice summation engine with per-axis EM tail closure.

    The innermost level is the bare power (a n^2 + c)^(-z); every outer
    level sums the level below over its own index, closing the tail with
    the comparison integral and the first Euler-Maclaurin corrections.
    Derivatives of the summand reduce to the same lattice sum at shifted
    exponents z+1, z+2, z+3, so no numerical differentiation is involved.
    """

    def __init__(self, ctl: SeriesControl):
        self.ctl = ctl
        self.terms = 0
        self.quad_err = 0.0

    def value(self, z: float, a: tuple, c: float) -> float:
        if not a:
            self.terms += 1
            return c ** (-z)
        return self._axis(z, a, c)

    def _odd_derivatives(self, z, rest, an, x0, u):
        """g', g''', g^(5), g^(7) of g(x) = E(z, rest; u(x)), u = c + a x^2.

        d/du E(z, u) = -z E(z+1, u), so the chain rule turns every x
        derivative into a combination of shifted-exponent lattice sums.
        """
        h = [0.0] * 8       # h[j] = (d/du)^j E(z; u)
        sgn_poch = 1.0
        h[0] = self.value(z, rest, u)
        for j in range(1, 8):
            sgn_poch *= -(z + j - 1.0)
            h[j] = sgn_poch * self.value(z + j, rest, u)
        # chain rule with u' = 2 a x0, u'' = 2 a and u''' = 0
        up, us = 2.0 * an * x0, 2.0 * an
        g1 = h[1] * up
        g3 = h[3] * up**3 + 3.0 * h[2] * up * us
        g5 = h[5] * up**5 + 10.0 * h[4] * up**3 * us + 15.0 * h[3] * up * us**2
        g7 = (
            h[7] * up**7
            + 21.0 * h[6] * up**5 * us
            + 105.0 * h[5] * up**3 * us**2
            + 105.0 * h[4] * up * us**3
        )
        return h[0], g1, g3, g5, g7

    def _axis(self, z: float, a: tuple, c: float) -> float:
        an = a[-1]
        rest = a[:-1]
        tol = 0.25 * self.ctl.rel_tol
        n0 = max(self.ctl.min_terms, 12)
        while True:
            if self.terms > self.ctl.max_terms:
                raise ConvergenceError("epstein lattice sum exhausted max_terms")
            head = math.fsum(
                self.value(z, rest, c + an * n * n) for n in range(1, n0 + 1)
            )
            x0 = n0 + 1.0
            u = c + an * x0 * x0
            if rest:
                from scipy import integrate

                with warnings.catch_warnings():
                    # near the roundoff floor quad reports its own limitation
                    # (at xi ~ 1e5..1e7 in the free-energy lattice); its
                    # error estimate still enters the bar through quad_err
                    warnings.simplefilter("ignore", integrate.IntegrationWarning)
                    integral, qerr = integrate.quad(
                        lambda x: self.value(z, rest, c + an * x * x),
                        x0,
                        math.inf,
                        epsabs=1e-300,
                        epsrel=1e-12,
                        limit=200,
                    )
                self.quad_err += qerr
            else:
                integral = _tail_integral_1d(z, an, c, x0)
            g0, g1, g3, g5, g7 = self._odd_derivatives(z, rest, an, x0, u)
            # Euler-Maclaurin: sum_{n=x0}^inf g(n), B2..B8 corrections
            em_last = g7 / 1209600.0
            total = (
                head
                + integral
                + 0.5 * g0
                - g1 / 12.0
                + g3 / 720.0
                - g5 / 30240.0
                + em_last
            )
            if abs(em_last) <= tol * abs(total) or total == 0.0:
                return total
            n0 *= 2


def epstein_direct(p: EpsteinParams, ctl: SeriesControl | None = None) -> EvalResult:
    """Defining lattice sum of E_N in its convergence region z > N/2."""
    ctl = ctl or _DEFAULT_CTL
    n_dim = len(p.a)
    if p.z <= 0.5 * n_dim:
        raise DomainError(
            f"epstein_direct requires z > N/2 = {0.5 * n_dim}; got z = {p.z}"
        )
    eng = _LatticeSum(ctl)
    try:
        value = float(eng.value(p.z, p.a, p.m2))  # a Python float, not a numpy scalar
    except OverflowError:
        value = math.inf
    err = eng.quad_err + ctl.rel_tol * abs(value)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the lattice sum at {p!r} is outside the floating-point range")
    return EvalResult(value=value, abs_err_est=err, terms_used=eng.terms, rep="lattice")


def epstein1_closed(z: float, a: float) -> float:
    """E_1(z; a) = a^(-z) zeta(2z), valid on the whole continuation; a value
    past the float range is a DomainError."""
    if not a > 0.0:
        raise DomainError("epstein1_closed requires a > 0")
    if z == 0.5:
        raise PoleError("E_1 has a pole at z = 1/2", location=0.5)
    try:
        value = math.pow(a, -z) * riemann_zeta(2.0 * z)  # in floats, also for integers
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"E_1 at z={z!r}, a={a!r} is outside the floating-point range")
    return value


def _gamma_ratio(num: float, den: float) -> float:
    """Gamma(num)/Gamma(den) in log space, with sign tracking."""
    from scipy import special

    sign = float(special.gammasgn(num) * special.gammasgn(den))
    return sign * math.exp(special.gammaln(num) - special.gammaln(den))


def _geometric_tail(x: float) -> float:
    """exp(-x) / (1 - exp(-x)): the tail after a term of a series that falls
    by exp(-x) per term, in units of that term; 0 where exp(-x) underflows."""
    return math.exp(-x) / -math.expm1(-x)


def epstein2_continued(
    z: float, a1: float, a2: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """Meromorphic continuation of E_2(z; a1, a2) for M^2 = 0.

    E_2 is symmetric in a1 and a2, and the sum runs with the larger
    coefficient as a1 (Chowla and Selberg), so that its Bessel double sum
    decays like exp(-w n m) with w = 2 pi sqrt(a1/a2) >= 2 pi: a call with
    a1 < a2 is the call with the two exchanged.  The double sum is
    truncated adaptively on geometric tail estimates: each row to a tenth
    of rel_tol of the row, the rows to a tenth of rel_tol of the value.
    Gamma ratios are computed in log space.
    """
    ctl = ctl or _DEFAULT_CTL
    if not (0.0 < a1 <= _MAX and 0.0 < a2 <= _MAX and -_MAX <= z <= _MAX):
        raise DomainError("epstein2_continued requires finite z and finite positive a1, a2")
    if a1 < a2:
        a1, a2 = a2, a1
    if z == 1.0:
        raise PoleError("E_2 has a simple pole at z = 1", location=1.0)
    if z == 0.5:
        raise PoleError("the zeta term of E_2 has a pole at z = 1/2", location=0.5)
    if z <= 0.0 and z == math.floor(z):
        raise PoleError(
            "continuation not evaluated at nonpositive integer z", location=z
        )
    nu = z - 0.5
    if nu < 0.0 and nu == math.floor(nu):
        # Gamma(z - 1/2) has a pole where zeta(2z - 1) has a trivial zero:
        # the product is finite, but the head is 0 * inf here
        raise PoleError(
            "continuation not evaluated at negative half-integer z", location=z
        )
    w = 2.0 * math.pi * math.sqrt(a1 / a2)

    from scipy import special

    try:
        head = -0.5 * a1 ** (-z) * riemann_zeta(2.0 * z)
        head += (
            0.5
            * math.sqrt(math.pi / a2)
            * _gamma_ratio(z - 0.5, z)
            * epstein1_closed(z - 0.5, a1)
        )
    except (OverflowError, DomainError):  # a zeta or E_1 past the float range
        head = math.inf
    if not math.isfinite(head):
        raise DomainError(
            f"the continuation's closed-form head at z={z!r}, a1={a1!r}, a2={a2!r} "
            "is not finite"
        )

    try:
        pref = (
            2.0
            * math.pi**z
            / (float(special.gamma(z)) * a2 ** (0.5 * z + 0.25))
        )
    except (OverflowError, ZeroDivisionError):
        pref = math.inf
    if not math.isfinite(pref):
        raise DomainError(
            f"the continuation's Bessel-sum prefactor at z={z!r}, a2={a2!r} is not finite"
        )
    sqrt_a1 = math.sqrt(a1)
    # past its first terms, row n falls by exp(-w n) per term and the rows by
    # about exp(-w) per row: the tail after a term of row n is about the term
    # times _geometric_tail(w n), and the rows after row n about its sum times
    # _geometric_tail(w).  Every term has the prefactor's sign, so summing
    # each row to 0.1 rel_tol of itself keeps the rows' truncations together
    # within 0.1 rel_tol of the sum, however many rows there are
    rows_after = abs(pref) * _geometric_tail(w)

    parts = []
    running = 0.0  # the terms' plain sum, for the stop rule; the value uses fsum
    terms = 0
    n = 0
    while True:
        n += 1
        after = _geometric_tail(w * n)
        row = 0.0
        for m in range(1, ctl.max_terms + 1):
            try:  # in Python floats, which overflow to inf without a warning
                t = m**nu * (sqrt_a1 * n) ** (-nu) * float(special.kv(nu, w * n * m))
            except OverflowError:
                t = math.inf
            if not math.isfinite(t):  # a factor over- or underflows (large |z|)
                raise DomainError(
                    f"the continuation's Bessel terms at z={z!r}, a1={a1!r}, a2={a2!r} "
                    "are not finite"
                )
            terms += 1
            if terms > ctl.max_terms:
                raise ConvergenceError("epstein2_continued Bessel sum exhausted")
            parts.append(t)
            row += t
            if t * after <= 0.1 * ctl.rel_tol * row:
                break
        running += row
        # a row enters the value as pref row: compare it in value units
        if n >= ctl.min_terms and rows_after * row <= 0.1 * ctl.rel_tol * max(
            abs(head) + abs(pref) * running, 1e-300
        ):
            break
    bessel = pref * math.fsum(parts)
    value = head + bessel
    err = ctl.rel_tol * (abs(head) + abs(bessel)) + 1e-15 * abs(value)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(
            f"the continuation at z={z!r}, a1={a1!r}, a2={a2!r} is not finite"
        )
    return EvalResult(value=value, abs_err_est=err, terms_used=terms, rep="continued")
