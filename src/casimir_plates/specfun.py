"""Overflow-safe elementary and special functions used by every series.

Everything here is a pure function of its arguments (no global state), so
all of it is safe to call concurrently.  ``benchmarks/child.py`` times
``riemann_zeta``, ``macdonald_half``, ``coth_stable`` and
``inv_sinh_stable`` by name, so each keeps its name and signature;
``macdonald_half`` is kept for that alone, since the package no longer
calls it.
"""
from __future__ import annotations

import math
import operator

from .errors import ConvergenceError, DomainError, PoleError
from .free_energy import _MAX, _MIN_TERMS

__all__ = [
    "riemann_zeta",
    "macdonald_half",
    "coth_stable",
    "inv_sinh_stable",
]


# Bernoulli numbers B_2, B_4, ... B_10 for the Euler-Maclaurin tail.
_BERNOULLI_EVEN = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0)


def riemann_zeta(s: float) -> float:
    """Riemann zeta function on the real line, s != 1.

    For s > 0 the defining sum is truncated and closed with the integral
    term N^(1-s)/(s-1) plus Euler-Maclaurin corrections; for s < 0 the
    reflection formula maps the argument back to s > 1.  From s = 54 on,
    zeta(s) - 1 < 2^(1-s) is below half an ulp of 1, so zeta(s) rounds to
    1.0, also at s = inf.  Where Gamma(1 - s) overflows (s < -170.6) the
    reflection is formed in log space; where zeta(s) itself leaves the float
    range (below about s = -260), and at s = -inf or nan, it is a DomainError.
    """
    if s == 1.0:
        raise PoleError("riemann_zeta has a simple pole at s = 1", location=1.0)
    if s >= 54.0:
        return 1.0
    if not -_MAX <= s:  # also an integer past the float range
        raise DomainError(f"riemann_zeta is not defined at s={s!r}")
    if s < 0.0:
        # reflection: zeta(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s)
        half = 0.5 * s
        if half == math.floor(half):
            return 0.0  # trivial zeros at negative even integers
        sin_term = math.sin(math.pi * half)
        try:
            return (
                2.0**s
                * math.pi ** (s - 1.0)
                * sin_term
                * math.gamma(1.0 - s)
                * riemann_zeta(1.0 - s)
            )
        except OverflowError:  # Gamma(1 - s) overflows from s < -170.6 on
            log_abs = (s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + math.lgamma(1.0 - s)
                       + math.log(abs(sin_term) * riemann_zeta(1.0 - s)))
            try:
                return math.copysign(math.exp(log_abs), sin_term)
            except OverflowError:
                raise DomainError(f"riemann_zeta({s!r}) is outside the float range") from None
    # Direct sum with Euler-Maclaurin closure; valid for all s > -1, s != 1,
    # so it also covers the strip 0 <= s < 1 by analytic continuation.
    n_direct = 40
    head = math.fsum(n ** (-s) for n in range(1, n_direct + 1))
    nf = float(n_direct)
    tail = nf ** (1.0 - s) / (s - 1.0) - 0.5 * nf ** (-s)
    poch = s  # s (s+1) ... running product
    power = nf ** (-s - 1.0)
    fact = 2.0
    k2 = 2
    corr = 0.0
    for b in _BERNOULLI_EVEN:
        corr += b / fact * poch * power
        poch *= (s + k2 - 1.0) * (s + k2)
        power /= nf * nf
        fact *= (k2 + 1.0) * (k2 + 2.0)
        k2 += 2
    return head + tail + corr


def macdonald_half(n: int, z: float) -> float:
    """Macdonald function K_{n+1/2}(z) through its finite closed form.

    The k-sum is exact (no truncation error); for very large z the result
    underflows to an exact 0.0, which is the correctly rounded value.  A
    result past the float range (small z, or a k-sum that overflows) is a
    DomainError.
    """
    try:
        index = operator.index(n)  # any integral type (a numpy integer too)
    except TypeError:
        index = -1
    if index < 0:
        raise DomainError(f"order index n must be a nonnegative integer, got {n!r}")
    n = index
    if not 0.0 < z <= _MAX:
        raise DomainError(f"macdonald_half requires finite z > 0, got {z!r}")
    # sum_{k=0}^{n} (n+k)! / (k! (n-k)! (2z)^k), built by term ratios; once
    # a term is 0 or the sum inf, the rest cannot change the result
    term = 1.0
    acc = 1.0
    try:
        for k in range(n):
            term *= (n + k + 1) * (n - k) / (2.0 * (k + 1) * z)
            acc += term
            if term == 0.0 or acc == math.inf:
                break
    except OverflowError:  # an order n past the float range
        acc = math.inf
    pref = math.sqrt(math.pi / (2.0 * z))
    # exp(-z) may underflow; that is the documented exact-0 regime
    value = pref * math.exp(-z) * acc
    if not math.isfinite(value):
        raise DomainError(f"K_(n+1/2)(z) at n={n}, z={z!r} is outside the floating-point range")
    return value


def coth_stable(x: float) -> float:
    """coth(x) = 1 + 2 e^(-2x) / (1 - e^(-2x)) for x > 0, without overflow
    and with full small-x accuracy."""
    if not 0.0 < x <= _MAX:
        raise DomainError(f"coth_stable requires finite x > 0, got {x!r}")
    return 1.0 + 2.0 * math.exp(-2.0 * x) / -math.expm1(-2.0 * x)


def inv_sinh_stable(x: float) -> float:
    """1/sinh(x) as 2 e^(-x) / (1 - e^(-2x)); never overflows for large x."""
    if not 0.0 < x <= _MAX:
        raise DomainError(f"inv_sinh_stable requires finite x > 0, got {x!r}")
    return 2.0 * math.exp(-x) / -math.expm1(-2.0 * x)


def sum_until(term_fn, tail_bound_fn, ctl, what: str):
    """Accumulate term_fn(n) for n = 1, 2, ... under a bounded-tail stop rule.

    ``tail_bound_fn(n, term)`` must bound the remaining tail given the index
    and value of the term just added; it is first asked at n = _MIN_TERMS.
    ``ctl`` is the SeriesControl.  Returns (value, tail_bound, terms).
    """
    parts = []
    total = 0.0
    n = 0
    while True:
        n += 1
        if n > ctl.max_terms:
            raise ConvergenceError(
                f"{what}: no convergence within {ctl.max_terms} terms"
            )
        t = term_fn(n)
        parts.append(t)
        total += t
        if n < _MIN_TERMS:
            continue
        bound = tail_bound_fn(n, t)
        if bound <= ctl.rel_tol * abs(total):
            return math.fsum(parts), bound, n
