"""Overflow-safe elementary and special functions used by every series.

Everything here is a pure function of its arguments (no global state), so
all of it is safe to call concurrently.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "SeriesControl",
    "EvalResult",
    "riemann_zeta",
    "ZETA3",
    "macdonald_half",
    "coth_stable",
    "inv_sinh_stable",
]


def _record(name: str, fields: str):
    """A namedtuple base for a record type whose subclass validates in
    ``__new__``; its ``_make``, and so ``_replace``, goes through that too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class SeriesControl(_record("SeriesControl", "rel_tol max_terms min_terms")):
    """Truncation policy shared by every adaptive series evaluator.

    A series evaluator stops only once its bounded tail estimate drops
    below ``rel_tol`` times the magnitude of the partial sum; running into
    ``max_terms`` raises :class:`~casimir_plates.errors.ConvergenceError`
    instead of returning silently.  ``min_terms`` is a floor for the series
    whose tail estimate is heuristic.  The conductor kernel, whose tail
    bound is proven from the first term, may stop before it, once that
    bound is below min(rel_tol, eps/2) of the partial sum: where its tail
    cannot move the double result.  Both term counts are integers.
    """

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-12, max_terms: int = 10**6, min_terms: int = 8):
        if not rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        try:
            if isinstance(min_terms, bool) or isinstance(max_terms, bool):
                raise TypeError
            # any integral type (a numpy integer too) as a plain int
            max_terms, min_terms = operator.index(max_terms), operator.index(min_terms)
        except TypeError:
            raise DomainError(
                f"min_terms and max_terms must be integers, got {min_terms!r} and {max_terms!r}"
            ) from None
        if min_terms < 1 or min_terms > max_terms:
            raise DomainError("need 1 <= min_terms <= max_terms")
        return tuple.__new__(cls, (rel_tol, max_terms, min_terms))


class EvalResult(_record("EvalResult", "value abs_err_est terms_used rep")):
    """Value of a truncated series together with its error bookkeeping."""

    __slots__ = ()

    def __new__(cls, value: float, abs_err_est: float, terms_used: int, rep: str):
        if not abs_err_est >= 0.0:  # also rejects nan
            raise DomainError("abs_err_est must be nonnegative")
        return tuple.__new__(cls, (value, abs_err_est, terms_used, rep))


# the truncation policy of every evaluator called without one; records are
# immutable, so all of them share this one
_DEFAULT_CTL = SeriesControl()


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
    if not math.isfinite(s):
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


ZETA3 = riemann_zeta(3.0)  # Apery's constant, shared by every zeta(3) closed form


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
    if not z > 0.0:
        raise DomainError("macdonald_half requires z > 0")
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
    if not x > 0.0:
        raise DomainError("coth_stable requires x > 0")
    return 1.0 + 2.0 * math.exp(-2.0 * x) / -math.expm1(-2.0 * x)


def inv_sinh_stable(x: float) -> float:
    """1/sinh(x) as 2 e^(-x) / (1 - e^(-2x)); never overflows for large x."""
    if not x > 0.0:
        raise DomainError("inv_sinh_stable requires x > 0")
    return 2.0 * math.exp(-x) / -math.expm1(-2.0 * x)


def sum_until(term_fn, tail_bound_fn, ctl: SeriesControl, what: str):
    """Accumulate term_fn(n) for n = 1, 2, ... under a bounded-tail stop rule.

    ``tail_bound_fn(n, term)`` must bound the remaining tail given the index
    and value of the term just added.  Returns (value, tail_bound, terms).
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
        if n < ctl.min_terms:
            continue
        bound = tail_bound_fn(n, t)
        if bound <= ctl.rel_tol * abs(total):
            return math.fsum(parts), bound, n
