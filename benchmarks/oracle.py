"""mpmath reference values that the benchmark checks every timed output against.

All three references are dimensionless profiles of the scaled temperature
xi = d / (pi beta); the physical value follows by exact scaling in d:

* ``boyer(xi)``     = d^3 F/L^2 for the conducting/permeable (Boyer) pair,
* ``conductor(xi)`` = d^3 F/L^2 for the conducting pair,
* ``pressure(xi)``  = d^4 P for the Boyer pair (positive = repulsive).

None of them reuses a formula the package evaluates on its timed path:

* The conductor profile is the mode sum: one black-body integral
  J(y) = int_y^inf u ln(1 - e^-u) du per transverse mode, each expanded
  as its own exponential series.  Above the self-dual point xi = 1/(2 pi)
  it is mapped through the temperature-inversion relation of its
  non-trivial part, so no sum is evaluated where it converges slowly.
* The Boyer profile is the split F = F1(2d) - F2(d) of that profile.  The
  timed code uses the coth single sum and the Poisson form instead.
* The pressure is the thermal-log series
  7 pi^2/1920 - pi^2 xi sum_n n^2 [ln(1 - e^(-n/2xi))/4 - ln(1 - e^(-n/xi))],
  independent of the timed df/dxi and Poisson forms.  It needs about
  150 xi terms, so above ``PRESSURE_LOG_MAX`` the reference is instead
  P d^4 = 3 B - xi B' with B the Boyer profile and B' its term-wise
  analytic derivative; ``test_oracle`` checks both forms agree.

Every series runs until its terms fall below 10^-(DPS+4) of the result,
so the references carry about 30 correct digits.
"""
from __future__ import annotations

from mpmath import mp, mpf

DPS = 34
PRESSURE_LOG_MAX = 0.25


def _modes(xi: mpf) -> tuple[mpf, mpf]:
    """Conducting-pair d^3 F/L^2 and its xi-derivative from the mode sum.

    g = -pi^2/720 + pi^2 xi^3 (-zeta(3)/2 - A), where
    A = -sum_n J(n/xi) = sum_{n,k>=1} e^{-kn/xi} (n/(xi k^2) + 1/k^3).
    Fast below xi ~ 0.2, where e^{-1/xi} is small.
    """
    pi2 = mp.pi**2
    tiny = mpf(10) ** (-DPS - 4)
    a = a_p = mpf(0)
    n = 1
    while True:
        x = mp.exp(-n / xi)
        # the derivative terms carry an extra factor up to k n / xi^2
        if x * (n / xi + 1) * (1 + n / (xi * xi)) < tiny:
            break
        xk = x
        k = 1
        while True:
            inner = n / (xi * k * k) + mpf(1) / k**3
            t = xk * inner
            a += t
            # d/dxi of e^{-kn/xi} inner
            a_p += xk * (k * n * inner - mpf(n) / (k * k)) / (xi * xi)
            if t * (1 + k * n / (xi * xi)) < tiny:
                break
            k += 1
            xk *= x
        n += 1
    s = -mp.zeta(3) / 2 - a
    return -pi2 / 720 + pi2 * xi**3 * s, pi2 * (3 * xi * xi * s - xi**3 * a_p)


def _conductor(xi: mpf) -> tuple[mpf, mpf]:
    """(g, g') at any xi > 0: mode sum below 1/(2 pi), inversion image above.

    With f_nt(xi) = g(xi) + pi^2/720 + pi^6 xi^4/45 the inversion reads
    f_nt(xi) = (2 pi xi)^4 f_nt(1/(4 pi^2 xi)).
    """
    pi = mp.pi
    pi2, pi6 = pi**2, pi**6
    if xi <= 1 / (2 * pi):
        return _modes(xi)
    image = 1 / (4 * pi2 * xi)
    g_i, g_i_p = _modes(image)
    nt = g_i + pi2 / 720 + pi6 * image**4 / 45
    nt_p = g_i_p + 4 * pi6 * image**3 / 45  # d/d(image)
    w4 = (2 * pi * xi) ** 4
    g = w4 * nt - pi2 / 720 - pi6 * xi**4 / 45
    g_p = 4 * w4 / xi * nt - w4 * nt_p * image / xi - 4 * pi6 * xi**3 / 45
    return g, g_p


def _boyer(xi: mpf) -> tuple[mpf, mpf]:
    g2, g2_p = _conductor(2 * xi)
    g1, g1_p = _conductor(xi)
    return g2 / 8 - g1, g2_p / 4 - g1_p


def _thermal_log(xi: mpf) -> mpf:
    pi2 = mp.pi**2
    tiny = mpf(10) ** (-DPS - 4)
    qa = mp.exp(-1 / (2 * xi))
    xa = mpf(1)
    acc = mpf(0)
    n = 0
    while True:
        n += 1
        xa *= qa
        acc += n * n * (mp.log1p(-xa) / 4 - mp.log1p(-xa * xa))
        # past n = 4 xi the terms shrink geometrically, |t| ~ n^2 xa / 4
        if n > 4 * xi + 2 and n * n * xa < tiny * abs(acc):
            break
    return 7 * pi2 / 1920 - pi2 * xi * acc


def conductor(xi) -> mpf:
    """Reference d^3 F/L^2 of the conducting pair at scaled temperature xi."""
    with mp.workdps(DPS):
        return +_conductor(mpf(xi))[0]


def boyer(xi) -> mpf:
    """Reference d^3 F/L^2 of the Boyer pair, F1(2d, xi) - F2(d, xi)."""
    with mp.workdps(DPS):
        return +_boyer(mpf(xi))[0]


def pressure(xi, form: str = "auto") -> mpf:
    """Reference d^4 P of the Boyer pair.

    ``form`` is 'thermal-log', 'mode-derivative' or 'auto' (the first up to
    PRESSURE_LOG_MAX, the second above).
    """
    with mp.workdps(DPS):
        xi = mpf(xi)
        if form == "thermal-log" or (form == "auto" and xi <= PRESSURE_LOG_MAX):
            return +_thermal_log(xi)
        b, b_p = _boyer(xi)
        return +(3 * b - xi * b_p)


PROFILES = {"boyer": boyer, "conductor": conductor, "pressure": pressure}
# d exponent of each profile: value = profile(xi) / d^POWER
POWER = {"boyer": 3, "conductor": 3, "pressure": 4}


def profile_taylor(kind: str, xi: float) -> tuple[mpf, mpf, mpf]:
    """(G, G', G''/2) of a reference profile at xi, by central differences.

    The Taylor terms only carry a step |dxi| <= 2^-29 xi; with h = 1e-8 xi
    their truncation and cancellation errors stay below 1e-24 of G there.
    """
    g = PROFILES[kind]
    with mp.workdps(DPS):
        x = mpf(xi)
        h = x * mpf(10) ** -8
        g0, gp, gm = g(x), g(x + h), g(x - h)
        return g0, (gp - gm) / (2 * h), (gp - 2 * g0 + gm) / (2 * h * h)
