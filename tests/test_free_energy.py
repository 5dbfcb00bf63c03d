"""Free-energy representations: cross-checks against an mpmath oracle,
closed-form limits, and the routing / validation behavior of the public
entry points."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import (
    CasimirError,
    ConvergenceError,
    DomainError,
    PlateKind,
    PlateSystem,
    SeriesControl,
    SlowConvergenceError,
    ThermalPoint,
    UnsupportedRepresentationError,
    evaluate_free_energy,
    free_energy_auto,
    pressure_auto,
    pressure_zero_T,
    zero_temperature_energy,
)
from casimir_plates.forms import f_scaled_double, free_energy_mode_integral
from casimir_plates.free_energy import (
    _MIN_TERMS,
    _PLANS,
    _SERVED,
    _ZERO_T_XI,
    ZETA3,
    _evaluator,
    _pair_profile,
    _route,
    f_conducting_lattice,
    f_nontrivial,
)

TIGHT = SeriesControl(rel_tol=1e-14)
REPS = ("bessel", "coth", "double", "poisson", "lattice")


def boyer(d=1.0):
    return PlateSystem(d=d, kind=PlateKind.BOYER_MIXED)


def conductor(d=1.0):
    return PlateSystem(d=d, kind=PlateKind.CONDUCTOR_CONDUCTOR)


def conducting_coth(xi, ctl=TIGHT):
    """d^3 F/L^2 of the conducting pair from the table's coth row, at d = 1."""
    return evaluate_free_energy(conductor(), ThermalPoint(xi), ctl, "coth")


def _mpmath_conductor(xi):
    """d^3 F/L^2 of the conducting pair via the single coth/csch sum, as an
    mpmath number at the working precision."""
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
    return zero_t - q * total


def _mpmath_conductor_any(xi):
    """:func:`_mpmath_conductor` at any xi: above the self-dual point
    1/(2 pi) through the temperature inversion g(x) = (2 pi x)^4 g(1/(4 pi^2 x)),
    so the coth sum is only summed where it converges fast."""
    x = mpmath.mpf(xi)
    if x <= 1 / (2 * mpmath.pi):
        return _mpmath_conductor(x)
    return (2 * mpmath.pi * x) ** 4 * _mpmath_conductor(1 / (4 * mpmath.pi**2 * x))


# the prefactor of the series part of (g, p) on each route, written here
# apart from the kernel's plans, which derive the Poisson one by the inversion
SERIES_SCALE = {"coth": (-math.pi**2 / 8.0, math.pi**2 / 4.0), "poisson": (-0.125, -0.25)}


def _mp_terms(x, route, pressure, tiny=1e-45):
    """The kernel's terms of the conducting profile's series part, in mpmath
    at the working precision, until a term is below ``tiny`` of the sum and
    at least _MIN_TERMS (8) terms are in:
    with r = e^(-2v), y = 2r/(1 - r) and z = 4r/(1 - r)^2, on the coth route
    (v = n/(2x)) g: (4x^3 y/n + 2x^2 z)/n^2 and p: x z (1 + y)/n; on the
    Poisson route (v = n c, c = 2 pi^2 x) g: (x y/n + x c z)/n^2 and p: that
    plus x c^2 z (1 + y)/n.  Also returns the tail ratio r_1 = e^(-rate)."""
    x = mpmath.mpf(x)
    c = 2 * mpmath.pi**2 * x
    rate = 1 / x if route == "coth" else 2 * c
    r1 = mpmath.exp(-rate)
    terms = []
    total = 0
    r = 1
    n = 0
    while True:
        n += 1
        r *= r1
        y = 2 * r / (1 - r)
        z = 4 * r / (1 - r) ** 2
        if route == "coth":
            t = x * z * (1 + y) / n if pressure else (4 * x**3 * y / n + 2 * x**2 * z) / n**2
        else:
            t = (x * y / n + x * c * z) / n**2
            if pressure:
                t += x * c**2 * z * (1 + y) / n
        terms.append(t)
        total += t
        if t < tiny * total and n >= 8:
            return terms, r1


def _hand_poisson_plan(halves, pressure):
    """The Poisson plan of a pair of halves (a, w) as it was written by hand
    before the kernel derived it from the coth plan by the inversion:
    the monomials -pi^6 x^4/45 and -zeta(3) x/8 of g (p: (3 - k) c x^k),
    combined over the halves; the tail rate 4 pi^2 min a; and for each
    half its fast flag and w times the series scale -1/8 (p: -1/4) times its
    coefficients a, 2 pi^2 a^2 and 0 (p: 4 pi^4 a^3)."""
    monomials = [(c * (3 - k if pressure else 1) * math.fsum(w * a**k for a, w in halves), k)
                 for c, k in ((-math.pi**6 / 45.0, 4), (-float(mpmath.zeta(3)) / 8.0, 1))]
    scale = -0.25 if pressure else -0.125
    slow = min(a for a, _ in halves)
    series = [(a != slow, [w * scale * k for k in (
        a, 2.0 * math.pi**2 * a**2, 4.0 * math.pi**4 * a**3 if pressure else 0.0)])
        for a, w in halves]
    return monomials, 4.0 * math.pi**2 * slow, series


def _mp_profile(x, pressure):
    """g(x) (pressure: p(x) = 3 g - x g') of the conducting pair in mpmath,
    from the closed-form monomials and the kernel's series on whichever
    route converges faster at x."""
    x = mpmath.mpf(x)
    pi2, z3 = mpmath.pi**2, mpmath.zeta(3)
    if x < 1 / (2 * mpmath.pi):
        mono = -pi2 / 240 if pressure else -pi2 / 720 - pi2 * z3 * x**3 / 2
        scale = pi2 / 4 if pressure else -pi2 / 8
        route = "coth"
    else:
        p6 = mpmath.pi**6 * x**4 / 45
        mono = p6 - z3 * x / 4 if pressure else -p6 - z3 * x / 8
        scale = mpmath.mpf(-0.25) if pressure else mpmath.mpf(-0.125)
        route = "poisson"
    return mono + scale * mpmath.fsum(_mp_terms(x, route, pressure)[0])


def _mpmath_f_scaled(xi, prec=40):
    """Oracle: the conducting profile in arbitrary precision, as a float."""
    with mpmath.workdps(prec):
        return float(_mpmath_conductor(xi))


def _coth_thermal_profile(xi):
    """The Boyer scaled thermal profile f(xi) = (E_0 - F)/(pi^2 xi^3) at d = 1,
    from the composed coth representation."""
    t = ThermalPoint(xi)
    fb = evaluate_free_energy(boyer(), t, TIGHT, "coth").value
    return (zero_temperature_energy(boyer()) - fb) / (math.pi**2 * xi**3)


class TestMpmathOracle:
    """High-precision reference values for d^3 F/L^2 (conducting pair) and
    the Boyer combination F(xi) = f(2 xi)/8 - f(xi) in units of 1/d^3."""

    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 1.0, 2.0, 5.0])
    def test_conducting_single_matches_mpmath(self, xi):
        ref = _mpmath_f_scaled(xi)
        got = conducting_coth(xi).value
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
        a = _coth_thermal_profile(0.5)
        b = f_scaled_double(0.5, TIGHT).value
        assert a == pytest.approx(b, abs=1e-10)

    def test_low_temperature_leading_exponential(self):
        # f(xi) -> (1 + 1/(2 xi)) e^{-1/(2 xi)} for small xi; at xi=0.1 this
        # is 6 e^{-5} and the next correction is ~2e-3 relative
        xi = 0.1
        approx = (1.0 + 0.5 / xi) * math.exp(-1.0 / (2.0 * xi))
        got = _coth_thermal_profile(xi)
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
            _evaluator("free_energy", "coth", PlateKind.CONDUCTOR_CONDUCTOR, -1.0)
        with pytest.raises(DomainError):
            f_scaled_double(-1.0)


class TestRepresentationEquivalence:
    @pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 1.0, 2.0, 5.0])
    def test_bessel_equals_coth_decomposition(self, xi):
        # the Boyer pair as the coth route's conductor halves g(2 xi)/8 - g(xi)
        t = ThermalPoint.from_xi(xi, 1.0)
        via_bessel = evaluate_free_energy(boyer(), t, TIGHT, "bessel").value
        decomposed = conducting_coth(2.0 * xi).value / 8.0 - conducting_coth(xi).value
        assert via_bessel == pytest.approx(decomposed, abs=1e-10)

    def test_mode_integral_oracle(self):
        sys = boyer()
        for xi in (0.3, 1.0):
            t = ThermalPoint.from_xi(xi, 1.0)
            ref = free_energy_mode_integral(sys, t).value
            got = evaluate_free_energy(sys, t, TIGHT, "auto").value
            assert got == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("xi, max_terms", [(1e5, 10**6), (1e300, 10**6), (10.0, 100)])
    def test_mode_integral_refuses_at_once(self, monkeypatch, xi, max_terms):
        # where the thresholds it provably needs exceed max_terms, the mode
        # integral raises before its first quadrature
        from casimir_plates import forms

        def no_quadrature(y):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(forms, "_blackbody_tail_integral", no_quadrature)
        with pytest.raises(SlowConvergenceError, match=f"within {max_terms} thresholds"):
            free_energy_mode_integral(boyer(), ThermalPoint(xi), SeriesControl(max_terms=max_terms))

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
        a = conducting_coth(xi)
        b = f_conducting_lattice(xi, TIGHT)
        assert a.value == pytest.approx(b.value, abs=1e-8 * max(1.0, abs(a.value)))

    def test_nontrivial_part_is_negative(self):
        for xi in (0.1, 0.5, 1.0, 2.0):
            assert f_nontrivial(xi, TIGHT).value < 0.0

    def test_conductor_low_T_closed_form(self):
        sys = conductor()
        t = ThermalPoint.from_xi(0.05, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "coth").value
        assert evaluate_free_energy(sys, t, None, "low").value == pytest.approx(exact, rel=1e-5)

    def test_conductor_high_T_closed_form(self):
        sys = conductor()
        t = ThermalPoint.from_xi(2.0, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "coth").value
        assert evaluate_free_energy(sys, t, None, "high").value == pytest.approx(exact, rel=1e-4)

    def test_boyer_high_T_is_conductor_difference(self):
        # F_boyer(d) = F_cond(2d) - F_cond(d) must survive the asymptotics
        d, xi = 1.0, 2.0
        tb = ThermalPoint.from_xi(xi, d)
        t2 = ThermalPoint.from_beta(tb.beta(d), 2.0 * d)

        def high(sys, t):
            return evaluate_free_energy(sys, t, None, "high").value

        lhs = high(boyer(d), tb)
        rhs = high(conductor(2.0 * d), t2) - high(conductor(d), tb)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_boyer_low_T_matches_bessel(self):
        sys = boyer()
        t = ThermalPoint.from_xi(0.05, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "bessel").value
        assert evaluate_free_energy(sys, t, None, "low").value == pytest.approx(exact, rel=1e-5)

    def test_boyer_high_T_matches_poisson(self):
        sys = boyer()
        t = ThermalPoint.from_xi(2.0, 1.0)
        exact = evaluate_free_energy(sys, t, TIGHT, "poisson").value
        assert evaluate_free_energy(sys, t, None, "high").value == pytest.approx(exact, rel=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(math.log(1e-3), math.log(30.0)).map(math.exp),
           st.sampled_from([("free_energy", "boyer"), ("free_energy", "conductor"),
                            ("pressure", "boyer"), ("pressure", "conductor")]),
           st.sampled_from(["low", "high"]))
    def test_closed_form_within_its_bar(self, xi, quantity_kind, rep):
        # the closed forms' remainder bound against the pair's profile in
        # mpmath, with no slack, also far outside the form's own range
        quantity, kind = quantity_kind
        sys, pressure = PlateSystem(1.0, kind), quantity == "pressure"
        r = _evaluator(quantity, rep, sys.kind, xi)(sys, xi, None)
        assert r.rep == rep
        with mpmath.workdps(40):
            ref = _mp_profile(xi, pressure)
            if kind == "boyer":  # F1(2d) - F2(d), P1(2d) - P2(d)
                ref = _mp_profile(2 * xi, pressure) / 8 - ref
            assert abs(r.value - ref) <= r.abs_err_est


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
        for rep in ("bessel", "double", "mode-integral"):
            with pytest.raises(UnsupportedRepresentationError):
                evaluate_free_energy(conductor(), t, TIGHT, rep)

    def test_unknown_representation(self):
        t = ThermalPoint.from_xi(0.5, 1.0)
        with pytest.raises(ValueError):
            evaluate_free_energy(boyer(), t, TIGHT, "chebyshev")
        with pytest.raises(ValueError):  # also at a zero-T xi
            evaluate_free_energy(boyer(), ThermalPoint(1e-5), TIGHT, "chebyshev")

    @pytest.mark.parametrize("sys, rep", [(conductor(), "double"), (boyer(), "coth")])
    def test_zero_T_xi_serves_the_routed_value(self, sys, rep):
        # where every thermal part is exact 0, each representation is the
        # routed zero-T value for both pairs, as the CLI serves it
        r = evaluate_free_energy(sys, ThermalPoint(1e-5), None, rep)
        assert r == free_energy_auto(sys, 1e-5)
        assert r.rep == "zero-T"

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(1e-3), math.log(8.0)).map(math.exp),
        st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
        st.sampled_from([None, TIGHT]),
    )
    def test_explicit_representation_error_estimates(self, xi, d, ctl):
        # the double-sum engine's bar: every row's m-tail, the tail of the
        # rows after the last, and the rounding of each term and of g0 - q f
        with mpmath.workdps(40):
            ref = (_mpmath_conductor(2.0 * xi) / 8 - _mpmath_conductor(xi)) / mpmath.mpf(d) ** 3
            r = evaluate_free_energy(boyer(d), ThermalPoint(xi), ctl, "double")
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err_est

    def test_series_and_lattice_error_estimates(self):
        for rep in ("coth", "poisson", "lattice"):
            for xi in (0.1, 0.5, 2.0):
                ref = _mpmath_f_scaled(2.0 * xi) / 8.0 - _mpmath_f_scaled(xi)
                t = ThermalPoint.from_xi(xi, 1.0)
                r = evaluate_free_energy(boyer(), t, TIGHT, rep)
                assert abs(r.value - ref) <= 10.0 * r.abs_err_est + 1e-12 * abs(ref)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(1e-2), math.log(50.0)).map(math.exp),
        st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
        st.sampled_from(["boyer", "conductor"]),
    )
    def test_lattice_error_estimates(self, xi, d, kind):
        # the halves' Epstein bars plus the rounding of their closed-form
        # axis terms, of the quadrant's scaling and of the combination
        with mpmath.workdps(40):
            if kind == "boyer":
                ref = _mpmath_conductor_any(2.0 * xi) / 8 - _mpmath_conductor_any(xi)
            else:
                ref = _mpmath_conductor_any(xi)
            ref /= mpmath.mpf(d) ** 3
            r = evaluate_free_energy(PlateSystem(d, kind), ThermalPoint(xi), None, "lattice")
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err_est

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(1e-3), math.log(5.0)).map(math.exp),
        st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
        st.sampled_from(["boyer", "conductor"]),
    )
    def test_error_estimates_bound_true_error(self, xi, d, kind):
        with mpmath.workdps(40):
            if kind == "boyer":
                ref = _mpmath_conductor(2.0 * xi) / 8 - _mpmath_conductor(xi)
            else:
                ref = _mpmath_conductor(xi)
            ref /= mpmath.mpf(d) ** 3
            r = free_energy_auto(PlateSystem(d, kind), xi)
            assert abs(mpmath.mpf(r.value) - ref) <= r.abs_err_est


class TestConductorKernel:
    """The one conductor kernel: its coth and Poisson routes, the profiles
    g = d^3 F and p = d^4 P = 3 g - x g', and the routed conductor pair."""

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 5.0), st.booleans())
    def test_routes_agree(self, x, pressure):
        kind = PlateKind.CONDUCTOR_CONDUCTOR
        a = _pair_profile(kind, x, "coth", pressure, TIGHT)[0]
        b = _pair_profile(kind, x, "poisson", pressure, TIGHT)[0]
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("x", [0.2, 1.0, 3.0])
    def test_pressure_profile_is_3g_minus_x_dg(self, x):
        kind = PlateKind.CONDUCTOR_CONDUCTOR
        p = _pair_profile(kind, x, "poisson", True, TIGHT)[0]
        with mpmath.workdps(30):
            dg = mpmath.diff(_mpmath_conductor, x)
            ref = 3 * _mpmath_conductor(x) - x * dg
        assert p == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("xi", [10.0, 1e5])
    def test_routed_conductor_is_short(self, xi):
        r = free_energy_auto(conductor(), xi)
        assert r.rep == "poisson"
        assert r.terms_used <= 16

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 5.0), st.sampled_from(["coth", "poisson"]), st.booleans())
    def test_term_ratio_is_at_most_the_tail_ratio(self, x, route, pressure):
        # the ratio bound that makes the tail bound q t, q = 2r/(1 - r),
        # rigorous from the first term on, on the kernel's terms in mpmath;
        # the bar of the kernel's sum holds that bound at its last term
        with mpmath.workdps(30):
            terms, r = _mp_terms(x, route, pressure, tiny=1e-45)
            assert terms[0] > 0
            assert all(b <= r * a for a, b in zip(terms, terms[1:]))
            tail = mpmath.mpf(0)
            for n in range(len(terms) - 1, 0, -1):
                tail += terms[n]
                assert tail <= terms[n - 1] * r / (1 - r)
            _, _, err, n_used = _pair_profile(
                PlateKind.CONDUCTOR_CONDUCTOR, x, route, pressure, SeriesControl(rel_tol=1e-30))
            q = 2 * r / (1 - r)
            assert err >= abs(SERIES_SCALE[route][pressure]) * q * terms[n_used - 1]

    @staticmethod
    def _stop_index(terms, r, tol_at):
        # the first n (counted from 1) whose proven tail bound q t_n is at
        # most tol_at(n) times the partial sum, on the mpmath terms
        q = 2 * r / (1 - r)
        partial = mpmath.mpf(0)
        for n, t in enumerate(terms, 1):
            partial += t
            if q * t <= tol_at(n) * partial:
                return n, q * t / partial
        raise AssertionError("the mpmath terms ran out before the stop")

    @pytest.mark.parametrize("route", ["coth", "poisson"])
    @pytest.mark.parametrize("pressure", [False, True])
    @pytest.mark.parametrize("x", [0.005, 0.05, 0.1, 0.3, 1.0, 5.0, 20.0])
    def test_stop_rule(self, route, pressure, x):
        # below the _MIN_TERMS floor a sum stops once its proven tail bound
        # is below half an ulp of the partial sum; from the floor on, at
        # rel_tol, which is where the floor-first rule stopped too: the
        # kernel's term count is the stop index of its terms in mpmath
        ctl = SeriesControl()
        eps = 2.0**-52
        with mpmath.workdps(30):
            terms, r = _mp_terms(x, route, pressure, tiny=1e-40)
            n_stop, rel_bound = self._stop_index(
                terms, r,
                lambda n: ctl.rel_tol if n >= _MIN_TERMS else min(ctl.rel_tol, eps / 2))
        n_used = _pair_profile(PlateKind.CONDUCTOR_CONDUCTOR, x, route, pressure, ctl)[3]
        assert n_used == n_stop
        assert rel_bound <= ctl.rel_tol

    @pytest.mark.parametrize("route", ["coth", "poisson"])
    @pytest.mark.parametrize("pressure", [False, True])
    @pytest.mark.parametrize("x", [0.005, 0.05, 0.1, 0.3, 1.0, 5.0])
    def test_tight_tolerance_is_honoured(self, route, pressure, x):
        # below eps/2 the requested tolerance applies from the first term:
        # a sum never stops before its proven tail is below 1e-17 of it,
        # stops where the floor-first rule did wherever that rule ran past
        # the floor, and its value is within its bar of the full sum
        tight = SeriesControl(rel_tol=1e-17)
        kind = PlateKind.CONDUCTOR_CONDUCTOR
        with mpmath.workdps(40):
            terms, r = _mp_terms(x, route, pressure, tiny=1e-40)
            n_stop, _ = self._stop_index(terms, r, lambda n: 1e-17)
            floor_n = max(_MIN_TERMS, self._stop_index(
                terms, r, lambda n: 1e-17 if n >= _MIN_TERMS else 0)[0])
            _, s_part, err, n_used = _pair_profile(kind, x, route, pressure, tight)
            assert n_used == n_stop
            assert n_used <= floor_n
            if floor_n > _MIN_TERMS:
                assert n_used == floor_n
            full = SERIES_SCALE[route][pressure] * mpmath.fsum(terms)
            assert abs(s_part - full) <= err

    def test_max_terms_is_a_convergence_error(self):
        # a budget past the _MIN_TERMS floor and one short of it, which the
        # sum cannot reach either, end alike
        for budget in (20, _MIN_TERMS - 3):
            message = f"^conductor coth series: no convergence within {budget} terms$"
            with pytest.raises(ConvergenceError, match=message):
                _pair_profile(PlateKind.CONDUCTOR_CONDUCTOR, 5.0, "coth", False,
                              SeriesControl(max_terms=budget))

    def test_max_terms_caps_each_sum(self):
        # the kernel's budget caps each half's sum, not terms_used, which
        # adds the halves: at xi = 0.05 the Boyer pair's halves take 4 and 2
        # terms, and a budget of 3 is short of the first; the double sum's
        # budget caps all its terms, the count its terms_used reports
        assert free_energy_auto(boyer(), 0.05, SeriesControl(max_terms=4)).terms_used == 6
        with pytest.raises(ConvergenceError, match="within 3 terms"):
            free_energy_auto(boyer(), 0.05, SeriesControl(max_terms=3))
        used = f_scaled_double(0.05).terms_used
        assert f_scaled_double(0.05, SeriesControl(max_terms=used)).terms_used == used
        with pytest.raises(ConvergenceError):
            f_scaled_double(0.05, SeriesControl(max_terms=used - 1))

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(math.log(_ZERO_T_XI), math.log(30.0)).map(math.exp),
        st.sampled_from(["coth", "poisson"]),
        st.booleans(),
        st.sampled_from([PlateKind.BOYER_MIXED, PlateKind.CONDUCTOR_CONDUCTOR]),
        st.sampled_from([1e-12, 1e-16]),
    )
    def test_explicit_route_bars_bound_true_error(self, x, route, pressure, kind, rel_tol):
        # each route of the kernel away from its regime, where a half runs
        # to hundreds of terms and its rounding allowance grows with them:
        # the bar still bounds the error, no slack
        r = _pair_profile(kind, x, route, pressure, SeriesControl(rel_tol=rel_tol))
        with mpmath.workdps(40):
            if kind is PlateKind.BOYER_MIXED:
                ref = _mp_profile(2 * x, pressure) / 8 - _mp_profile(x, pressure)
            else:
                ref = _mp_profile(x, pressure)
            assert abs(mpmath.mpf(r[0]) - ref) <= r[2]

    @pytest.mark.parametrize("kind, halves", [
        (PlateKind.BOYER_MIXED, ((2.0, 0.125), (1.0, -1.0))),
        (PlateKind.CONDUCTOR_CONDUCTOR, ((1.0, 1.0),)),
    ])
    @pytest.mark.parametrize("pressure", [False, True])
    def test_poisson_plan_is_the_hand_written_one(self, kind, halves, pressure):
        # the kernel derives its Poisson plan from the coth plan by the
        # inversion; every constant of it is within 2 ulps of the plan as
        # written by hand, the powers and fast flags are the same
        def close(x, y):
            return abs(x - y) <= 2.0 * math.ulp(y)

        (c0, k0, c1, k1, rate), series = _PLANS[kind]["poisson"][pressure]
        monomials, hand_rate, hand_series = _hand_poisson_plan(halves, pressure)
        assert [k0, k1] == [k for _, k in monomials]
        assert close(c0, monomials[0][0]) and close(c1, monomials[1][0])
        assert close(rate, hand_rate)
        assert len(series) == len(hand_series)
        for ((fast, *ks), ws, abs_ws), (hand_fast, products) in zip(series, hand_series):
            assert fast == hand_fast and abs_ws == abs(ws)
            assert all(close(ws * k, hand) for k, hand in zip(ks, products))

    def test_routed_term_counts(self):
        # pinned below the _MIN_TERMS floor of 8 per sum, which the kernel's
        # sums need not reach: a Boyer profile has two sums, a conducting
        # one a single sum
        assert free_energy_auto(boyer(), 0.01).terms_used <= 2
        assert free_energy_auto(conductor(), 1e5).terms_used <= 1
        assert pressure_auto(1.0, 1.0).terms_used <= 4

    def test_router_splits_at_self_dual_point(self):
        split = 1.0 / (2.0 * math.pi)
        assert free_energy_auto(boyer(), math.nextafter(split, 0.0)).rep == "coth"
        assert free_energy_auto(boyer(), split).rep == "poisson"

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(math.log(1e-2), math.log(1e2)).map(math.exp),
        st.sampled_from([0.0, 1e-4]) | st.floats(math.log(1e-3), math.log(10.0)).map(math.exp),
        st.sampled_from(["boyer", "conductor", "pressure"]),
    )
    def test_routed_result_is_the_row_of_its_route(self, d, xi, op):
        # the routed functions and the table's explicit rows share one way
        # into the kernel: a routed result, as a whole tuple, is the row of
        # the route it reports (the pressure's coth route reports 'dfdxi')
        if op == "pressure":
            quantity, sys, r = "pressure", boyer(d), pressure_auto(d, xi)
        else:
            quantity, sys = "free_energy", PlateSystem(d, op)
            r = free_energy_auto(sys, xi)
        if r.rep != "zero-T":
            route = "coth" if r.rep == "dfdxi" else r.rep
            assert r == _SERVED[quantity, route][0](sys, xi, None)
            return
        # zero-T: the closed form alone, and for the conducting pair at
        # xi > 0 its -pi^2 zeta(3) xi^3/(2 d^3) (cancelled in the Boyer pair)
        zero_t = pressure_zero_T(sys) if op == "pressure" else zero_temperature_energy(sys)
        assert r.abs_err_est == 0.0 and r.terms_used == 0
        if op == "conductor" and xi > 0.0:
            zero_t -= math.pi**2 * ZETA3 * xi**3 / (2.0 * d**3)
            assert r.value == pytest.approx(zero_t, rel=1e-15)
        else:
            assert r.value == zero_t

    def test_zero_t_threshold_is_where_the_thermal_factor_underflows(self):
        # the router's precomputed threshold gives every xi the route the
        # test exp(-1/(2 xi)) == 0 gave it, here on 2000 floats either side
        # of the threshold, and the routed entry points route as _route does
        below = above = _ZERO_T_XI
        for _ in range(2000):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            for xi in (below, above):
                zero_t = math.exp(-0.5 / xi) == 0.0
                assert (_route(xi) == "zero-T") == zero_t
                assert (free_energy_auto(boyer(), xi).rep == "zero-T") == zero_t
                assert (pressure_auto(1.0, xi).rep == "zero-T") == zero_t
        assert math.exp(-0.5 / _ZERO_T_XI) == 0.0

    def test_poisson_for_conductor(self):
        t = ThermalPoint(0.5)
        r = evaluate_free_energy(conductor(), t, TIGHT, "poisson")
        assert r.rep == "poisson"
        assert r.value == pytest.approx(conducting_coth(0.5).value, rel=1e-13)

    def test_conductor_zero_T_route_keeps_zeta3_term(self):
        # below xi ~ 6.7e-4 every series term underflows, but the
        # conducting pair's -pi^2 zeta(3) xi^3/2 is a power law
        xi = 5e-4
        r = free_energy_auto(conductor(), xi)
        assert r.rep == "zero-T"
        assert r.value == pytest.approx(float(_mpmath_conductor(xi)), rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
        st.sampled_from(["boyer", "conductor"]),
    )
    def test_routed_result_is_finite_or_typed_error(self, xi, d, kind):
        try:
            r = free_energy_auto(PlateSystem(d, kind), xi)
        except CasimirError:
            return
        assert math.isfinite(r.value) and math.isfinite(r.abs_err_est)
