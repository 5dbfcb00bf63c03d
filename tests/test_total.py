"""Every public callable of the package's numeric modules (the validation
layer, the representations and the routed entry points), and every row of
the table ``free_energy._SERVED``, is total: at any argument it returns a
finite value or raises a CasimirError, never another exception, inf or
nan."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import epstein, forms, specfun, symmetry
from casimir_plates import free_energy as fe
from casimir_plates import pressure as pr
from casimir_plates.errors import CasimirError, DomainError, UnsupportedRepresentationError
from casimir_plates.free_energy import (
    EvalResult,
    PlateKind,
    PlateSystem,
    RepresentationKind,
    SeriesControl,
    ThermalPoint,
)

# a small budget: the property asks only how a call ends, and a sum that
# needs more terms than this ends in a ConvergenceError at any budget
CTL = SeriesControl(max_terms=10**4)
INF, NAN = math.inf, math.nan

# log-uniform in [1e-300, 1e300], plus 0, inf and nan
X = st.one_of(
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
    st.sampled_from([0.0, INF, NAN]),
)
# a slot that takes an integer draws small integers as well
N = st.one_of(X, st.integers(0, 10**4))
# a separation or temperature draws integers past the float range as well
D = st.one_of(X, st.integers(-10**400, 10**400))
# the kind and representation strings, valid or not
KIND = st.sampled_from([k.value for k in PlateKind]) | st.text(max_size=12)
REP = st.sampled_from(["auto", *(r.value for r in RepresentationKind)]) | st.text(max_size=12)
# each mode-integral threshold costs two quadratures
MODE_CTL = SeriesControl(max_terms=100)


def _pair_call(fn, *ctl):
    """fn at the plate pair of separation d and kind, and the point xi."""
    return lambda d, kind, xi: fn(PlateSystem(d, kind), ThermalPoint(xi), *ctl)


def _pressure_call(fn, *ctl):
    return lambda xi, d: fn(ThermalPoint(xi), d, *ctl)


# each public callable as (call, strategies of its positional arguments);
# the calls that take a SeriesControl get CTL
CASES = {
    "SeriesControl": (SeriesControl, (X, N)),
    "EvalResult": (EvalResult, (X, X, N, st.just("coth"))),
    "riemann_zeta": (specfun.riemann_zeta, (D,)),
    "macdonald_half": (specfun.macdonald_half, (N, D)),
    "coth_stable": (specfun.coth_stable, (D,)),
    "inv_sinh_stable": (specfun.inv_sinh_stable, (D,)),
    "EpsteinParams": (epstein.EpsteinParams, (D, st.tuples(D) | st.tuples(D, D), D)),
    "epstein_direct": (
        lambda z, a, m2: epstein.epstein_direct(epstein.EpsteinParams(z, a, m2), CTL),
        (D, st.tuples(D) | st.tuples(D, D), D),
    ),
    "epstein1_closed": (epstein.epstein1_closed, (D, D)),
    "epstein2_continued": (
        lambda z, a1, a2: epstein.epstein2_continued(z, a1, a2, CTL), (D, D, D)),
    "f1_eval": (lambda xi, d: symmetry.f1_eval(xi, d, CTL), (D, D)),
    "f2_eval": (lambda xi, d: symmetry.f2_eval(xi, d, CTL), (D, D)),
    "tis_residual_f1": (lambda xi, d: symmetry.tis_residual_f1(xi, d, CTL), (D, D)),
    "tis_residual_f2": (lambda xi, d: symmetry.tis_residual_f2(xi, d, CTL), (D, D)),
    "tis_residual_nontrivial": (lambda xi: symmetry.tis_residual_nontrivial(xi, CTL), (D,)),
    "tis_residual_boyer_naive": (
        lambda xi, d: symmetry.tis_residual_boyer_naive(xi, d, CTL), (D, D)),
    "identity_alternating": (lambda b: symmetry.identity_alternating(b, CTL), (D,)),
    "identity_plain": (lambda b: symmetry.identity_plain(b, CTL), (D,)),
    "sb_to_casimir": (symmetry.sb_to_casimir, ()),
    "low_T_from_high_T": (symmetry.low_T_from_high_T, (D,)),
    "PlateKind": (PlateKind, (KIND,)),
    "PlateSystem": (PlateSystem, (D, KIND)),
    "ThermalPoint": (ThermalPoint, (D,)),
    "RepresentationKind": (RepresentationKind, (REP,)),
    "zero_temperature_energy": (
        lambda d, kind: fe.zero_temperature_energy(PlateSystem(d, kind)), (D, KIND)),
    "f_scaled_double": (lambda xi: forms.f_scaled_double(xi, CTL), (D,)),
    "free_energy_lattice": (_pair_call(fe.free_energy_lattice, CTL), (D, KIND, D)),
    "free_energy_mode_integral": (
        _pair_call(forms.free_energy_mode_integral, MODE_CTL), (D, KIND, D)),
    "f_nontrivial": (lambda xi: fe.f_nontrivial(xi, CTL), (D,)),
    "f_conducting_lattice": (lambda xi: fe.f_conducting_lattice(xi, CTL), (D,)),
    "evaluate_free_energy": (
        lambda d, kind, xi, rep: fe.evaluate_free_energy(
            PlateSystem(d, kind), ThermalPoint(xi), MODE_CTL if rep == "mode-integral" else CTL,
            rep),
        (D, KIND, D, REP)),
    # the routed entry points take xi as it comes: 0 is their zero-T limit
    "free_energy_auto": (
        lambda d, kind, xi: fe.free_energy_auto(PlateSystem(d, kind), xi, CTL), (D, KIND, D)),
    "pressure_zero_T": (lambda d, kind: pr.pressure_zero_T(PlateSystem(d, kind)), (D, KIND)),
    "pressure_net_dfdxi": (_pressure_call(pr.pressure_net_dfdxi, CTL), (D, D)),
    "pressure_thermal_log": (_pressure_call(forms.pressure_thermal_log, CTL), (D, D)),
    "pressure_poisson": (_pressure_call(pr.pressure_poisson, CTL), (D, D)),
    "pressure_auto": (lambda d, xi: pr.pressure_auto(d, xi, CTL), (D, D)),
}
# record types hold what they are given once their own checks pass: of
# them the property asks only that they construct or raise a CasimirError
RECORDS = {"SeriesControl", "EvalResult", "EpsteinParams",
           "PlateKind", "PlateSystem", "ThermalPoint", "RepresentationKind"}


def _finite(r) -> bool:
    if isinstance(r, EvalResult):
        return math.isfinite(r.value) and math.isfinite(r.abs_err_est)
    if isinstance(r, dict):
        return all(map(_finite, r.values()))
    if isinstance(r, tuple):
        return all(map(_finite, r))
    return not isinstance(r, float) or math.isfinite(r)


def test_every_public_callable_has_a_case():
    public = {
        name
        for module in (specfun, epstein, symmetry, fe, pr, forms)
        for name in module.__all__
        if callable(getattr(module, name))
    }
    assert public == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_total(name, data):
    call, strategies = CASES[name]
    args = [data.draw(s) for s in strategies]
    try:
        r = call(*args)
    except CasimirError:
        return
    assert name in RECORDS or _finite(r), (args, r)


@pytest.mark.parametrize("quantity, rep", sorted(fe._SERVED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_served_row_is_total(quantity, rep, data):
    # each row as the command line reaches it, with xi as it comes: 0 and
    # every zero-T xi are the routed row's
    d, kind, xi = data.draw(D), data.draw(KIND), data.draw(D)
    try:
        sys = PlateSystem(d, kind)
        r = fe._evaluator(quantity, rep, sys.kind, xi)(
            sys, xi, MODE_CTL if rep == "mode-integral" else CTL)
    except CasimirError:
        return
    assert _finite(r), (d, kind, xi, r)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: fe._evaluator("free_energy", "coth", PlateKind.CONDUCTOR_CONDUCTOR, INF),
                 id="served-coth-xi-inf"),
    pytest.param(lambda: symmetry.identity_alternating(1e-300), id="identity_alternating-tiny"),
    pytest.param(lambda: symmetry.identity_plain(1e-300), id="identity_plain-tiny"),
    pytest.param(lambda: symmetry.low_T_from_high_T(1e300), id="low_T_from_high_T-huge"),
    pytest.param(lambda: symmetry.f1_eval(0.3, INF), id="f1_eval-d-inf"),
    pytest.param(lambda: symmetry.f1_eval(INF, 1.0), id="f1_eval-xi-inf"),
    pytest.param(lambda: symmetry.tis_residual_f1(0.0, 1.0), id="tis_residual_f1-zero"),
    pytest.param(lambda: symmetry.tis_residual_f2(1e300, 1.0), id="tis_residual_f2-huge"),
    pytest.param(lambda: symmetry.tis_residual_nontrivial(0.0), id="tis_residual_nontrivial-zero"),
    pytest.param(lambda: symmetry.tis_residual_boyer_naive(1e300, 1.0),
                 id="tis_residual_boyer_naive-huge"),
    pytest.param(lambda: epstein.epstein1_closed(2.0, 1e-300), id="epstein1_closed-tiny-a"),
    pytest.param(lambda: epstein.epstein1_closed(-3.3, 1e300), id="epstein1_closed-huge-a"),
    pytest.param(lambda: epstein.epstein1_closed(-3.3, INF), id="epstein1_closed-inf-a"),
    # Gamma(z) overflows, so the prefactor is 0 and the Bessel terms inf
    pytest.param(lambda: epstein.epstein2_continued(540.0, 6.5, 13.7),
                 id="epstein2_continued-large-z"),
    pytest.param(lambda: specfun.macdonald_half(2, 1e-300), id="macdonald_half-tiny"),
    pytest.param(lambda: specfun.macdonald_half(1, NAN), id="macdonald_half-nan"),
    pytest.param(lambda: specfun.coth_stable(NAN), id="coth_stable-nan"),
    pytest.param(lambda: specfun.inv_sinh_stable(NAN), id="inv_sinh_stable-nan"),
    pytest.param(lambda: PlateSystem(1.0, "bogus"), id="PlateSystem-bogus-kind"),
    pytest.param(lambda: ThermalPoint(10**400), id="ThermalPoint-huge-int"),
    pytest.param(lambda: fe.free_energy_auto(PlateSystem(10**400), 0.3),
                 id="free_energy_auto-huge-int-d"),
    pytest.param(lambda: pr.pressure_auto(10**400, 0.3), id="pressure_auto-huge-int-d"),
    pytest.param(lambda: specfun.riemann_zeta(-10**400), id="riemann_zeta-huge-int"),
    pytest.param(lambda: specfun.coth_stable(10**400), id="coth_stable-huge-int"),
    pytest.param(lambda: specfun.inv_sinh_stable(10**400), id="inv_sinh_stable-huge-int"),
    pytest.param(lambda: specfun.macdonald_half(1, 10**400), id="macdonald_half-huge-int"),
    pytest.param(lambda: epstein.EpsteinParams(2.0, (1.0, 10**400)), id="EpsteinParams-huge-int"),
    pytest.param(lambda: epstein.epstein2_continued(2.0, 1.0, 10**400),
                 id="epstein2_continued-huge-int"),
    pytest.param(lambda: symmetry.f1_eval(10**400, 1.0), id="f1_eval-huge-int-xi"),
    pytest.param(lambda: symmetry.f1_eval(0.3, 10**400), id="f1_eval-huge-int-d"),
    pytest.param(lambda: symmetry.tis_residual_f1(10**400, 1.0), id="tis_residual_f1-huge-int"),
])
def test_out_of_range_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("rep", ["bogus", "", "AUTO", ["coth"]])
def test_unknown_representation_is_unsupported(rep):
    with pytest.raises(UnsupportedRepresentationError, match="representation"):
        fe.evaluate_free_energy(PlateSystem(1.0), ThermalPoint(0.3), CTL, rep)
    with pytest.raises(UnsupportedRepresentationError):
        RepresentationKind(rep)


def test_zeta_at_large_s_rounds_to_one():
    # zeta(s) - 1 < 2^(1-s): below half an ulp of 1 from s = 54 on
    assert specfun.riemann_zeta(1e300) == 1.0
    assert specfun.riemann_zeta(INF) == 1.0
