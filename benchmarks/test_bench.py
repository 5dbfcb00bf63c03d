"""Self-tests of the benchmark: the mpmath oracle, the checker, the inputs.

    python3 -m pytest -q benchmarks/test_bench.py
"""
from __future__ import annotations

import json
import math
import os
import sys

import pytest
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts src/ on sys.path)
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402



@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(oracle.DPS):
        yield


def _rel(a, b):
    return abs(a - b) / abs(b)


# ------------------------------------------------------------------ oracle


def test_zero_temperature_anchors():
    PI2 = mp.pi**2
    assert _rel(oracle.boyer(1e-3), 7 * PI2 / 5760) < 1e-30  # (7/8) pi^2/720
    assert _rel(oracle.pressure(1e-3), 7 * PI2 / 1920) < 1e-30  # (7/8) pi^2/240
    # the conducting pair keeps its power-law n = 0 mode: -pi^2/720 - pi^2 zeta(3) xi^3/2
    xi = mpf("0.01")
    low_t = -PI2 / 720 - PI2 * mp.zeta(3) * xi**3 / 2
    assert _rel(oracle.conductor(xi), low_t) < 1e-30
    assert _rel(oracle.conductor(1e-6), -PI2 / 720) < 1e-15


@pytest.mark.parametrize("xi", ["2", "3", "10"])
def test_stefan_boltzmann_limit(xi):
    xi = mpf(xi)
    sb = -mp.pi**6 * xi**4 / 45
    z3 = mp.zeta(3)
    # high-temperature closed forms; the neglected terms are O(e^{-4 pi^2 xi})
    assert _rel(oracle.conductor(xi), sb - z3 * xi / 8) < 1e-28
    assert _rel(oracle.boyer(xi), sb + 3 * z3 * xi / 32) < 1e-28
    assert _rel(oracle.pressure(xi), -sb + 3 * z3 * xi / 16) < 1e-28


@pytest.mark.parametrize("xi", ["0.05", "0.1", "0.2", "0.3", "1"])
def test_pressure_forms_agree(xi):
    log_form = oracle.pressure(xi, "thermal-log")
    assert _rel(oracle.pressure(xi, "mode-derivative"), log_form) < 1e-30


@pytest.mark.parametrize("xi", ["0.2", "0.3", "0.5"])
def test_inversion_branch_matches_direct_mode_sum(xi):
    direct, _ = oracle._modes(mpf(xi))
    assert _rel(oracle.conductor(xi), direct) < 1e-30


@pytest.mark.parametrize("kind", workloads.KINDS)
@pytest.mark.parametrize("x0", [0.002, 0.05, 0.7, 9.0])
def test_taylor_step_reproduces_the_profile(kind, x0):
    g0, g1, g2 = oracle.profile_taylor(kind, x0)
    for steps in (-(2**22), 12345, 2**22 - 1):
        xi = x0 + steps * 2.0 * math.ulp(x0)
        dx = mpf(xi) - mpf(x0)
        assert _rel(g0 + dx * (g1 + dx * g2), oracle.PROFILES[kind](xi)) < 1e-24


@pytest.mark.parametrize("kind", workloads.KINDS)
@pytest.mark.parametrize("xi", [0.003, 0.05, 0.3, 0.4, 2.0, 10.0])
def test_package_within_rounding_floor(kind, xi):
    op = child.point_op()
    r = op(kind, xi, 1.0)
    ok, _ = run.classify(r.value, r.abs_err_est, run.dyadic(oracle.PROFILES[kind](xi)))
    assert ok


# ----------------------------------------------------------------- checker


def test_checker_rejects_a_1e9_relative_perturbation():
    op = child.point_op()
    for kind in workloads.KINDS:
        r = op(kind, 0.5, 2.0)
        ref = run.dyadic(oracle.PROFILES[kind](0.5))
        scale = run.scale_of(kind, "", 2.0)
        assert run.classify(r.value, r.abs_err_est, ref, scale)[0]
        assert run.classify(r.value * (1 + 1e-9), r.abs_err_est, ref, scale) == (False, False)


def test_checker_is_exact_at_the_error_bar():
    ref = run.dyadic(mpf(1))
    assert run.classify(1.0 + 2**-40, 2**-40, ref) == (True, True)
    assert run.classify(1.0 + 2**-40, 2**-41, ref) == (False, False)
    assert run.classify(1.0 + 2**-52, 0.0, ref) == (True, False)  # within the 4-ulp floor
    assert run.classify(math.nan, 0.0, ref) == (False, False)


def test_tampered_bessel_sign_fails_the_verify_battery(monkeypatch):
    from casimir_plates import free_energy

    monkeypatch.setattr(free_energy, "_BESSEL_THERMAL_SIGN", -1.0)
    res = child.verify(0.01)
    assert res["runs"]
    tally = run.Tally()
    failed = sum(not run.verify_run_ok(r, tally) for r in res["runs"])
    assert failed == len(res["runs"])  # error_rate = 1 on this workload


# ------------------------------------------------------------------ inputs


def test_inputs_are_seeded_and_distinct():
    assert workloads.xi_pools(7) == workloads.xi_pools(7)
    assert workloads.xi_pools(7) != workloads.xi_pools(8)
    ops = [op for op, _ in zip(workloads.point_ops(7, workloads.xi_pools(7)), range(20000))]
    assert len({(xi, d) for _, _, xi, d in ops}) == len(ops)
    assert len({xi for _, _, xi, _ in ops}) == len(ops)
    lo, hi = workloads.XI_RANGE
    assert all(lo * (1 - 1e-12) <= xi <= hi * (1 + 1e-12) for _, _, xi, _ in ops)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {name: run.layer_unit(name) for name in child.LAYER_METRICS}
