"""Fresh-interpreter side of the benchmark: imports and times the package.

run.py starts this as ``python3 benchmarks/child.py <mode> '<json args>'``.
Each mode prints one JSON object on stdout; bulky per-op arrays go to a
file that run.py names.  Modes:

* ``probe``  -- time ``import casimir_plates`` and the workload's first op;
* ``points`` -- the sweep-auto loop: routed point ops until a deadline;
* ``verify`` -- one untimed cold ``run_all('default')``, then timed repeats;
* ``trace``  -- per-layer timings untraced, then the same work traced.
"""
from __future__ import annotations

import array
import contextlib
import io
import itertools
import json
import math
import os
import statistics
import sys
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

CHUNK = 2048  # point ops per throughput sample
# fixed first ops of the sweep-auto probe: each kind at 8 log-spaced xi
FIRST_POINTS = tuple((kind, xi, 1.0) for kind in workloads.KINDS
                     for xi in (0.001, 0.004, 0.02, 0.08, 0.3, 1.2, 4.0, 10.0))
FIRST_EVAL = ["eval", "--quantity", "free_energy", "--xi", "0.3"]
# first calls into the validation layers (epstein lattice sums, scipy
# quadrature, the symmetry split), as (call, reference kind, xi, divisor):
# the call's value times the divisor is the reference profile at xi
FIRST_VALIDATION = (("lattice", "boyer", 0.5, 1), ("mode-integral", "boyer", 0.5, 1),
                    ("f1_eval", "conductor", 1.0, 8))


def point_op():
    """op(kind, xi, d) -> EvalResult through the routed public API.

    Looks the functions up at call time of this factory, so a factory call
    made after the tracer is installed returns the traced functions.
    """
    import casimir_plates as cp

    fe_auto, p_auto, plates = cp.free_energy_auto, cp.pressure_auto, cp.PlateSystem
    kinds = {"boyer": cp.PlateKind.BOYER_MIXED, "conductor": cp.PlateKind.CONDUCTOR_CONDUCTOR}

    def op(kind, xi, d):
        if kind == "pressure":
            return p_auto(d, xi)
        return fe_auto(plates(d, kinds[kind]), xi)

    return op


def _cli_main(argv) -> tuple[int, str]:
    from casimir_plates import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def probe(workload: str) -> dict:
    t0 = perf_counter()
    import casimir_plates  # noqa: F401

    t1 = perf_counter()
    out: dict = {}
    if workload == "cli-cold":
        rc, text = _cli_main(FIRST_EVAL)
        out["first"] = {"rc": rc, "stdout": text}
    elif workload == "sweep-auto":
        op = point_op()
        out["first"] = [[r.value, r.abs_err_est] for r in
                        (op(kind, xi, d) for kind, xi, d in FIRST_POINTS)]
    else:
        from casimir_plates import PlateSystem, ThermalPoint, evaluate_free_energy
        from casimir_plates.symmetry import f1_eval

        results = [f1_eval(0.5, 1.0) if call == "f1_eval" else evaluate_free_energy(
            PlateSystem(1.0), ThermalPoint.from_xi(0.5, 1.0), None, call)
            for call, _, _, _ in FIRST_VALIDATION]
        out["first"] = [[r.value, r.abs_err_est] for r in results]
    t2 = perf_counter()
    out.update(import_s=t1 - t0, first_call_s=t2 - t1)
    return out


def points(seed: int, seconds: float, path: str) -> dict:
    """Time routed point ops in chunks of CHUNK until `seconds` have passed.

    Each chunk's per-op nanoseconds, values and error bars go to `path` as
    three int64/float64 arrays of CHUNK entries, so memory stays flat.
    """
    op = point_op()
    stream = workloads.point_ops(seed, workloads.xi_pools(seed))
    chunks, failures = [], []
    done = 0
    deadline = perf_counter() + seconds
    with open(path, "wb") as fh:
        while perf_counter() < deadline:
            batch = list(itertools.islice(stream, CHUNK))
            ns, vals, errs = array.array("q"), array.array("d"), array.array("d")
            c0 = perf_counter_ns()
            for kind, _, xi, d in batch:
                t0 = perf_counter_ns()
                try:
                    r = op(kind, xi, d)
                    v, e = r.value, r.abs_err_est
                except Exception as exc:  # an op that raises is a counted failure
                    v = e = math.nan
                    failures.append([done + len(vals), repr(exc)])
                ns.append(perf_counter_ns() - t0)
                vals.append(v)
                errs.append(e)
            chunks.append([len(batch), (perf_counter_ns() - c0) / 1e9])
            for arr in (ns, vals, errs):
                arr.tofile(fh)
            done += len(batch)
    return {"ops": done, "chunks": chunks, "failures": failures[:20]}


def _battery(run_all) -> dict:
    checks = run_all("default")
    return {"names": [c.name for c in checks], "passed": sum(bool(c.passed) for c in checks)}


def verify(seconds: float) -> dict:
    from casimir_plates.verification import run_all

    t0 = perf_counter()
    cold = _battery(run_all)
    cold_s = perf_counter() - t0
    runs = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        t0 = perf_counter()
        res = _battery(run_all)
        runs.append({"s": perf_counter() - t0, "checks": len(res["names"]),
                     "passed": res["passed"], "same_names": res["names"] == cold["names"]})
    return {"cold_s": cold_s, "cold": cold, "runs": runs}


# ----------------------------------------------------------------- tracing

TRACE_POINTS = 3000
CELL_XI = (0.02, 0.1, 0.5, 2.0, 10.0)
CELL_REPS = ("coth", "double", "bessel", "poisson", "lattice", "mode-integral")
# (representation, xi) cells timed at d = 1; both Poisson forms refuse xi < 0.05
FREE_ENERGY_CELLS = tuple((rep, xi) for xi in CELL_XI for rep in CELL_REPS
                          if not (rep == "poisson" and xi < 0.05))
PRESSURE_CELLS = tuple((form, xi) for xi in CELL_XI for form in ("dfdxi", "poisson")
                       if not (form == "poisson" and xi < 0.05))
LAYERS = ("verification", "symmetry", "free_energy", "pressure", "epstein", "specfun")

# every per-layer metric a traced run reports, in report order
LAYER_METRICS = (
    "import.casimir_plates_ms", "import.scipy_ms", "import.numpy_ms",
    "cli.main_us.eval", "cli.main_ms.sweep",
    "free_energy.auto_us.boyer", "free_energy.auto_us.conductor",
    "free_energy.terms_per_op.boyer", "free_energy.terms_per_op.conductor",
    *(f"free_energy.{rep}_us.xi_{xi:g}" for rep, xi in FREE_ENERGY_CELLS),
    "pressure.auto_us",
    *(f"pressure.{form}_us.xi_{xi:g}" for form, xi in PRESSURE_CELLS),
    "pressure.sum_until_calls_per_op",
    "pressure.sum_until_calls_per_op.dfdxi", "pressure.sum_until_calls_per_op.poisson",
    "specfun.riemann_zeta_us", "specfun.coth_stable_ns", "specfun.inv_sinh_stable_ns",
    "specfun.macdonald_half_ns",
    "specfun.riemann_zeta.calls_per_op",
    "specfun.riemann_zeta.calls_per_op.poisson", "specfun.riemann_zeta.calls_per_op.conductor",
    "specfun.sum_until.calls_per_op", "specfun.sum_until.terms_per_op",
    "specfun.sum_until.self_s", "specfun.sum_until.self_s.verify",
    "epstein.direct_ms", "epstein.continued_us", "epstein.direct.calls_per_run",
    "symmetry.f1_eval_ms", "symmetry.identity_plain_ms",
    "symmetry.lattice_calls_per_run", "symmetry.f1_eval.lattice_calls",
    *(f"verification.self_s.{layer}" for layer in LAYERS),
    "trace.overhead_ratio.points", "trace.overhead_ratio.verify",
)


def _per_call(fn, min_reps: int = 3, budget_s: float = 0.05) -> float:
    """Median seconds per call over at least min_reps calls and budget_s."""
    times = []
    end = perf_counter() + budget_s
    while len(times) < min_reps or perf_counter() < end:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _per_call_batched(fn, arg, batch: int = 2000, batches: int = 7) -> float:
    """Median seconds per call of a cheap kernel, timed in batches."""
    samples = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        for _ in range(batch):
            fn(arg)
        samples.append((perf_counter_ns() - t0) / 1e9 / batch)
    return statistics.median(samples)


def _layer_timings(m: dict, seed: int):
    """Untraced per-call timings of each layer at fixed inputs."""
    from casimir_plates import epstein, specfun, symmetry
    from casimir_plates.free_energy import PlateSystem, ThermalPoint, evaluate_free_energy
    from casimir_plates.pressure import pressure_net_dfdxi, pressure_poisson

    m["specfun.riemann_zeta_us"] = _per_call_batched(specfun.riemann_zeta, 3.0, 200) * 1e6
    m["specfun.coth_stable_ns"] = _per_call_batched(specfun.coth_stable, 0.7) * 1e9
    m["specfun.inv_sinh_stable_ns"] = _per_call_batched(specfun.inv_sinh_stable, 0.7) * 1e9
    m["specfun.macdonald_half_ns"] = _per_call_batched(
        lambda z: specfun.macdonald_half(1, z), 0.7) * 1e9
    boyer = PlateSystem(1.0)
    for rep, xi in FREE_ENERGY_CELLS:
        t = ThermalPoint.from_xi(xi, 1.0)
        m[f"free_energy.{rep}_us.xi_{xi:g}"] = _per_call(
            lambda: evaluate_free_energy(boyer, t, None, rep)) * 1e6
    forms = {"dfdxi": pressure_net_dfdxi, "poisson": pressure_poisson}
    for form, xi in PRESSURE_CELLS:
        t = ThermalPoint.from_xi(xi, 1.0)
        m[f"pressure.{form}_us.xi_{xi:g}"] = _per_call(lambda: forms[form](t, 1.0)) * 1e6
    m["epstein.direct_ms"] = _per_call(
        lambda: epstein.epstein_direct(epstein.EpsteinParams(2.0, (1.0, 4.0)))) * 1e3
    m["epstein.continued_us"] = _per_call(
        lambda: epstein.epstein2_continued(2.0, 1.0, 4.0)) * 1e6
    m["symmetry.f1_eval_ms"] = _per_call(lambda: symmetry.f1_eval(0.5, 1.0)) * 1e3
    m["symmetry.identity_plain_ms"] = _per_call(lambda: symmetry.identity_plain(1.0)) * 1e3
    evals = [c["argv"] for c in itertools.islice(
        workloads.cli_commands(seed, workloads.xi_pools(seed)), 40) if c["cmd"] == "eval"]
    m["cli.main_us.eval"] = statistics.median(
        _per_call(lambda: _cli_main(a), 1, 0.0) for a in evals) * 1e6


def _cli_sweep_ms(tmp: str) -> float:
    argv = ["sweep", "--quantity", "free_energy", "--xi-min", "1e-3", "--xi-max", "10",
            "--points", "1000", "--spacing", "log", "--out", os.path.join(tmp, "sweep.csv")]
    return _per_call(lambda: _cli_main(argv), 3, 0.0) * 1e3


def _run_groups(op, groups) -> tuple[dict, list]:
    """Time each kind's ops as one group; returns seconds per kind and results."""
    secs, results = {}, []
    for kind, ops in groups.items():
        t0 = perf_counter()
        results.extend((i, op(kind, xi, d)) for i, (_, _, xi, d) in ops)
        secs[kind] = perf_counter() - t0
    return secs, results


def trace(seed: int, tmp: str, spans_path: str) -> dict:
    import casimir_plates  # noqa: F401
    from casimir_plates.verification import run_all

    from tracer import Tracer

    m: dict = {}
    _layer_timings(m, seed)
    m["cli.main_ms.sweep"] = _cli_sweep_ms(tmp)
    ops = list(itertools.islice(
        workloads.point_ops(seed, workloads.xi_pools(seed)), TRACE_POINTS))
    groups = {k: [(i, o) for i, o in enumerate(ops) if o[0] == k] for k in workloads.KINDS}
    plain_s, results = _run_groups(point_op(), groups)
    verify_plain_s = _per_call(lambda: run_all("default"), 3, 0.0)

    tr = Tracer()
    tr.install()
    try:
        op = point_op()
        traced_s, by_kind = {}, {}
        points_start = tr.mark()
        for kind, g in groups.items():
            mark = tr.mark()
            secs, _ = _run_groups(op, {kind: g})
            traced_s[kind] = secs[kind]
            by_kind[kind] = tr.summary(mark)
        merged = tr.summary(points_start)
        cells = {}
        for label, calls in (
            ("dfdxi", [lambda xi=xi: op("pressure", xi, 1.0) for xi in (0.02, 0.1)]),
            ("poisson", [lambda xi=xi: op("pressure", xi, 1.0) for xi in (0.5, 2.0, 10.0)]),
            ("boyer-poisson", [lambda xi=xi: op("boyer", xi, 1.0) for xi in (0.5, 2.0, 10.0)]),
            ("conductor", [lambda xi=xi: op("conductor", xi, 1.0) for xi in CELL_XI]),
            ("f1_eval", [lambda: casimir_plates.symmetry.f1_eval(0.5, 1.0)]),
        ):
            mark = tr.mark()
            for call in calls:
                call()
            cells[label] = (len(calls), tr.summary(mark))
        mark = tr.mark()
        t0 = perf_counter()
        checks = casimir_plates.verification.run_all("default")
        verify_traced_s = perf_counter() - t0
        battery = tr.summary(mark)
    finally:
        tr.uninstall()
    tr.write(spans_path)

    def calls(summary, name):
        return summary.get(name, {}).get("calls", 0)

    n = {k: len(g) for k, g in groups.items()}
    total_ops = sum(n.values())
    for kind in ("boyer", "conductor"):
        m[f"free_energy.auto_us.{kind}"] = plain_s[kind] / n[kind] * 1e6
        m[f"free_energy.terms_per_op.{kind}"] = (
            by_kind[kind]["free_energy.free_energy_auto"]["terms"] / n[kind])
    m["pressure.auto_us"] = plain_s["pressure"] / n["pressure"] * 1e6
    m["pressure.sum_until_calls_per_op"] = (
        calls(by_kind["pressure"], "specfun.sum_until") / n["pressure"])
    for label in ("dfdxi", "poisson"):
        k, summary = cells[label]
        m[f"pressure.sum_until_calls_per_op.{label}"] = calls(summary, "specfun.sum_until") / k
    for label, key in (("boyer-poisson", "poisson"), ("conductor", "conductor")):
        k, summary = cells[label]
        m[f"specfun.riemann_zeta.calls_per_op.{key}"] = (
            calls(summary, "specfun.riemann_zeta") / k)
    m["specfun.riemann_zeta.calls_per_op"] = calls(merged, "specfun.riemann_zeta") / total_ops
    m["specfun.sum_until.calls_per_op"] = calls(merged, "specfun.sum_until") / total_ops
    m["specfun.sum_until.terms_per_op"] = (
        merged.get("specfun.sum_until", {}).get("terms", 0) / total_ops)
    m["specfun.sum_until.self_s"] = merged.get("specfun.sum_until", {}).get("self_s", 0.0)
    m["specfun.sum_until.self_s.verify"] = battery.get("specfun.sum_until", {}).get("self_s", 0.0)
    m["epstein.direct.calls_per_run"] = calls(battery, "epstein.epstein_direct")
    m["symmetry.lattice_calls_per_run"] = calls(battery, "free_energy.f_conducting_lattice")
    m["symmetry.f1_eval.lattice_calls"] = calls(cells["f1_eval"][1],
                                                "free_energy.f_conducting_lattice")
    for layer in LAYERS:
        m[f"verification.self_s.{layer}"] = sum(
            rec["self_s"] for name, rec in battery.items() if name.split(".")[0] == layer)
    m["trace.overhead_ratio.points"] = sum(traced_s.values()) / sum(plain_s.values())
    m["trace.overhead_ratio.verify"] = verify_traced_s / verify_plain_s
    return {
        "metrics": m,
        "points": [[i, r.value, r.abs_err_est] for i, r in results],
        "battery": {"checks": len(checks), "passed": sum(bool(c.passed) for c in checks)},
        "spans": len(tr.start),
    }


def main(argv) -> int:
    mode, args = argv[0], json.loads(argv[1])
    if mode == "probe":
        out = probe(args["workload"])
    elif mode == "points":
        out = points(args["seed"], args["seconds"], args["path"])
    elif mode == "verify":
        out = verify(args["seconds"])
    elif mode == "trace":
        out = trace(args["seed"], args["tmp"], args["spans"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
