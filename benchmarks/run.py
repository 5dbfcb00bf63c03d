"""casimir-plates benchmark: times three workloads and checks every output.

    python3 benchmarks/run.py --workload {cli-cold,sweep-auto,verify-battery}
                              --seed N --seconds S --trace {0,1}

Run it from the repository root; it needs no build and no install, only the
source tree under src/.  Each workload is a closed loop with one client:

* cli-cold:       cold `python -m casimir_plates.cli` commands, one at a time;
* sweep-auto:     routed point ops (free_energy_auto for both plate pairs and
                  pressure_auto) in one fresh child process;
* verify-battery: verification.run_all('default') repeated in one child.

Every value is checked against the mpmath reference in oracle.py.  The
report lines name each metric with its unit and sample count; the last
line is one JSON object.  With --trace 0 it carries the end-to-end metrics
of BENCHMARK.json; with --trace 1 a separate traced run gives the
per-layer metrics, including the tracing overhead.  Working files go to
.bench_out/ in the repository root.
"""
from __future__ import annotations

import argparse
import array
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from mpmath import mp, mpf

import oracle
import workloads
from child import FIRST_POINTS, FIRST_VALIDATION, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

PROBES = 7  # fresh interpreters per run for setup_s and the first-call time
CHILD_TIMEOUT_S = 100
EPS = sys.float_info.epsilon
ROUNDING_ULPS = 4  # an op fails beyond abs_err_est + 4 eps |value|

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "errbar_hold_rate": "ratio",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off the first dotted part that names one."""
    for part in name.split(".")[1:]:
        for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_ns", "ns"), ("_s", "s")):
            if part.endswith(suffix):
                return unit
    return "ratio" if "ratio" in name else "count"


# ------------------------------------------------------------------ helpers


class ChildError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def run_child(argv: list[str], tmp: str) -> tuple[float, int, float, str, str]:
    """Run one child to completion: (wall s, exit code, peak RSS MB, stdout, stderr)."""
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_env())
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise ChildError(f"timed out: {argv}") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


def run_json_child(mode: str, args: dict, tmp: str) -> dict:
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, json.dumps(args)]
    _, rc, rss, stdout, stderr = run_child(argv, tmp)
    if rc != 0:
        raise ChildError(f"child {mode} exited {rc}:\n{stderr[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["child_rss_mb"] = rss
    return out


def pct(xs, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order statistics."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Refs:
    """mpmath references, cached per seed in .bench_out/refs/.

    The cache file name carries a digest of oracle.py and workloads.py, so
    editing the oracle or the inputs never reuses stale values.
    """

    def __init__(self, seed: int):
        digest = hashlib.sha256()
        for name in ("oracle.py", "workloads.py"):
            with open(os.path.join(HERE, name), "rb") as fh:
                digest.update(fh.read())
        digest = digest.hexdigest()[:12]
        os.makedirs(os.path.join(OUT, "refs"), exist_ok=True)
        self.path = os.path.join(OUT, "refs", f"{digest}-seed{seed}.json")
        stored: dict[str, list[str]] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                stored = json.load(fh)
        self.data = {key: tuple(mpf(v) for v in vals) for key, vals in stored.items()}
        self.exact: dict[str, tuple] = {}
        self.pools = workloads.xi_pools(seed)
        self.computed = 0

    def _get(self, key: str, compute) -> tuple:
        if key not in self.data:
            self.data[key] = compute()
            self.computed += 1
        return self.data[key]

    def profile(self, kind: str, xi: float) -> tuple[int, int]:
        """Exact dyadic of the reference profile at xi."""
        return dyadic(self._get(f"{kind}|{xi!r}", lambda: (oracle.PROFILES[kind](xi),))[0])

    def near_pool(self, kind: str, k: int, xi: float) -> tuple[int, int]:
        """Profile at xi by a second-order Taylor step from pool point k.

        xi lies within 2^-29 of the pool point x0, so xi - x0 is exact.
        """
        x0 = self.pools[kind][k]
        key = f"{kind}|{x0!r}|taylor"
        if key not in self.exact:
            terms = self._get(key, lambda: oracle.profile_taylor(kind, x0))
            self.exact[key] = tuple(dyadic(t) for t in terms)
        g0, g1, g2 = self.exact[key]
        step = dyadic(xi - x0)
        return add(g0, mul(step, add(g1, mul(step, g2))))

    def save(self):
        if self.computed:
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({key: [mp.nstr(v, oracle.DPS + 4) for v in vals]
                           for key, vals in self.data.items()}, fh)
            os.replace(tmp, self.path)


# Outputs are compared with their references exactly, as dyadic rationals
# m 2^e held in Python ints: a float or an mpf converts without rounding.


def dyadic(x) -> tuple[int, int]:
    """x (float or mpf) as (m, e) with x = m 2^e exactly."""
    if isinstance(x, float):
        n, den = x.as_integer_ratio()
        return n, 1 - den.bit_length()
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def add(a, b):
    e = min(a[1], b[1])
    return (a[0] << (a[1] - e)) + (b[0] << (b[1] - e)), e


def mul(a, b):
    return a[0] * b[0], a[1] + b[1]


def _abs_le(a, b) -> bool:
    e = min(a[1], b[1])
    return abs(a[0]) << (a[1] - e) <= b[0] << (b[1] - e)


ONE = (1, 0)
FLOOR = dyadic(ROUNDING_ULPS * EPS)


def scale_of(kind: str, quantity: str, d: float) -> tuple[int, int]:
    """d^3 (free energy) or d^4 (pressure) that divides a reference profile;
    1 for the d-scaled CLI quantities."""
    if quantity in ("f_scaled", "p_scaled"):
        return ONE
    m, e = dyadic(d)
    p = oracle.POWER[kind]
    return m**p, e * p


def classify(value: float, err: float, ref: tuple[int, int],
             scale: tuple[int, int] = ONE) -> tuple[bool, bool]:
    """(correct, within error bar) of one output against the reference ref/scale.

    Correct means |value - ref| <= abs_err_est + 4 eps |value|; within the
    error bar means |value - ref| <= abs_err_est with no rounding floor.
    Both are decided exactly (scale > 0 multiplies through).
    """
    if not (math.isfinite(value) and math.isfinite(err) and err >= 0.0):
        return False, False
    dev = add(mul(dyadic(value), scale), (-ref[0], ref[1]))
    err_s = mul(dyadic(err), scale)
    floor = mul(FLOOR, mul(dyadic(abs(value)), scale))
    return _abs_le(dev, add(err_s, floor)), _abs_le(dev, err_s)


class Tally:
    """Checked values of one workload run."""

    def __init__(self):
        self.values = self.wrong = self.outside = 0

    def add(self, ok: bool, inside: bool) -> bool:
        self.values += 1
        self.wrong += not ok
        self.outside += not inside
        return ok


def probes(workload: str, tmp: str, refs: Refs, tally: Tally) -> dict:
    """PROBES fresh interpreters: import time, first-op time, first-op check."""
    runs = [run_json_child("probe", {"workload": workload}, tmp) for _ in range(PROBES)]
    failed = 0
    for r in runs:
        first = r["first"]
        if workload == "cli-cold":
            ok = first["rc"] == 0 and check_eval_line(first["stdout"], "boyer", "free_energy",
                                                      1.0, 0.3, None, refs, tally)
        elif workload == "sweep-auto":
            ok = all([tally.add(*classify(v, e, refs.profile(kind, xi), scale_of(kind, "", d)))
                      for (kind, xi, d), (v, e) in zip(FIRST_POINTS, first)])
        else:
            ok = all([tally.add(*classify(v, e, refs.profile(kind, xi), (div, 0)))
                      for (_, kind, xi, div), (v, e) in zip(FIRST_VALIDATION, first)])
        failed += not ok
    return {
        "setup_s": statistics.median(r["import_s"] for r in runs),
        "first_call_ms": statistics.median(r["first_call_s"] for r in runs) * 1e3,
        "rss_mb": max(r["child_rss_mb"] for r in runs),
        "attempted": len(runs),
        "failed": failed,
    }


def check_eval_line(line: str, kind: str, quantity: str, d: float, xi: float,
                    pool: int | None, refs: Refs, tally: Tally) -> bool:
    """Check `casimir eval` output 'value err terms rep' against the reference."""
    try:
        value_s, err_s, _, _ = line.split()
        value, err = float(value_s), float(err_s)
    except ValueError:
        tally.add(False, False)
        return False
    profile = refs.near_pool(kind, pool, xi) if pool is not None else refs.profile(kind, xi)
    return tally.add(*classify(value, err, profile, scale_of(kind, quantity, d)))


def check_sweep_csv(path: str, cmd: dict, refs: Refs, tally: Tally) -> bool:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    if len(rows) != workloads.SWEEP_POINTS:
        tally.add(False, False)
        return False
    ok = True
    scale = scale_of(cmd["kind"], cmd["quantity"], cmd["d"])
    for row in rows:
        try:
            xi, value, err = float(row["xi"]), float(row["value"]), float(row["abs_err_est"])
        except (TypeError, ValueError):
            ok = tally.add(False, False)
            continue
        ok &= tally.add(*classify(value, err, refs.profile(cmd["kind"], xi), scale))
    return ok


# ---------------------------------------------------------------- workloads


def cli_cold(seed: int, seconds: float, tmp: str, refs: Refs) -> dict:
    tally = Tally()
    pr = probes("cli-cold", tmp, refs, tally)
    commands = workloads.cli_commands(seed, refs.pools)
    done = []
    swept = 0
    deadline = perf_counter() + seconds
    # run past the deadline if needed to sweep every combo once, so the mix
    # of checked values is the same in every run
    while perf_counter() < deadline or swept < len(workloads.SWEEP_D):
        cmd = next(commands)
        swept += cmd["cmd"] == "sweep"
        argv = [sys.executable, "-m", "casimir_plates.cli", *cmd["argv"]]
        if cmd["cmd"] == "sweep":
            cmd["csv"] = os.path.join(tmp, f"sweep-{len(done)}.csv")
            argv += ["--out", cmd["csv"]]
        cmd["wall"], cmd["rc"], cmd["rss"], cmd["stdout"], _ = run_child(argv, tmp)
        done.append(cmd)
    failed = 0
    for cmd in done:
        if cmd["rc"] != 0:
            ok = False
        elif cmd["cmd"] == "eval":
            ok = check_eval_line(cmd["stdout"], cmd["kind"], cmd["quantity"], cmd["d"],
                                 cmd["xi"], cmd["pool"], refs, tally)
        else:
            ok = check_sweep_csv(cmd["csv"], cmd, refs, tally)
        failed += not ok
    walls = [c["wall"] for c in done]
    evals = [c["wall"] for c in done if c["cmd"] == "eval"]
    sweeps = [c["wall"] for c in done if c["cmd"] == "sweep"]
    lines = [
        f"cli_eval_s.p50 = {pct(evals, 50):.4f} s (n={len(evals)})" if evals else "",
        f"cli_eval_s.p90 = {pct(evals, 90):.4f} s (n={len(evals)})" if evals else "",
        f"cli_sweep_s.p50 = {pct(sweeps, 50):.4f} s (n={len(sweeps)})" if sweeps else "",
    ]
    return {
        "probes": pr, "tally": tally, "attempted": len(done), "failed": failed,
        "op_s": walls, "ops_per_s": len(done) / sum(walls),
        "rss_mb": max([pr["rss_mb"]] + [c["rss"] for c in done]), "lines": lines,
    }


def sweep_auto(seed: int, seconds: float, tmp: str, refs: Refs) -> dict:
    tally = Tally()
    pr = probes("sweep-auto", tmp, refs, tally)
    path = os.path.join(tmp, "points.bin")
    res = run_json_child("points", {"seed": seed, "seconds": seconds, "path": path}, tmp)
    n = res["ops"]
    failed = 0
    op_s = []
    stream = workloads.point_ops(seed, refs.pools)
    with open(path, "rb") as fh:
        for size, _ in res["chunks"]:
            ns, vals, errs = array.array("q"), array.array("d"), array.array("d")
            for arr in (ns, vals, errs):
                arr.fromfile(fh, size)
            op_s.extend(t / 1e9 for t in ns)
            for value, err in zip(vals, errs):
                kind, k, xi, d = next(stream)
                ref = refs.near_pool(kind, k, xi)
                failed += not tally.add(*classify(value, err, ref, scale_of(kind, "", d)))
    rates = [c / s for c, s in res["chunks"]]
    lines = [
        f"points_per_s = {statistics.median(rates):.1f} 1/s (median of {len(rates)} chunks"
        f" of {res['chunks'][0][0]} ops)",
        f"point_us.p50 = {pct(op_s, 50) * 1e6:.3f} us (n={n})",
        f"point_us.p99 = {pct(op_s, 99) * 1e6:.3f} us (n={n})",
    ]
    for f in res["failures"]:
        lines.append(f"op {f[0]} raised {f[1]}")
    return {
        "probes": pr, "tally": tally, "attempted": n, "failed": failed, "op_s": op_s,
        "ops_per_s": statistics.median(rates),
        "rss_mb": max(pr["rss_mb"], res["child_rss_mb"]), "lines": lines,
    }


def verify_run_ok(run: dict, tally: Tally) -> bool:
    """A battery run is correct when it has checks, all pass, and their names
    match the cold run's; each check counts as one value within its error bar
    (its tolerance) when it passes."""
    ok = run["checks"] > 0 and run["passed"] == run["checks"] and run["same_names"]
    for j in range(run["checks"]):
        tally.add(ok, j < run["passed"])
    return ok


def verify_battery(seed: int, seconds: float, tmp: str, refs: Refs) -> dict:
    tally = Tally()
    pr = probes("verify-battery", tmp, refs, tally)
    res = run_json_child("verify", {"seconds": seconds}, tmp)
    failed = sum(not verify_run_ok(r, tally) for r in res["runs"])
    op_s = [r["s"] for r in res["runs"]]
    lines = [
        f"verify_s.p50 = {pct(op_s, 50):.4f} s (n={len(op_s)})",
        f"verify_s.p90 = {pct(op_s, 90):.4f} s (n={len(op_s)})",
        f"verify cold call = {res['cold_s']:.4f} s (untimed in op_ms)",
        f"checks per run = {res['cold']['passed']}/{len(res['cold']['names'])} passed",
    ]
    return {
        "probes": pr, "tally": tally, "attempted": len(op_s), "failed": failed,
        "op_s": op_s, "ops_per_s": len(op_s) / sum(op_s),
        "rss_mb": max(pr["rss_mb"], res["child_rss_mb"]), "lines": lines,
    }


WORKLOADS = {"cli-cold": cli_cold, "sweep-auto": sweep_auto, "verify-battery": verify_battery}


def end_to_end(res: dict) -> dict:
    pr, tally = res["probes"], res["tally"]
    values = {
        "setup_s": pr["setup_s"],
        "op_ms.p50": pct(res["op_s"], 50) * 1e3,
        "ops_per_s": res["ops_per_s"],
        "peak_rss_mb": res["rss_mb"],
        "errbar_hold_rate": 1.0 - tally.outside / tally.values,
    }
    attempted = res["attempted"] + pr["attempted"]
    failed = res["failed"] + pr["failed"]
    res["lines"] += [
        f"first_call_ms = {pr['first_call_ms']:.4f} ms (median of {pr['attempted']} fresh "
        f"interpreters; not gated, see README)",
        f"error_rate = {failed / attempted:.6f} ({failed}/{attempted} ops, incl. "
        f"{pr['attempted']} probe first calls)",
        f"errbar_miss_rate = {tally.outside / tally.values:.6f} "
        f"({tally.outside}/{tally.values} checked values beyond abs_err_est)",
        f"rounding-floor failures = {tally.wrong}/{tally.values} checked values",
        f"samples: op_ms n={len(res['op_s'])}, setup/first_call n={pr['attempted']}",
    ]
    return {"attempted": attempted, "failed": failed, "values": values}


# -------------------------------------------------------------------- trace

IMPORT_METRICS = {"casimir_plates": "import.casimir_plates_ms", "scipy": "import.scipy_ms",
                  "numpy": "import.numpy_ms"}


def import_times(tmp: str) -> dict:
    """Import time of the package, scipy and numpy from `python -X importtime`.

    A package's time is the cumulative time of its outermost modules: those
    imported while no other module of the same package was being imported.
    """
    samples = {name: [] for name in IMPORT_METRICS.values()}
    for _ in range(3):
        _, rc, _, _, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import casimir_plates"], tmp)
        if rc != 0:
            raise ChildError(f"import failed:\n{stderr[-2000:]}")
        totals = dict.fromkeys(IMPORT_METRICS, 0)
        stack: list[tuple[int, str]] = []  # open ancestors, walking the tree top down
        rows = [line.split("|") for line in stderr.splitlines() if line.startswith("import time:")]
        for _, cumulative, raw in reversed(rows[1:]):  # rows are printed children first
            depth = len(raw) - len(raw.lstrip())
            top = raw.strip().split(".")[0]
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if top in totals and all(anc != top for _, anc in stack):
                totals[top] += int(cumulative)
            stack.append((depth, top))
        for pkg, name in IMPORT_METRICS.items():
            samples[name].append(totals[pkg] / 1e3)
    return {name: statistics.median(xs) for name, xs in samples.items()}


def traced(seed: int, tmp: str, refs: Refs) -> dict:
    tally = Tally()
    spans = os.path.join(OUT, f"spans-seed{seed}.tsv")
    res = run_json_child("trace", {"seed": seed, "tmp": tmp, "spans": spans}, tmp)
    metrics = import_times(tmp)
    metrics.update(res["metrics"])
    if set(metrics) != set(LAYER_METRICS):
        raise ChildError(f"per-layer metrics differ from the declared set: "
                         f"{sorted(set(metrics) ^ set(LAYER_METRICS))}")
    stream = workloads.point_ops(seed, refs.pools)
    ops = [next(stream) for _ in range(max(i for i, _, _ in res["points"]) + 1)]
    failed = 0
    for i, value, err in res["points"]:
        kind, k, xi, d = ops[i]
        failed += not tally.add(*classify(value, err, refs.near_pool(kind, k, xi),
                                          scale_of(kind, "", d)))
    battery_ok = res["battery"]["checks"] > 0 and res["battery"]["passed"] == res["battery"]["checks"]
    failed += not battery_ok
    lines = [f"{name} = {metrics[name]!r} {layer_unit(name)}" for name in LAYER_METRICS]
    lines.append(f"spans recorded = {res['spans']} (written to {os.path.relpath(spans, ROOT)})")
    return {"attempted": len(res["points"]) + 1, "failed": failed, "values": metrics,
            "lines": lines, "units": {name: layer_unit(name) for name in LAYER_METRICS}}


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "casimir_plates", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    mp.dps = oracle.DPS
    os.makedirs(OUT, exist_ok=True)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    refs = Refs(args.seed)
    t0 = perf_counter()
    try:
        if args.trace:
            res = traced(args.seed, tmp, refs)
            units = res["units"]
            summary = res
        else:
            res = WORKLOADS[args.workload](args.seed, args.seconds, tmp, refs)
            summary = end_to_end(res)
            units = END_TO_END
    finally:
        refs.save()
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s measured, "
          f"trace {args.trace}, {perf_counter() - t0:.1f} s total")
    for line in res["lines"]:
        if line:
            print("  " + line)
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["values"][name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
