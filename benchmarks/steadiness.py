"""Steadiness mode: repeat the benchmark and compare each metric's spread with its bound.

    python3 benchmarks/steadiness.py --workload sweep-auto --seeds 1-10

Runs ``benchmarks/run.py`` once per seed, one run at a time, with the
run_seconds of BENCHMARK.json.  For each end-to-end metric it prints the
median of the runs and their spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median.  A
spread above a third of the metric's bound is flagged, except for setup_s,
whose bound applies to its median only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            failed += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += not result["correct"]
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    print(f"{args.workload}: {len(values['setup_s'])} runs, {failed} failed or incorrect")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        if len(xs) < 2:
            continue
        s = spread(xs)
        gated = m["name"] != "setup_s"
        flag = "  ABOVE bound/3" if gated and s > m["bound"] / 3 else ""
        print(f"  {m['name']:<18} median={statistics.median(xs):.6g} {m['unit']:<6} "
              f"spread={s:.4f} bound={m['bound']}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
