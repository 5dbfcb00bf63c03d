"""Seeded inputs of the benchmark workloads.

Both run.py (which checks results) and its child processes (which time
them) import this module, so the same seed always yields the same inputs.
No xi repeats and so no (d, xi) point repeats: each op draws a fresh
log-uniform d, and takes its xi from a per-seed pool of log-stratified
points, moved off the pool point by a step of a few ulps to 2^-29 that is
new on every visit.  A memo cache keyed on xi or on (d, xi) never hits,
while the mpmath reference stays a short Taylor step from a pool point.
"""
from __future__ import annotations

import math
import random

XI_RANGE = (1e-3, 10.0)
D_RANGE = (1e-2, 1e2)
POOL = 256  # pool points per kind of op
STEPS = 2**23  # distinct steps per pool point, each a multiple of 2 ulps
KINDS = ("boyer", "conductor", "pressure")

# (quantity, system, reference kind) of every valid `casimir eval`/`sweep`
CLI_COMBOS = (
    ("free_energy", "boyer", "boyer"),
    ("f_scaled", "conductor", "conductor"),
    ("pressure", "boyer", "pressure"),
    ("free_energy", "conductor", "conductor"),
    ("p_scaled", "boyer", "pressure"),
    ("f_scaled", "boyer", "boyer"),
)
SWEEP_EVERY = 4  # every 4th of the first 24 cold commands sweeps one combo
SWEEP_POINTS = 1000
# one plate separation per swept combo, spread over D_RANGE.  How often an
# output misses its own error bar depends on d through rounding, so a random
# d per sweep would make the workload's errbar_hold_rate swing from seed to
# seed; the evals still draw d at random.
SWEEP_D = (0.02, 0.2, 2.0, 20.0, 0.06, 60.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def xi_pools(seed: int) -> dict[str, list[float]]:
    """POOL log-uniform xi per kind, one in each equal stratum of ln xi.

    Stratifying keeps the mix of cheap and expensive points the same from
    seed to seed, so the seed moves the inputs but not the cost profile.
    """
    rng = random.Random(f"{seed}:pool")
    a, b = (math.log(x) for x in XI_RANGE)
    return {
        k: [math.exp(a + (b - a) * (i + rng.random()) / POOL) for i in range(POOL)]
        for k in KINDS
    }


class _Visits:
    """The c-th visit of a pool point x0 gets x0 + s_c 2 ulp(x0), where
    s_c = (c P mod STEPS) - STEPS/2 with P odd: distinct for every c < STEPS."""

    def __init__(self):
        self.count: dict[tuple[str, int], int] = {}

    def xi(self, kind: str, k: int, x0: float) -> float:
        c = self.count.get((kind, k), 0)
        self.count[(kind, k)] = c + 1
        step = (c * 0x9E3779B1) % STEPS - STEPS // 2
        return x0 + step * 2.0 * math.ulp(x0)


def point_ops(seed: int, pools: dict[str, list[float]]):
    """Endless stream of (kind, pool index, xi, d) for the sweep-auto workload."""
    rng = random.Random(f"{seed}:points")
    visits = _Visits()
    while True:
        kind = KINDS[rng.randrange(3)]
        k = rng.randrange(POOL)
        yield kind, k, visits.xi(kind, k, pools[kind][k]), _log_uniform(rng, *D_RANGE)


def cli_commands(seed: int, pools: dict[str, list[float]]):
    """Endless stream of cold CLI commands as dicts.

    Evals cycle through every valid (quantity, system) pair and alternate
    --xi with --beta.  Every SWEEP_EVERY-th of the first
    SWEEP_EVERY * len(CLI_COMBOS) commands is a log sweep of SWEEP_POINTS
    points across the whole xi range, one per pair, at that pair's SWEEP_D;
    after those, every command is an eval.
    """
    rng = random.Random(f"{seed}:cli")
    visits = _Visits()
    i = 0
    while True:
        i += 1
        sweeps = min(i // SWEEP_EVERY, len(CLI_COMBOS))
        sweep = i % SWEEP_EVERY == 0 and i // SWEEP_EVERY <= len(CLI_COMBOS)
        j = sweeps - 1 if sweep else i - sweeps
        quantity, system, kind = CLI_COMBOS[j % len(CLI_COMBOS)]
        d = SWEEP_D[j] if sweep else _log_uniform(rng, *D_RANGE)
        common = ["--quantity", quantity, "--system", system, "--d", repr(d)]
        if sweep:
            lo = XI_RANGE[0] * (1.0 + 0.1 * rng.random())
            hi = XI_RANGE[1] / (1.0 + 0.1 * rng.random())
            argv = ["sweep", *common, "--xi-min", repr(lo), "--xi-max", repr(hi),
                    "--points", str(SWEEP_POINTS), "--spacing", "log"]
            yield {"cmd": "sweep", "argv": argv, "quantity": quantity, "kind": kind, "d": d}
            continue
        k = rng.randrange(POOL)
        xi = visits.xi(kind, k, pools[kind][k])
        if (j // len(CLI_COMBOS)) % 2:
            beta = d / (math.pi * xi)
            argv = ["eval", *common, "--beta", repr(beta)]
            xi = d / (math.pi * beta)  # the xi the CLI derives from --beta
        else:
            argv = ["eval", *common, "--xi", repr(xi)]
        yield {"cmd": "eval", "argv": argv, "quantity": quantity, "kind": kind,
               "d": d, "xi": xi, "pool": k}
