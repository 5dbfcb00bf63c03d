"""Check that two source trees give bit-identical outputs.

    python3 tools/bit_identity.py OTHER_TREE [--points 10000] [--seed 0]

Runs one child interpreter per tree (this one and OTHER_TREE, e.g. a
checkout of the parent commit), each with PYTHONPATH=<tree>/src.  Every
child evaluates, at the same seeded log-uniform points d in [1e-2, 1e2]
and xi in [1e-3, 10] plus a few edge points (xi = 0 and xi whose thermal
factor underflows), ``free_energy_auto`` for both plate pairs and
``pressure_auto``, and records (value, abs_err_est, terms_used, rep) with
floats in hex.  At the seeded points alone it also evaluates the
validation layer beyond the routed path: ``f1_eval``, ``f2_eval``,
``tis_residual_f1``, ``tis_residual_f2`` and ``tis_residual_boyer_naive``
at every point, and ``tis_residual_nontrivial``, whose lattice sums take
about a millisecond, at every 20th.  It also runs seeded ``casimir eval``
and ``sweep`` commands with ``--rep auto`` (given ``--xi`` or ``--beta``)
and seeded evals with an explicit ``--rep`` of ``coth``, ``poisson``,
``double``, ``bessel``, ``low`` or ``high``, and a fixed grid of evals:
every quantity, plate pair and representation (all nine, ``auto``
included) at xi = 0, 1e-5, 0.01 and 0.5 with the default term budget, so
that every served combination and every refusal is compared.  The grid is
written out here, not read from the tree under test.  The commands run
in-process, and their exit code, stdout and CSV bytes are recorded.  Reports every difference (the first 20
in full) with a summary: how many routed outcomes moved in value or bar
alone, the worst |value_a - value_b|/(bar_a + bar_b) among them, how many
differ in terms_used, rep or error, the same count and worst move for the
``f1_eval`` and ``f2_eval`` outcomes and the CLI evals (read from the
printed value and bar), and how many CLI exit codes differ.
Exits 1 on any difference.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

EDGE_XI = (0.0, 1e-5, 5e-4, 6.7e-4, 6.8e-4)
QUANTITIES = ("free_energy", "pressure", "f_scaled", "p_scaled")
EXPLICIT_REPS = ("coth", "poisson", "double", "bessel", "low", "high")
GRID_REPS = ("auto", "coth", "poisson", "double", "bessel", "lattice", "mode-integral", "low",
             "high")
GRID_XI = ("0", "1e-5", "0.01", "0.5")
SYMMETRY = ("f1_eval", "f2_eval", "tis_residual_f1", "tis_residual_f2",
            "tis_residual_boyer_naive", "tis_residual_nontrivial")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _outcome(fn):
    try:
        r = fn()
    except Exception as exc:  # the error itself must match between trees
        return ["error", type(exc).__name__, str(exc)]
    if isinstance(r, float):  # a residual
        return r.hex()
    return [r.value.hex(), r.abs_err_est.hex(), r.terms_used, r.rep]


def _cli_run(cli, argv, csv_path=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = None
    if csv_path is not None and os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8") as fh:
            data = fh.read()
        os.remove(csv_path)
    return [code, out.getvalue(), data]


def emit(points: int, seed: int) -> dict:
    """Child side: evaluate everything at the seeded inputs."""
    from casimir_plates import PlateSystem, cli, free_energy_auto, pressure_auto, symmetry

    rng = random.Random(seed)
    seeded = [(_loguniform(rng, 1e-2, 1e2), _loguniform(rng, 1e-3, 10.0)) for _ in range(points)]
    pts = seeded + [(d, xi) for d in (0.01, 1.0, 100.0) for xi in EDGE_XI]
    rows = []
    for d, xi in pts:
        rows.append([
            _outcome(lambda: free_energy_auto(PlateSystem(d), xi)),
            _outcome(lambda: free_energy_auto(PlateSystem(d, "conductor"), xi)),
            _outcome(lambda: pressure_auto(d, xi)),
        ])
    sym = []
    for i, (d, xi) in enumerate(seeded):
        sym.append([
            _outcome(lambda: symmetry.f1_eval(xi, d)),
            _outcome(lambda: symmetry.f2_eval(xi, d)),
            _outcome(lambda: symmetry.tis_residual_f1(xi, d)),
            _outcome(lambda: symmetry.tis_residual_f2(xi, d)),
            _outcome(lambda: symmetry.tis_residual_boyer_naive(xi, d)),
            _outcome(lambda: symmetry.tis_residual_nontrivial(xi)) if i % 20 == 0 else None,
        ])
    cmds = []
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "sweep.csv")
        for i in range(400):
            d = _loguniform(rng, 1e-2, 1e2)
            xi = _loguniform(rng, 1e-3, 10.0)
            thermal = ["--xi", repr(xi)] if i % 2 else ["--beta", repr(d / (math.pi * xi))]
            system = "conductor" if i % 4 == 3 else "boyer"
            argv = ["eval", "--quantity", QUANTITIES[i % 4], "--system", system,
                    "--d", repr(d), *thermal]
            cmds.append(_cli_run(cli, argv))
        for i in range(600):
            d = _loguniform(rng, 1e-2, 1e2)
            xi = _loguniform(rng, 1e-3, 10.0)
            argv = ["eval", "--quantity", rng.choice(("free_energy", "f_scaled")),
                    "--system", rng.choice(("boyer", "conductor")),
                    "--rep", EXPLICIT_REPS[i % len(EXPLICIT_REPS)], "--d", repr(d),
                    "--xi", repr(xi)]
            cmds.append(_cli_run(cli, argv))
        for q in QUANTITIES:
            for system in ("boyer", "conductor"):
                for rep in GRID_REPS:
                    for xi in GRID_XI:
                        argv = ["eval", "--quantity", q, "--system", system, "--rep", rep,
                                "--xi", xi]
                        cmds.append(_cli_run(cli, argv))
        for q in QUANTITIES:
            for spacing in ("linear", "log"):
                argv = ["sweep", "--quantity", q, "--xi-min", "1e-3", "--xi-max", "10",
                        "--points", "300", "--spacing", spacing, "--out", csv_path]
                cmds.append(_cli_run(cli, argv, csv_path))
        for fid in ("1", "2", "3"):
            cmds.append(_cli_run(cli, ["figure", fid, "--out", csv_path], csv_path))
    return {"points": [[d.hex(), xi.hex()] for d, xi in pts], "rows": rows, "sym": sym,
            "cli": cmds}


def _run_tree(tree: str, points: int, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--emit", str(points), str(seed)],
        env=env, capture_output=True, text=True, check=True, cwd=tree,
    )
    return json.loads(proc.stdout)


def _value_bar(outcome):
    """(value, bar, the rest) of an evaluation's outcome, [value, bar,
    terms_used, rep] with floats in hex, or of a CLI eval that printed
    "value bar terms_used rep"; None for anything else."""
    if isinstance(outcome, list) and len(outcome) == 4 and outcome[0] != "error":
        return float.fromhex(outcome[0]), float.fromhex(outcome[1]), outcome[2:]
    if isinstance(outcome, list) and len(outcome) == 3 and outcome[2] is None:
        words = outcome[1].split()
        if outcome[0] == 0 and len(words) == 4:
            return float(words[0]), float(words[1]), words[2:]
    return None


def _move(x, y) -> float | None:
    """|value_a - value_b| / (bar_a + bar_b) of two outcomes that differ
    only in value and bar, else None (anything else differs)."""
    a, b = _value_bar(x), _value_bar(y)
    if a is None or b is None or a[2] != b[2]:
        return None
    return abs(a[0] - b[0]) / (a[1] + b[1]) if a[1] + b[1] > 0.0 else math.inf


def main(argv) -> int:
    if argv[:1] == ["--emit"]:
        print(json.dumps(emit(int(argv[1]), int(argv[2]))))
        return 0
    other = argv[0]
    points = int(argv[argv.index("--points") + 1]) if "--points" in argv else 10000
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    a, b = _run_tree(here, points, seed), _run_tree(other, points, seed)
    assert a["points"] == b["points"]
    names = ("free_energy_auto boyer", "free_energy_auto conductor", "pressure_auto")
    diffs = 0
    moved = []  # routed outcomes whose value or bar alone moved
    shown = 0

    def report(line):
        nonlocal diffs, shown
        diffs += 1
        if shown < 20:
            shown += 1
            print(line)

    others = []  # the same for f1_eval, f2_eval and the CLI evals
    for (d, xi), ra, rb in zip(a["points"], a["rows"], b["rows"]):
        for name, x, y in zip(names, ra, rb):
            if x != y:
                move = _move(x, y)
                if move is not None:
                    moved.append(move)
                report(f"DIFF {name} d={float.fromhex(d)!r} xi={float.fromhex(xi)!r}: {x} != {y}")
    for (d, xi), ra, rb in zip(a["points"], a["sym"], b["sym"]):
        for name, x, y in zip(SYMMETRY, ra, rb):
            if x != y:
                if name in ("f1_eval", "f2_eval") and _move(x, y) is not None:
                    others.append(_move(x, y))
                report(f"DIFF {name} d={float.fromhex(d)!r} xi={float.fromhex(xi)!r}: {x} != {y}")
    exit_codes = 0
    for i, (x, y) in enumerate(zip(a["cli"], b["cli"])):
        if x != y:
            exit_codes += x[0] != y[0]
            if _move(x, y) is not None:
                others.append(_move(x, y))
            report(f"DIFF cli command {i}: {x[:2]} != {y[:2]}")
    n = len(a["rows"])
    n_sym = sum(x is not None for row in a["sym"] for x in row)
    print(f"compared: {n} points x {len(names)} routed functions = {n * len(names)} "
          f"outcomes, {n_sym} symmetry outcomes, {len(a['cli'])} CLI commands")
    if not diffs:
        print("identical")
        return 0
    other_routed = sum(x != y for ra, rb in zip(a["rows"], b["rows"])
                       for x, y in zip(ra, rb)) - len(moved)
    values = sum(float.fromhex(x[0]) != float.fromhex(y[0]) for ra, rb in zip(a["rows"], b["rows"])
                 for x, y in zip(ra, rb) if _move(x, y) is not None)
    print(f"{diffs} differences ({shown} shown); routed: {len(moved)} differ in value or bar "
          f"alone ({values} in value), worst |dvalue|/(bar_a + bar_b) "
          f"{max(moved, default=0.0):.3g}; {other_routed} differ in terms_used, rep or error; "
          f"f1_eval, f2_eval and CLI evals: {len(others)} differ in value or bar alone, worst "
          f"|dvalue|/(bar_a + bar_b) {max(others, default=0.0):.3g}; "
          f"CLI exit codes differ in {exit_codes} commands")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
