"""Command-line interface: output formats, exit codes, routing, and
determinism of CSV artifacts."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plates import PlateKind, UnsupportedRepresentationError, cli, free_energy
from casimir_plates.verification import GRIDS, run_all


def run_main(argv):
    """Invoke cli.main in-process, normalizing SystemExit to an int code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2


class TestEval:
    def test_pressure_at_zero_xi(self, capsys):
        assert run_main(["eval", "--quantity", "pressure", "--xi", "0"]) == 0
        out = capsys.readouterr().out.split()
        assert out[0].startswith("3.5982932712")
        assert float(out[0]) == pytest.approx(0.875 * math.pi**2 / 240.0, rel=1e-14)
        assert float(out[1]) == 0.0

    def test_conductor_pressure_at_zero_xi(self, capsys):
        assert run_main(["eval", "--quantity", "pressure", "--system", "conductor",
                         "--xi", "0"]) == 0
        out = capsys.readouterr().out.split()
        assert float(out[0]) == pytest.approx(-math.pi**2 / 240.0, rel=1e-15)
        assert out[1:] == ["0.000e+00", "0", "zero-T"]

    def test_output_format(self, capsys):
        assert run_main(["eval", "--quantity", "free_energy", "--xi", "0.5"]) == 0
        fields = capsys.readouterr().out.split()
        assert len(fields) == 4
        float(fields[0])
        float(fields[1])
        int(fields[2])
        assert fields[3] == "poisson"  # router choice for xi >= 1/(2 pi)

    def test_beta_equivalent_to_xi(self, capsys):
        d = 1.0
        xi = 0.5
        beta = d / (math.pi * xi)
        assert run_main(["eval", "--quantity", "free_energy", "--xi", "0.5"]) == 0
        a = float(capsys.readouterr().out.split()[0])
        assert run_main(["eval", "--quantity", "free_energy", "--beta", str(beta)]) == 0
        b = float(capsys.readouterr().out.split()[0])
        assert a == pytest.approx(b, rel=1e-12)

    def test_representations_agree(self, capsys):
        vals = {}
        for rep in ("bessel", "coth", "poisson"):
            code = run_main(
                ["eval", "--quantity", "free_energy", "--xi", "0.5", "--rep", rep]
            )
            assert code == 0
            vals[rep] = float(capsys.readouterr().out.split()[0])
        assert vals["poisson"] == pytest.approx(vals["bessel"], abs=1e-8)
        assert vals["coth"] == pytest.approx(vals["bessel"], abs=1e-8)

    def test_conductor_system(self, capsys):
        code = run_main(
            ["eval", "--quantity", "f_scaled", "--xi", "0.001", "--system", "conductor"]
        )
        assert code == 0
        v = float(capsys.readouterr().out.split()[0])
        assert v == pytest.approx(-math.pi**2 / 720.0, rel=1e-6)

    def test_poisson_for_conductor(self, capsys):
        code = run_main(
            ["eval", "--quantity", "free_energy", "--xi", "0.5",
             "--system", "conductor", "--rep", "poisson"]
        )
        assert code == 0
        assert capsys.readouterr().out.split()[3] == "poisson"

    def test_reference_value(self, capsys):
        assert run_main(["eval", "--quantity", "free_energy", "--xi", "2"]) == 0
        v = float(capsys.readouterr().out.split()[0])
        assert v == pytest.approx(-341.601883157432487, rel=1e-10)


def usage_reason(capsys) -> str:
    """The reason after 'error:' on stderr; empty if none was printed."""
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.partition("error:")[2].strip()


class TestUsageErrors:
    def test_beta_and_xi_both_given(self, capsys):
        assert run_main(
            ["eval", "--quantity", "pressure", "--beta", "1", "--xi", "0.5"]
        ) == 2
        assert "--beta" in usage_reason(capsys)

    def test_neither_beta_nor_xi(self, capsys):
        assert run_main(["eval", "--quantity", "pressure"]) == 2
        assert "--xi" in usage_reason(capsys)

    def test_negative_beta(self, capsys):
        assert run_main(["eval", "--quantity", "pressure", "--beta", "-1"]) == 2
        assert "--beta" in usage_reason(capsys)

    def test_negative_xi(self, capsys):
        assert run_main(["eval", "--quantity", "pressure", "--xi", "-1"]) == 2
        assert "--xi" in usage_reason(capsys)

    def test_unknown_subcommand(self, capsys):
        assert run_main(["integrate"]) == 2
        assert usage_reason(capsys)

    def test_bad_quantity(self, capsys):
        assert run_main(["eval", "--quantity", "entropy", "--xi", "1"]) == 2
        assert "--quantity" in usage_reason(capsys)

    def test_sweep_bad_range(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_main(
            ["sweep", "--quantity", "pressure", "--xi-min", "2", "--xi-max", "1",
             "--out", out]
        ) == 2
        assert "--xi-min" in usage_reason(capsys)

    def test_sweep_too_few_points(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_main(
            ["sweep", "--quantity", "pressure", "--xi-min", "0.1", "--xi-max", "1",
             "--points", "1", "--out", out]
        ) == 2
        assert "--points" in usage_reason(capsys)

    def test_sweep_log_needs_positive_min(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert run_main(
            ["sweep", "--quantity", "pressure", "--xi-min", "0", "--xi-max", "1",
             "--spacing", "log", "--out", out]
        ) == 2
        assert "--spacing log" in usage_reason(capsys)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_sweep_infinite_max(self, tmp_path, capsys, spacing):
        # a usage error naming the flag, not an evaluation error about a nan
        # xi the user never typed
        out = tmp_path / "x.csv"
        assert run_main(
            ["sweep", "--quantity", "free_energy", "--xi-min", "0.1", "--xi-max", "inf",
             "--spacing", spacing, "--out", str(out)]
        ) == 2
        assert usage_reason(capsys) == "--xi-max must be finite, got inf"
        assert not out.exists()

    def test_unknown_grid(self, capsys):
        assert run_main(["verify", "--grid", "fine"]) == 2
        assert usage_reason(capsys) == (
            "argument --grid: invalid choice: 'fine' (choose from 'default', 'coarse')")

    def test_grid_choices_are_the_battery_grids(self):
        # the parser names the grids without loading the battery
        assert cli._GRIDS == tuple(GRIDS)


class TestEvalErrors:
    def test_pressure_with_explicit_rep(self):
        # the pressure has the kernel's routes and closed forms, no lattice
        assert run_main(
            ["eval", "--quantity", "pressure", "--xi", "0.5", "--rep", "lattice"]
        ) == 3

    def test_pressure_for_conductor(self):
        assert run_main(
            ["eval", "--quantity", "pressure", "--xi", "0.5", "--system", "conductor"]
        ) == 0

    def test_unsupported_rep_for_conductor(self):
        assert run_main(
            ["eval", "--quantity", "free_energy", "--xi", "0.5",
             "--system", "conductor", "--rep", "bessel"]
        ) == 3

    @pytest.mark.parametrize("quantity", ["free_energy", "pressure"])
    @pytest.mark.parametrize(
        "point,named",
        [
            pytest.param(["--xi", "0.5", "--d", "inf"], "d must be finite", id="d-inf"),
            pytest.param(["--xi", "0.5", "--d", "nan"], "d must be finite", id="d-nan"),
            pytest.param(["--xi", "inf"], "xi must be finite", id="xi-inf"),
            pytest.param(["--xi", "nan"], "xi must be finite", id="xi-nan"),
            # xi = d/(pi beta) overflows
            pytest.param(["--beta", "1e-320"], "xi must be finite", id="beta-tiny"),
        ],
    )
    def test_nonfinite_input_is_a_domain_error(self, quantity, point, named, capsys):
        assert run_main(["eval", "--quantity", quantity, *point]) == 3
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert named in captured.err


    @pytest.mark.parametrize(
        "argv",
        [
            ["--quantity", "free_energy", "--xi", "1e300"],
            ["--quantity", "free_energy", "--xi", "0.5", "--d", "1e-120"],
            ["--quantity", "free_energy", "--xi", "0.5", "--d", "1e-120", "--rep", "double"],
            ["--quantity", "pressure", "--xi", "1e300"],
            ["--quantity", "f_scaled", "--system", "conductor", "--xi", "1e200"],
            ["--quantity", "free_energy", "--rep", "high", "--xi", "0.5", "--d", "1e-120"],
            ["--quantity", "free_energy", "--rep", "high", "--xi", "0.5", "--d", "1e-120",
             "--system", "conductor"],
            ["--quantity", "free_energy", "--rep", "lattice", "--xi", "0.5", "--d", "1e-120"],
            ["--quantity", "free_energy", "--rep", "double", "--xi", "1e300"],
            ["--quantity", "free_energy", "--rep", "high", "--xi", "1e300"],
        ],
        ids=["xi-huge", "d-tiny", "d-tiny-double", "pressure-xi-huge", "f-scaled-xi-huge",
             "d-tiny-high", "d-tiny-high-conductor", "d-tiny-lattice", "xi-huge-double",
             "xi-huge-high"],
    )
    def test_out_of_range_result_is_a_domain_error(self, argv, capsys):
        assert run_main(["eval", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "floating-point range" in captured.err

    @pytest.mark.parametrize("system", ["boyer", "conductor"])
    def test_lattice_overflow_is_a_domain_error(self, system, capsys):
        # the Epstein sums overflow inside; the error names xi
        assert run_main(["eval", "--quantity", "free_energy", "--rep", "lattice",
                         "--system", system, "--xi", "1e60"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "xi=1e+60" in captured.err and "floating-point range" in captured.err

    def test_budget_below_the_series_floor(self, capsys):
        # a budget of 5 terms is below the 8 that a series with a heuristic
        # tail sums first, yet a budget: the routed eval needs fewer terms
        # and prints the default budget's line
        argv = ["eval", "--quantity", "free_energy", "--xi", "0.3"]
        assert run_main(argv) == 0
        default = capsys.readouterr().out
        assert run_main([*argv, "--max-terms", "5"]) == 0
        assert capsys.readouterr().out == default

    def test_mode_integral_threshold_budget(self, capsys):
        # about 70 xi thresholds are needed; the budget ends the sum promptly
        t0 = time.perf_counter()
        assert run_main(["eval", "--quantity", "free_energy", "--rep", "mode-integral",
                         "--xi", "1e5", "--max-terms", "100"]) == 3
        assert time.perf_counter() - t0 < 20.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "within 100 thresholds" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rep", "mode-integral", "--xi", "0.5", "--d", "1e120"],
            ["--rep", "low", "--xi", "1e-3", "--d", "1e120"],
        ],
        ids=["d-huge-mode-integral", "d-huge-low"],
    )
    def test_underflowing_result_is_zero(self, argv, capsys):
        # d^3 F is finite; F = d^3 F/d^3 underflows to zero, as on the routed path
        assert run_main(["eval", "--quantity", "free_energy", *argv]) == 0
        assert float(capsys.readouterr().out.split()[0]) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["free_energy", "pressure", "f_scaled", "p_scaled"]),
        st.sampled_from(["boyer", "conductor"]),
        st.one_of(st.just(0.0), st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
    )
    def test_auto_eval_is_finite_or_exit_3(self, quantity, system, xi, d):
        assert_finite_or_exit_3(["eval", "--quantity", quantity, "--system", system,
                                 "--xi", repr(xi), "--d", repr(d)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["free_energy", "f_scaled"]),
        st.sampled_from(["boyer", "conductor"]),
        st.sampled_from(["coth", "poisson", "double", "bessel", "low", "high"]),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
    )
    def test_explicit_eval_is_finite_or_exit_3(self, quantity, system, rep, xi, d):
        # a small term budget: a slow series ends in exit 3 quickly
        assert_finite_or_exit_3(["eval", "--quantity", quantity, "--system", system,
                                 "--rep", rep, "--xi", repr(xi), "--d", repr(d),
                                 "--max-terms", "2000"])

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([("lattice", 1e300), ("mode-integral", 10.0)]).flatmap(
            lambda rep_max: st.tuples(
                st.just(rep_max[0]),
                st.floats(math.log(1e-2), math.log(rep_max[1])).map(math.exp),
            )
        ),
        st.sampled_from(["boyer", "conductor"]),
        st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
    )
    @example(("lattice", math.exp(12.0)), "boyer", 1.0)
    def test_validation_eval_is_finite_or_exit_3(self, rep_xi, system, d):
        # the lattice sums overflow at large xi, both forms in the d scaling;
        # at xi ~ 1e5..1e7 their inner quadrature meets its roundoff floor
        rep, xi = rep_xi
        assert_finite_or_exit_3(["eval", "--quantity", "free_energy", "--system", system,
                                 "--rep", rep, "--xi", repr(xi), "--d", repr(d),
                                 "--max-terms", "100000"])


QUANTITIES = ("free_energy", "pressure", "f_scaled", "p_scaled")
SYSTEMS = ("boyer", "conductor")
ALL_REPS = ("auto", "coth", "poisson", "double", "bessel", "lattice", "mode-integral", "low",
            "high")
CENSUS_XI = ("0", "1e-5", "0.01", "0.5")


def served(quantity, system, rep, xi):
    """The served set, written out: what ``casimir eval`` answers with exit 0."""
    if quantity in ("pressure", "p_scaled"):  # the kernel's routes and closed forms, both pairs
        if rep not in ("auto", "coth", "poisson", "low", "high"):
            return False
    if xi in (0.0, 1e-5):  # the zero-temperature route serves every row
        return True
    return system == "boyer" or rep not in ("double", "bessel", "mode-integral")


class TestServedSet:
    @pytest.mark.parametrize("quantity", QUANTITIES)
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_census(self, quantity, system, capsys):
        for rep in ALL_REPS:
            for xi in CENSUS_XI:
                code = run_main(["eval", "--quantity", quantity, "--system", system,
                                 "--rep", rep, "--xi", xi])
                out, err = capsys.readouterr()
                point = (quantity, system, rep, xi)
                assert "nan" not in out, point
                assert "Traceback" not in err, point
                if served(quantity, system, rep, float(xi)):
                    assert code == 0, (point, err)
                    continue
                assert code == 3 and out == "", point
                # a missing row names the quantity, the rep and the pair
                table_quantity = "free_energy" if quantity[0] == "f" else "pressure"
                assert f"{table_quantity} in representation '{rep}'" in err, point
                assert f"for the {system} pair" in err, point


def assert_finite_or_exit_3(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_main(argv)
    if code == 0:
        value, err = (float(f) for f in out.getvalue().split()[:2])
        assert math.isfinite(value) and math.isfinite(err)
    else:
        assert code == 3


class TestSweep:
    def test_sweep_csv_and_determinism(self, tmp_path):
        args = ["sweep", "--quantity", "free_energy", "--xi-min", "0.1",
                "--xi-max", "1.0", "--points", "7"]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_main(args + ["--out", p1]) == 0
        assert run_main(args + ["--out", p2]) == 0
        b1 = Path(p1).read_bytes()
        assert b1 == Path(p2).read_bytes()
        lines = b1.decode().splitlines()
        assert lines[0] == "xi,value,abs_err_est,rep"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1, rel=1e-15)
        assert first[3] in ("coth", "poisson")

    def test_sweep_log_spacing(self, tmp_path):
        out = str(tmp_path / "log.csv")
        assert run_main(
            ["sweep", "--quantity", "pressure", "--xi-min", "0.1", "--xi-max", "10",
             "--points", "5", "--spacing", "log", "--out", out]
        ) == 0
        xs = [float(r.split(",")[0]) for r in Path(out).read_text().splitlines()[1:]]
        ratios = [b / a for a, b in zip(xs, xs[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)

    @pytest.mark.parametrize("budget", [["--max-terms", "3"], ["--tol", "0"], ["--tol", "nan"]])
    def test_sweep_bad_series_control_is_exit_3(self, tmp_path, capsys, budget):
        out = str(tmp_path / "x.csv")
        assert run_main(
            ["sweep", "--quantity", "pressure", "--xi-min", "0.1", "--xi-max", "1",
             "--points", "3", "--out", out, *budget]
        ) == 3
        assert capsys.readouterr().err.startswith("evaluation error (auto): ")
        assert not os.path.exists(out)

    def test_sweep_unwritable_path(self, tmp_path):
        out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert run_main(
            ["sweep", "--quantity", "pressure", "--xi-min", "0.1", "--xi-max", "1",
             "--points", "3", "--out", out]
        ) == 4


DEFAULT_BATTERY_ROWS = {
    "equivalence/double-vs-coth", "equivalence/poisson-vs-coth",
    "equivalence/mode-integral-vs-coth", "equivalence/lattice-vs-coth",
    "equivalence/conductor-poisson-vs-coth",
    "tis/f1", "tis/f2", "tis/nontrivial", "tis/fixed-points", "tis/boyer-naive-fails",
    "identities/alternating-and-plain",
    "pressure/dfdxi-vs-poisson", "pressure/energy-consistency",
    "pressure/conductor-energy-consistency", "pressure/zero-T-cancellation",
    "asymptotics/low-T", "asymptotics/high-T", "asymptotics/pressure-high-T",
    "epstein/continuation-vs-direct", "epstein/exchange-and-homogeneity",
    "split/f1-minus-f2", "split/sb-to-casimir", "split/conductor-kernel-vs-lattice",
    "anchors/boyer-zero-T", "anchors/conductor-zero-T", "anchors/pressure-zero-T",
}


class TestVerify:
    def test_coarse_grid_passes(self, capsys):
        assert run_main(["verify", "--grid", "coarse"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out.replace("FAILURES", "")

    def test_tamper_detected(self, capsys):
        assert run_main(["verify", "--grid", "coarse", "--tamper", "bessel-sign"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_default_battery_rows(self):
        checks = run_all("default")
        names = {c.name for c in checks}
        assert names >= DEFAULT_BATTERY_ROWS
        assert not any(name.startswith("error/") for name in names)
        assert all(c.passed for c in checks)

    def test_battery_reaches_every_served_row(self, monkeypatch):
        # a row of the table that no check evaluates fails here; the row
        # 'bessel' is the row 'double' under a second name
        reached = set()

        def counting(evaluator):
            def wrapped(sys, xi, ctl):
                reached.add(evaluator)
                return evaluator(sys, xi, ctl)
            return wrapped

        rows = dict(free_energy._SERVED)
        for key, (evaluator, kinds) in rows.items():
            monkeypatch.setitem(free_energy._SERVED, key, (counting(evaluator), kinds))
        assert all(c.passed for c in run_all("coarse"))
        assert [key for key, (evaluator, _) in rows.items() if evaluator not in reached] == []

    def test_tamper_is_transient(self):
        # a tampered run must not poison later evaluations
        run_all(grid="coarse", tamper="bessel-sign")
        checks = run_all(grid="coarse")
        assert all(c.passed for c in checks)


class TestFigures:
    @pytest.mark.parametrize(
        "fid,ncols", [(1, 5), (2, 6), (3, 3)]
    )
    def test_figure_csv_shape(self, fid, ncols, tmp_path):
        out = str(tmp_path / f"fig{fid}.csv")
        assert run_main(["figure", str(fid), "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) >= 201  # header + at least 200 points
        assert len(lines[0].split(",")) == ncols
        assert all(len(r.split(",")) == ncols for r in lines[1:])

    def test_figure_points_are_honoured(self, tmp_path):
        out = str(tmp_path / "fig1.csv")
        assert run_main(["figure", "1", "--points", "50", "--out", out]) == 0
        assert len(Path(out).read_text().splitlines()) == 1 + 50

    def test_figure_needs_two_points(self, tmp_path, capsys):
        out = str(tmp_path / "fig1.csv")
        assert run_main(["figure", "1", "--points", "1", "--out", out]) == 2
        assert "--points" in usage_reason(capsys)

    def test_figure3_matches_pressure_at_origin(self, tmp_path):
        out = str(tmp_path / "fig3.csv")
        assert run_main(["figure", "3", "--out", out]) == 0
        first = Path(out).read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(
            0.875 * math.pi**2 / 240.0, rel=1e-12
        )


class TestEntryPoint:
    def test_module_and_script_execution(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "casimir_plates.cli", "eval",
             "--quantity", "pressure", "--xi", "0"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        assert r.stdout.startswith("3.5982932712")

    def test_usage_exit_code_subprocess(self):
        r = subprocess.run(
            [sys.executable, "-m", "casimir_plates.cli", "eval",
             "--quantity", "pressure"],
            capture_output=True, text=True,
        )
        assert r.returncode == 2


_COLD_ROUTES = """
import contextlib, io, json, os, sys, tempfile
import casimir_plates
from casimir_plates import cli

codes = {}


def evals(reps):
    for quantity in ("free_energy", "pressure", "f_scaled", "p_scaled"):
        for system in ("boyer", "conductor"):
            for rep in reps:
                for xi in ("0", "0.1", "0.5"):
                    argv = ["eval", "--quantity", quantity, "--system", system,
                            "--rep", rep, "--xi", xi]
                    codes[" ".join(argv)] = cli.main(argv)


with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    out = os.path.join(tmp, "out.csv")
    evals(("auto",))
    argv = ["sweep", "--quantity", "free_energy", "--xi-min", "0", "--xi-max", "2",
            "--points", "50", "--out", out]
    codes["sweep"] = cli.main(argv)
    for fid in ("1", "2", "3"):
        codes["figure " + fid] = cli.main(["figure", fid, "--points", "50", "--out", out])
    # the routed commands load the package's cold path and nothing else
    cold = sorted(m for m in sys.modules if m.startswith("casimir_plates"))
    evals(("coth", "poisson", "double", "bessel", "low", "high"))
    loaded = sorted(m for m in ("casimir_plates.verification", "casimir_plates.symmetry",
                                "casimir_plates.epstein", "dataclasses") if m in sys.modules)
    from casimir_plates.symmetry import f1_eval, f2_eval
    f1_eval(0.5, 1.0)
    f2_eval(0.5, 1.0)
    before = sorted(m for m in ("scipy", "numpy") if m in sys.modules)
    lattice = cli.main(["eval", "--quantity", "free_energy", "--rep", "lattice", "--xi", "0.5"])
    after = "scipy" in sys.modules
    verify = cli.main(["verify", "--grid", "coarse"])
print(json.dumps({"codes": codes, "cold": cold, "loaded": loaded, "before": before, "lattice": lattice,
                  "after": after, "verify": verify}))
"""


class TestLazyImport:
    def test_production_routes_do_not_import_scipy(self):
        # a fresh interpreter: this one has scipy loaded already
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        r = subprocess.run([sys.executable, "-c", _COLD_ROUTES],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        got = json.loads(r.stdout)
        codes = got["codes"]
        assert set(codes.values()) <= {0, 3}

        def must_succeed(command):
            # exit 3 only where the package's table serves no evaluator
            words = command.split()
            if words[0] != "eval":
                return True
            try:
                cli._served(words[2], words[6], PlateKind(words[4]), float(words[8]))
            except UnsupportedRepresentationError:
                return False
            return True

        assert all(code == 0 for c, code in codes.items() if must_succeed(c))
        # import, routed evals, a sweep and the figures parse no validation
        # representation, special function or engine: only the cold path
        assert got["cold"] == ["casimir_plates", "casimir_plates.cli", "casimir_plates.errors",
                               "casimir_plates.free_energy", "casimir_plates.pressure"]
        # nor the verify battery, the Epstein engine or dataclasses
        assert got["loaded"] == []
        assert got["before"] == []
        # the validation forms still load scipy on first use
        assert got["lattice"] == 0
        assert got["after"]
        # and verify loads its battery on first use
        assert got["verify"] == 0
