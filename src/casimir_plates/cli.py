"""Command-line front end: point evaluation, sweeps, verification, figures.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 evaluation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

from .errors import CasimirError
from .free_energy import (
    EvalResult,
    PlateSystem,
    RepresentationKind,
    SeriesControl,
    _evaluator,
    _route,
    free_energy_auto,
    zero_temperature_energy,
)
from .pressure import pressure_auto, pressure_zero_T

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_EVAL = 3
EXIT_IO = 4

_QUANTITIES = ("free_energy", "pressure", "f_scaled", "p_scaled")
_REPS = ("auto", *(r.value for r in RepresentationKind))
# the keys of verification.GRIDS: the battery and its grids load only with
# the verify command, not to build its parser
_GRIDS = ("default", "coarse")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep it explicit
        self.print_usage(_sys.stderr)
        print(f"{self.prog}: error: {message}", file=_sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="casimir", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--d", type=float, default=1.0)
        sp.add_argument("--system", choices=("boyer", "conductor"), default="boyer")
        sp.add_argument("--rep", choices=_REPS, default="auto")
        sp.add_argument("--tol", type=float, default=1e-12)
        sp.add_argument("--max-terms", type=int, default=10**6)

    e = sub.add_parser("eval", help="evaluate one quantity at one point")
    e.set_defaults(usage_error=e.error)
    e.add_argument("--quantity", choices=_QUANTITIES, required=True)
    e.add_argument("--beta", type=float)
    e.add_argument("--xi", type=float)
    common(e)

    s = sub.add_parser("sweep", help="sweep xi and write a CSV")
    s.set_defaults(usage_error=s.error)
    s.add_argument("--quantity", choices=_QUANTITIES, required=True)
    s.add_argument("--xi-min", type=float, required=True)
    s.add_argument("--xi-max", type=float, required=True)
    s.add_argument("--points", type=int, default=100)
    s.add_argument("--spacing", choices=("linear", "log"), default="linear")
    s.add_argument("--out", required=True)
    common(s)

    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--grid", choices=_GRIDS, default="default")
    v.add_argument("--tamper", choices=("bessel-sign",), default=None)

    f = sub.add_parser("figure", help="emit figure data as CSV")
    f.set_defaults(usage_error=f.error)
    f.add_argument("id", type=int, choices=(1, 2, 3))
    f.add_argument("--out", required=True)
    f.add_argument("--points", type=int, default=201)
    return p


def _ctl(args) -> SeriesControl:
    return SeriesControl(rel_tol=args.tol, max_terms=args.max_terms)


def _served(quantity: str, rep: str, kind, xi: float):
    """The evaluator of a CLI quantity from the package's table (f_scaled and
    p_scaled are its free energy and pressure), or its refusal.  At a zero-T
    xi, where every thermal part is 0, each free-energy rep is the routed one."""
    quantity = "pressure" if quantity in ("pressure", "p_scaled") else "free_energy"
    if quantity == "free_energy" and rep != "auto" and _route(xi) == "zero-T":
        rep = "auto"
    return _evaluator(quantity, rep, kind)


def _point_quantity(quantity: str, system: str, rep: str, xi: float, d: float, ctl) -> EvalResult:
    sys_ = PlateSystem(d, system)  # validates d
    if quantity in ("f_scaled", "p_scaled"):
        # d^3 F and d^4 P depend on xi alone: evaluate them at d = 1
        sys_ = PlateSystem(1.0, system)
    return _served(quantity, rep, sys_.kind, xi)(sys_, xi, ctl)


def _resolve_xi(args) -> float:
    if (args.beta is None) == (args.xi is None):
        args.usage_error("give exactly one of --beta and --xi")
    if args.beta is not None:
        if args.beta <= 0.0:
            args.usage_error(f"--beta must be positive, got {args.beta!r}")
        return args.d / (math.pi * args.beta)
    if args.xi < 0.0:
        args.usage_error(f"--xi must be nonnegative, got {args.xi!r}")
    return args.xi


def _cmd_eval(args) -> int:
    xi = _resolve_xi(args)
    try:
        r = _point_quantity(args.quantity, args.system, args.rep, xi, args.d, _ctl(args))
    except CasimirError as exc:
        print(f"evaluation error ({args.rep}): {exc}", file=_sys.stderr)
        return EXIT_EVAL
    print(f"{r.value:.16e} {r.abs_err_est:.3e} {r.terms_used} {r.rep}")
    return EXIT_OK


def _grid(xi_min: float, xi_max: float, points: int, spacing: str, usage_error):
    if points < 2:
        usage_error(f"--points must be at least 2, got {points}")
    if not 0.0 <= xi_min < xi_max:
        usage_error(f"need 0 <= --xi-min < --xi-max, got {xi_min!r} and {xi_max!r}")
    if spacing == "log":
        if xi_min <= 0.0:
            usage_error("--spacing log needs --xi-min > 0")
        la, lb = math.log(xi_min), math.log(xi_max)
        return [math.exp(la + (lb - la) * i / (points - 1)) for i in range(points)]
    return [xi_min + (xi_max - xi_min) * i / (points - 1) for i in range(points)]


def _write_csv(path: str, header: str, rows) -> int:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        print(f"I/O error: {exc}", file=_sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_sweep(args) -> int:
    xs = _grid(args.xi_min, args.xi_max, args.points, args.spacing, args.usage_error)
    rows = []
    try:
        ctl = _ctl(args)
        for xi in xs:
            r = _point_quantity(args.quantity, args.system, args.rep, xi, args.d, ctl)
            rows.append((f"{xi:.16e}", f"{r.value:.16e}", f"{r.abs_err_est:.16e}", r.rep))
    except CasimirError as exc:
        print(f"evaluation error ({args.rep}): {exc}", file=_sys.stderr)
        return EXIT_EVAL
    return _write_csv(args.out, "xi,value,abs_err_est,rep", rows)


def _cmd_verify(args) -> int:
    from .verification import run_all

    checks = run_all(grid=args.grid, tamper=args.tamper)
    width = max(len(c.name) for c in checks)
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        ok = ok and c.passed
        print(f"{c.name:<{width}}  residual={c.residual:.3e}  tol={c.tolerance:.1e}  {status}")
    print("verify:", "all checks passed" if ok else "FAILURES present")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_figure(args) -> int:
    ctl = SeriesControl(rel_tol=1e-12)
    try:
        if args.id == 1 or args.id == 2:
            lo, hi = (0.0, 0.6) if args.id == 1 else (0.3, 3.0)
            header = "xi,f_boyer,f_conductor,f_boyer_zeroT_line,f_conductor_zeroT_line"
            if args.id == 2:
                header += ",sb_curve"
            fb0 = zero_temperature_energy(PlateSystem(1.0))
            fc0 = zero_temperature_energy(PlateSystem(1.0, "conductor"))
            rows = []
            for xi in _grid(lo, hi, args.points, "linear", args.usage_error):
                fb = free_energy_auto(PlateSystem(1.0), xi, ctl).value
                fc = free_energy_auto(PlateSystem(1.0, "conductor"), xi, ctl).value
                row = [f"{xi:.16e}", f"{fb:.16e}", f"{fc:.16e}", f"{fb0:.16e}", f"{fc0:.16e}"]
                if args.id == 2:
                    row.append(f"{-math.pi**6 * xi**4 / 45.0:.16e}")
                rows.append(tuple(row))
        else:
            header = "xi,p_boyer,p_zeroT_line"
            p0 = pressure_zero_T(PlateSystem(1.0))
            rows = []
            for xi in _grid(0.0, 1.0, args.points, "linear", args.usage_error):
                p = pressure_auto(1.0, xi, ctl).value
                rows.append((f"{xi:.16e}", f"{p:.16e}", f"{p0:.16e}"))
    except CasimirError as exc:
        print(f"evaluation error: {exc}", file=_sys.stderr)
        return EXIT_EVAL
    return _write_csv(args.out, header, rows)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_figure(args)


if __name__ == "__main__":
    raise SystemExit(main())
