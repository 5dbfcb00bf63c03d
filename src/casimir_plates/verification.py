"""Named invariant checks shared by ``casimir verify`` and the test suite.

Each check compares independently computed quantities and reports a
measured residual against a fixed tolerance.  ``run_all`` executes the
whole battery and returns the individual results; the CLI renders them
as a pass/fail table.  The kernel's routes and the closed forms of both
quantities are reached through the table ``free_energy._SERVED``, as the
command line reaches them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

from . import free_energy as fe
from .epstein import EpsteinParams, epstein2_continued, epstein_direct
from .errors import CasimirError
from .forms import _thermodynamic_residual, pressure_thermal_log
from .free_energy import EvalResult, PlateSystem, SeriesControl, ThermalPoint, f_conducting_lattice
from .pressure import pressure_zero_T
from .symmetry import (
    XI_FIXED_F1,
    XI_FIXED_F2,
    XI_FIXED_NONTRIVIAL,
    identity_alternating,
    identity_plain,
    sb_to_casimir,
    tis_residual_boyer_naive,
    tis_residual_f1,
    tis_residual_f2,
    tis_residual_nontrivial,
)

__all__ = ["Check", "run_all", "GRIDS"]


class Check(namedtuple("Check", "name residual tolerance passed")):
    """One row of the battery: a residual measured against its tolerance."""

    __slots__ = ()


GRIDS = {
    "default": (0.1, 0.3, 0.5, 1.0, 2.0, 5.0),
    "coarse": (0.3, 1.0, 2.0),
}

_CTL = SeriesControl(rel_tol=1e-14)
# the lattice sums behind the conductor-kernel row: at this tolerance each
# takes a few ms, and the row compares against their bar, which scales with it
_LATTICE_CTL = SeriesControl(rel_tol=1e-10)
_KERNEL_VS_LATTICE_X = (
    0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 1.0 / (2.0 * math.pi),
    *(1.0 / (c * math.pi**2) for c in (0.4, 0.8, 2.0, 4.0, 8.0, 16.0)),
)
# the two plate pairs at d = 1
_BOYER_PAIR, _CONDUCTOR_PAIR = PlateSystem(1.0), PlateSystem(1.0, "conductor")


def _check(name: str, residual: float, tol: float) -> Check:
    return Check(name, residual, tol, residual <= tol)


def _row(quantity: str, rep: str, sys: PlateSystem, xi: float) -> EvalResult:
    """The table's row (quantity, rep) for the pair sys at xi."""
    return fe._evaluator(quantity, rep, sys.kind, xi)(sys, xi, _CTL)


def _representation_equivalence(grid, out: list):
    tolerances = {"double": 1e-8, "poisson": 1e-8, "mode-integral": 1e-6, "lattice": 1e-5}
    dev = dict.fromkeys(tolerances, 0.0)
    for xi in grid:
        ref = _row("free_energy", "coth", _BOYER_PAIR, xi).value
        for rep in dev:
            if rep != "poisson" or xi >= 0.1:
                dev[rep] = max(dev[rep], abs(_row("free_energy", rep, _BOYER_PAIR, xi).value - ref))
    for rep, tol in tolerances.items():
        out.append(_check(f"equivalence/{rep}-vs-coth", dev[rep], tol))
    # the conducting pair's two kernel routes, which the router switches between
    cond = [_row("free_energy", rep, _CONDUCTOR_PAIR, xi).value
            for xi in grid for rep in ("poisson", "coth")]
    worst = max(abs(a - b) for a, b in zip(cond[::2], cond[1::2]))
    out.append(_check("equivalence/conductor-poisson-vs-coth", worst, 1e-8))


def _tis(grid, out: list):
    pts = [xi for xi in (0.1, 0.5, 1.0, 2.0) if grid is GRIDS["default"] or xi in grid]
    r1 = max(tis_residual_f1(xi, 1.0, _CTL) for xi in pts)
    r2 = max(tis_residual_f2(xi, 1.0, _CTL) for xi in pts)
    rn = max(tis_residual_nontrivial(xi, _CTL) for xi in pts)
    out.append(_check("tis/f1", r1, 1e-8))
    out.append(_check("tis/f2", r2, 1e-8))
    out.append(_check("tis/nontrivial", rn, 1e-8))
    rfix = max(
        tis_residual_f1(XI_FIXED_F1, 1.0, _CTL),
        tis_residual_f2(XI_FIXED_F2, 1.0, _CTL),
        tis_residual_nontrivial(XI_FIXED_NONTRIVIAL, _CTL),
    )
    out.append(_check("tis/fixed-points", rfix, 1e-12))
    naive = tis_residual_boyer_naive(0.5, 1.0, _CTL)
    out.append(Check("tis/boyer-naive-fails", naive, 1e-2, naive > 1e-2))


def _identities(out: list):
    worst = 0.0
    for b in (0.05, 0.3, 1.0, 5.0, 20.0):
        la, ra = identity_alternating(b, _CTL)
        lp, rp = identity_plain(b, _CTL)
        worst = max(worst, abs(la - ra), abs(lp - rp))
    out.append(_check("identities/alternating-and-plain", worst, 1e-10))


def _pressure(grid, out: list):
    worst_pair = 0.0
    for xi in grid:
        if xi < fe._POISSON_XI_FLOOR:
            continue
        a = _row("pressure", "coth", _BOYER_PAIR, xi).value
        b = _row("pressure", "poisson", _BOYER_PAIR, xi).value
        worst_pair = max(worst_pair, abs(a - b))
    out.append(_check("pressure/dfdxi-vs-poisson", worst_pair, 1e-8))
    worst_fd = 0.0
    d = 1.0
    for xi in (0.1, 0.5, 1.0, 2.0):
        if grid is not GRIDS["default"] and xi not in grid:
            continue
        beta = d / (math.pi * xi)
        h = 1e-5 * d
        fp = _row("free_energy", "auto", PlateSystem(d + h), (d + h) / (math.pi * beta)).value
        fm = _row("free_energy", "auto", PlateSystem(d - h), (d - h) / (math.pi * beta)).value
        p = _row("pressure", "auto", _BOYER_PAIR, xi).value
        worst_fd = max(worst_fd, abs(p + (fp - fm) / (2.0 * h)) / abs(p))
    out.append(_check("pressure/energy-consistency", worst_fd, 1e-5))
    p0 = pressure_zero_T(_BOYER_PAIR)
    cancel = abs(_row("pressure", "poisson", _BOYER_PAIR, 0.05).value / p0 - 1.0)
    out.append(_check("pressure/zero-T-cancellation", cancel, 2e-4))
    # P = 3F - xi dF/dxi between the composed pressure and free energy, on
    # both routes of the kernel
    worst = max(_thermodynamic_residual(xi, route, _CTL) for xi in grid
                for route in ("coth", "poisson") if route == "coth" or xi >= fe._POISSON_XI_FLOOR)
    out.append(_check("pressure/thermodynamic-identity", worst, 1e-6))
    # the routed pressure against zero-T plus the thermal-log series, which
    # does not use the conductor kernel, in units of the sum of their bars
    worst = 0.0
    for xi in grid:
        routed = _row("pressure", "auto", _BOYER_PAIR, xi)
        tlog = pressure_thermal_log(ThermalPoint(xi), 1.0, _CTL)
        miss = abs(math.fsum((routed.value, -p0, -tlog.value)))
        worst = max(worst, miss / (routed.abs_err_est + tlog.abs_err_est))
    out.append(_check("pressure/thermal-log-vs-routed", worst, 1.0))


def _asymptotics(out: list):
    for rep, xi, tol in (("low", 0.05, 1e-5), ("high", 2.0, 1e-4)):
        exact = _row("free_energy", "auto", _BOYER_PAIR, xi).value
        closed = _row("free_energy", rep, _BOYER_PAIR, xi).value
        out.append(_check(f"asymptotics/{rep}-T", abs(closed - exact) / abs(exact), tol))
    xi = ThermalPoint.from_beta(0.1, 1.0).xi
    pp = _row("pressure", "poisson", _BOYER_PAIR, xi).value
    out.append(_check("asymptotics/pressure-high-T",
                      abs(_row("pressure", "high", _BOYER_PAIR, xi).value - pp) / abs(pp), 1e-6))


def _epstein_overlap(out: list):
    worst = 0.0
    for z in (1.6, 2.0, 2.5, 3.0):
        for a in ((1.0, 1.0), (1.0, 4.0), (0.25, 1.0)):
            direct = epstein_direct(EpsteinParams(z, a), _CTL).value
            cont = epstein2_continued(z, a[0], a[1], _CTL).value
            worst = max(worst, abs(direct - cont))
    out.append(_check("epstein/continuation-vs-direct", worst, 1e-9))
    p = EpsteinParams(2.0, (1.0, 4.0))
    v = epstein_direct(p, _CTL).value
    vx = epstein_direct(EpsteinParams(2.0, (4.0, 1.0)), _CTL).value
    lam = 3.0
    vh = epstein_direct(EpsteinParams(2.0, (lam, 4.0 * lam)), _CTL).value
    res = max(abs(vx / v - 1.0), abs(vh * lam**2.0 / v - 1.0))
    out.append(_check("epstein/exchange-and-homogeneity", res, 1e-10))


def _split(out: list):
    worst = 0.0
    for xi in (0.1, 0.3, 1.0, 3.0):
        # F1 - F2 from the lattice sums (the table's lattice row), independent
        # of the kernel that composes the Boyer value from the same split
        f1_minus_f2 = _row("free_energy", "lattice", _BOYER_PAIR, xi).value
        fb = _row("free_energy", "auto", _BOYER_PAIR, xi).value
        worst = max(worst, abs(f1_minus_f2 - fb))
    out.append(_check("split/f1-minus-f2", worst, 1e-8))
    rec = sb_to_casimir()
    out.append(
        _check(
            "split/sb-to-casimir",
            abs(rec["boyer_zero_T_from_TIS"] - rec["direct"]),
            1e-18,
        )
    )
    # the kernel that serves f1_eval and f2_eval against the lattice sums, at
    # the arguments x = a xi the TIS checks give it on the default grid
    worst = 0.0
    for x in _KERNEL_VS_LATTICE_X:
        single = _row("free_energy", "coth", _CONDUCTOR_PAIR, x)
        lattice = f_conducting_lattice(x, _LATTICE_CTL)
        worst = max(worst, abs(single.value - lattice.value)
                    / (single.abs_err_est + lattice.abs_err_est))
    out.append(_check("split/conductor-kernel-vs-lattice", worst, 1.0))


def _zero_t_anchors(out: list):
    fb = _row("free_energy", "auto", _BOYER_PAIR, 0.02).value
    out.append(_check("anchors/boyer-zero-T", abs(fb - 0.875 * math.pi**2 / 720.0), 1e-6))
    # the conducting thermal residual at xi = 0.02 is ~4.7e-5, genuinely
    # above the anchor tolerance; probe deeper where it has died off
    fc = _row("free_energy", "coth", _CONDUCTOR_PAIR, 0.004).value
    out.append(_check("anchors/conductor-zero-T", abs(fc + math.pi**2 / 720.0), 1e-6))
    # the routed pressure and its low-T closed form, whose leading term is
    # the zero-T pressure
    p0 = 0.875 * math.pi**2 / 240.0
    miss = max(abs(_row("pressure", rep, _BOYER_PAIR, 0.02).value - p0) for rep in ("auto", "low"))
    out.append(_check("anchors/pressure-zero-T", miss, 1e-5))


def run_all(grid: str = "default", tamper: str | None = None) -> list:
    """Run the full invariant battery; returns a list of Check records.

    ``tamper='bessel-sign'`` flips the sign of the double-sum (``bessel``)
    engine's thermal part for the duration of the run -- a harness
    self-test that must make the equivalence check fail.
    """
    points = GRIDS[grid]
    checks: list[Check] = []
    old_sign = fe._BESSEL_THERMAL_SIGN
    if tamper == "bessel-sign":
        fe._BESSEL_THERMAL_SIGN = -1.0
    elif tamper is not None:
        raise ValueError(f"unknown tamper hook {tamper!r}")
    try:
        steps: list[Callable] = [
            lambda: _representation_equivalence(points, checks),
            lambda: _tis(points, checks),
            lambda: _identities(checks),
            lambda: _pressure(points, checks),
            lambda: _asymptotics(checks),
            lambda: _epstein_overlap(checks),
            lambda: _split(checks),
            lambda: _zero_t_anchors(checks),
        ]
        for step in steps:
            try:
                step()
            except CasimirError as exc:
                checks.append(Check(f"error/{type(exc).__name__}", math.inf, 0.0, False))
    finally:
        fe._BESSEL_THERMAL_SIGN = old_sign
    return checks
