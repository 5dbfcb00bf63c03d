"""Net Casimir pressure on the mixed conducting/permeable plate pair.

Positive pressure means repulsion (the plates are pushed apart).  The
pressure's rows of the table ``free_energy._SERVED``, Boyer only, are
``auto`` (routed), ``coth`` (reported as ``dfdxi``) and ``poisson``, the
kernel's pressure profile d^4 P = p(2 xi)/8 - p(xi) with p = 3 g - x g' on
either route, each one call of ``free_energy._pair``, and ``low`` and
``high``, its closed forms in ``forms``.  The Poisson route is the coth
route of the pair inverted by the paper's modified TIS (x' = 1/(4 pi^2 x),
each half (a, w) -> (1/a, w a^4), g -> g, p -> 2 g - p).  The thermal-log
series, an independent evaluation, lives in ``forms``.  The relation
P = 3F - xi dF/dxi between the composed pressure and free energy holds by
construction of the profiles, so it is checked once in ``casimir verify``
(``forms._thermodynamic_residual``), not on every call; so is the
agreement of the routed pressure with the thermal-log series.
"""

from __future__ import annotations

from .free_energy import (
    _BOYER,
    _MAX,
    _SERVED,
    EvalResult,
    PlateKind,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
    _forms,
    _kernel_row,
    _pair,
    _require_boyer,
    _require_separation,
)

__all__ = [
    "pressure_zero_T",
    "pressure_net_dfdxi",
    "pressure_poisson",
    "pressure_auto",
]


def pressure_zero_T(sys: PlateSystem) -> float:
    """Zero-temperature net pressure, +(7/8) pi^2/(240 d^4)."""
    _require_boyer(sys, "pressure")
    return _pair(sys.kind, sys.d, 0.0, True, None, "zero-T").value


def pressure_net_dfdxi(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """The row ('pressure', 'coth') at t and d.  Kept because
    ``benchmarks/child.py`` times it by name; the package reaches the row
    through the table."""
    # PlateSystem(d) validates d
    return _pair(PlateKind.BOYER_MIXED, PlateSystem(d).d, t.xi, True, ctl, "coth")


def pressure_poisson(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """The row ('pressure', 'poisson') at t and d, refused below xi = 0.05.
    Kept because ``benchmarks/child.py`` times it by name; the package
    reaches the row through the table."""
    # PlateSystem(d) validates d
    return _pair(PlateKind.BOYER_MIXED, PlateSystem(d).d, t.xi, True, ctl, "poisson")


def pressure_auto(d: float, xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Routed pressure by scaled temperature: derivative form at small xi,
    Poisson above; xi = 0 is the exact zero-temperature limit (removable)."""
    if not 0.0 < d <= _MAX:  # also an integer d past the float range
        _require_separation(d)
    return _pair(PlateKind.BOYER_MIXED, d, xi, True, ctl)


# the table's pressure rows (see free_energy._SERVED), Boyer only; a
# closed-form row loads ``forms`` when called
_SERVED.update({
    ("pressure", "auto"): (_kernel_row(True, None), _BOYER),
    ("pressure", "coth"): (_kernel_row(True, "coth"), _BOYER),
    ("pressure", "poisson"): (_kernel_row(True, "poisson"), _BOYER),
    ("pressure", "low"): (lambda sys, xi, ctl: _forms()._closed_form(sys, xi, False, True), _BOYER),
    ("pressure", "high"): (lambda sys, xi, ctl: _forms()._closed_form(sys, xi, True, True), _BOYER),
})
