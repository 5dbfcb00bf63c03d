"""Net Casimir pressure: the routed pressure of the mixed
conducting/permeable pair and the zero-temperature pressure of both pairs.

Positive pressure means repulsion (the plates are pushed apart).  The
pressure's rows of the table ``free_energy._SERVED``, for both pairs, are
``auto`` (routed), ``coth`` (reported as ``dfdxi``) and ``poisson``, the
kernel's pressure profile on either route (conductors: d^4 P = p(xi),
Boyer pair: p(2 xi)/8 - p(xi), with p = 3 g - x g'), each one call of
``free_energy._pair``, and ``low`` and ``high``, its closed forms in
``forms``.  The Poisson route is the coth route of the pair inverted by
the paper's modified TIS (x' = 1/(4 pi^2 x), each half (a, w) ->
(1/a, w a^4), g -> g, p -> 2 g - p).  The thermal-log series, an
independent evaluation, lives in ``forms``.  The relation
P = 3F - xi dF/dxi between the composed pressure and free energy holds by
construction of the profiles, so it is checked once in ``casimir verify``
(``forms._thermodynamic_residual``), not on every call; so is the
agreement of the routed pressure with the thermal-log series.
"""

from __future__ import annotations

from .free_energy import (
    _MAX,
    EvalResult,
    PlateKind,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
    _pair,
    _require_separation,
)

__all__ = [
    "pressure_zero_T",
    "pressure_net_dfdxi",
    "pressure_poisson",
    "pressure_auto",
]


def pressure_zero_T(sys: PlateSystem) -> float:
    """Zero-temperature net pressure: +(7/8) pi^2/(240 d^4) for the Boyer
    pair, -pi^2/(240 d^4) for the conductors."""
    return _pair(sys.kind, sys.d, 0.0, True, None, "zero-T").value


def pressure_net_dfdxi(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """The row ('pressure', 'coth') of the Boyer pair at t and d.  Kept
    because ``benchmarks/child.py`` times it by name; the package reaches
    the row through the table."""
    # PlateSystem(d) validates d
    return _pair(PlateKind.BOYER_MIXED, PlateSystem(d).d, t.xi, True, ctl, "coth")


def pressure_poisson(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """The row ('pressure', 'poisson') of the Boyer pair at t and d.  Kept
    because ``benchmarks/child.py`` times it by name; the package reaches
    the row through the table."""
    # PlateSystem(d) validates d
    return _pair(PlateKind.BOYER_MIXED, PlateSystem(d).d, t.xi, True, ctl, "poisson")


def pressure_auto(d: float, xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Routed pressure by scaled temperature: derivative form at small xi,
    Poisson above; xi = 0 is the exact zero-temperature limit (removable)."""
    if not 0.0 < d <= _MAX:  # also an integer d past the float range
        _require_separation(d)
    return _pair(PlateKind.BOYER_MIXED, d, xi, True, ctl)

