"""Net Casimir pressure on the mixed conducting/permeable plate pair.

Positive pressure means repulsion (the plates are pushed apart).  The
pressure's rows of the table ``free_energy._SERVED``, Boyer only, are
``auto`` (routed), ``coth`` (reported as ``dfdxi``) and ``poisson``, the
kernel's pressure profile d^4 P = p(2 xi)/8 - p(xi) with p = 3 g - x g' on
either route, and ``low`` and ``high``, its closed forms in ``forms``.
The Poisson route is the coth route of the pair inverted by the paper's
modified TIS (x' = 1/(4 pi^2 x), each half (a, w) -> (1/a, w a^4),
g -> g, p -> 2 g - p).  The thermal-log series, an independent
evaluation, lives in ``forms``.  The relation P = 3F - xi dF/dxi between
the composed pressure and free energy holds by construction of the
profiles, so it is checked once in ``casimir verify``
(``forms._thermodynamic_residual``), not on every call; so is the
agreement of the routed pressure with the thermal-log series.
"""

from __future__ import annotations

from .errors import DomainError
from .free_energy import (
    _BOYER,
    _COTH_POISSON_SPLIT,
    _INF,
    _MAX,
    _SERVED,
    _ZERO_T_XI,
    EvalResult,
    PlateKind,
    PlateSystem,
    SeriesControl,
    ThermalPoint,
    _forms,
    _pair,
    _pair_profile,
    _require_boyer,
    _require_separation,
    _route,
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
    return _pair(sys, 0.0, "zero-T", None, True).value


def pressure_net_dfdxi(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """The row ('pressure', 'coth') at t and d.  Kept because
    ``benchmarks/child.py`` times it by name; the package reaches the row
    through the table."""
    return _pair(PlateSystem(d), t.xi, "coth", ctl, True, "dfdxi")


def pressure_poisson(
    t: ThermalPoint, d: float, ctl: SeriesControl | None = None
) -> EvalResult:
    """The row ('pressure', 'poisson') at t and d, refused below xi = 0.05.
    Kept because ``benchmarks/child.py`` times it by name; the package
    reaches the row through the table."""
    return _pair(PlateSystem(d), t.xi, "poisson", ctl, True)


def pressure_auto(d: float, xi: float, ctl: SeriesControl | None = None) -> EvalResult:
    """Routed pressure by scaled temperature: derivative form at small xi,
    Poisson above; xi = 0 is the exact zero-temperature limit (removable)."""
    if _ZERO_T_XI < xi < _INF:  # the routes of _route, inline
        route = "coth" if xi < _COTH_POISSON_SPLIT else "poisson"
    else:
        route = _route(xi)
    if not 0.0 < d <= _MAX:  # also an integer d past the float range
        _require_separation(d)
    value, _, err, terms = _pair_profile(PlateKind.BOYER_MIXED, xi, route, True, ctl)
    value, err = value / d / d / d / d, err / d / d / d / d
    if not (-_INF < value < _INF and err < _INF):
        raise DomainError(f"the result at d={d!r} is outside the floating-point range")
    return tuple.__new__(EvalResult, (value, err, terms, "dfdxi" if route == "coth" else route))


# the table's pressure rows (see free_energy._SERVED), Boyer only; a
# closed-form row loads ``forms`` when called
_SERVED.update({
    ("pressure", "auto"): (lambda sys, xi, ctl: pressure_auto(sys.d, xi, ctl), _BOYER),
    ("pressure", "coth"): (lambda sys, xi, ctl: _pair(sys, xi, "coth", ctl, True, "dfdxi"), _BOYER),
    ("pressure", "poisson"): (lambda sys, xi, ctl: _pair(sys, xi, "poisson", ctl, True), _BOYER),
    ("pressure", "low"): (lambda sys, xi, ctl: _forms()._closed_form(sys, xi, False, True), _BOYER),
    ("pressure", "high"): (lambda sys, xi, ctl: _forms()._closed_form(sys, xi, True, True), _BOYER),
})
