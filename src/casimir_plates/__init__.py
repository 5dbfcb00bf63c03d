"""Finite-temperature Casimir free energy and pressure for the mixed
conducting/permeable (Boyer) plate pair, with cross-validated series
representations, Epstein zeta continuation, and temperature-inversion
symmetry machinery."""

from .errors import (
    CasimirError,
    ConvergenceError,
    DomainError,
    PoleError,
    SlowConvergenceError,
    UnsupportedRepresentationError,
)
from .free_energy import (
    PlateKind,
    PlateSystem,
    RepresentationKind,
    ThermalPoint,
    evaluate_free_energy,
    free_energy_auto,
    zero_temperature_energy,
)
from .pressure import pressure_auto, pressure_zero_T
from .specfun import EvalResult, SeriesControl

__version__ = "0.1.0"

__all__ = [
    "CasimirError",
    "ConvergenceError",
    "DomainError",
    "PoleError",
    "SlowConvergenceError",
    "UnsupportedRepresentationError",
    "PlateKind",
    "PlateSystem",
    "RepresentationKind",
    "ThermalPoint",
    "EvalResult",
    "SeriesControl",
    "evaluate_free_energy",
    "free_energy_auto",
    "zero_temperature_energy",
    "pressure_auto",
    "pressure_zero_T",
    "__version__",
]
