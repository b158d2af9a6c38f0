"""Equivariant Hilbert series of monomial submodules of free OI-modules.

The width-n components of such a module assemble into a two-variable
series that is rational with a controlled denominator; this package
computes it exactly by compiling generators to a weighted automaton,
and extracts growth invariants from the result.
"""

from .analysis import (
    DegreeFit,
    DimensionGrowth,
    MultiplicityGrowth,
    ShapeReport,
    artinian_test,
    asymptotic_dimension,
    asymptotic_multiplicity,
    fixed_degree_polynomial,
    validate_shape,
)
from .errors import OihError
from .oicore import (
    ModulePresentation,
    Monomial,
    hilbert_width,
    hilbert_widths,
    symmetrize_fi_ideal,
)
from .schema import InputDocument, load_document, parse_document
from .series import SeriesResult, free_series, module_series
from .words import decode, encode

__version__ = "0.1.0"

# decomposition serves one command; its names load it on first access
_DECOMPOSITION = {"Decomposition", "compute_decomposition"}


def __getattr__(name):
    if name in _DECOMPOSITION:
        from . import decomposition
        return getattr(decomposition, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _DECOMPOSITION)

__all__ = [
    "Decomposition",
    "DegreeFit",
    "DimensionGrowth",
    "InputDocument",
    "ModulePresentation",
    "Monomial",
    "MultiplicityGrowth",
    "OihError",
    "SeriesResult",
    "ShapeReport",
    "artinian_test",
    "asymptotic_dimension",
    "asymptotic_multiplicity",
    "compute_decomposition",
    "decode",
    "encode",
    "fixed_degree_polynomial",
    "free_series",
    "hilbert_width",
    "hilbert_widths",
    "load_document",
    "module_series",
    "parse_document",
    "symmetrize_fi_ideal",
    "validate_shape",
]
