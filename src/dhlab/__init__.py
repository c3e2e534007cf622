"""Exact exterior calculus and Monte-Carlo machinery for moment-map
pushforward (Duistermaat-Heckman) densities of circle actions, plus
log-concavity analysis and the toric slice-volume baseline.

The exact modules (``construction``, ``exterior``, ``logconcavity``) are
imported with the package.  The names from ``measure`` and ``toric`` are
resolved on first access through a module ``__getattr__``, because those
modules import numpy: ``import dhlab``, ``dhlab verify`` and ``dhlab
logconcavity`` run without loading it, while ``from dhlab import
HPolytope`` and ``from dhlab import *`` work as before."""

from importlib import import_module

from .construction import (
    CutWindow,
    DegenerateWindowError,
    GaugeError,
    OmegaParams,
    VerificationReport,
    analytic_dh_density,
    build_connection,
    build_omega,
    canonical_chart,
    canonical_gauge,
    curvature_form,
    shifted_gauge,
    standard_construction,
    verify_construction,
)
from .exterior import (
    Chart,
    ChartMismatchError,
    DimensionError,
    Form,
    Poly,
    UnsupportedIntegrandError,
    Variable,
    exterior_derivative,
    integrate_over_face,
    interior_product,
    poly_str,
    wedge,
)
from .logconcavity import (
    DomainError,
    ViolationReport,
    analytic_logconcavity,
    concavity_discriminant,
    discrete_logconcavity,
    isolate_roots,
)

# public name -> the numpy-backed submodule that defines it
_LAZY = {
    name: module
    for module, names in (
        ("measure", ("ComparisonReport", "DensityEstimate", "EmptyMeasureError",
                     "Histogram", "SamplerConfig", "compare", "normalize",
                     "sample_pushforward")),
        ("toric", ("EmptyPolytopeError", "HPolytope", "InsufficientDataError",
                   "SliceVolumeFn", "UnboundedPolytopeError", "prekopa_check",
                   "projection_range", "slice_profile", "suggested_tolerance")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "Chart", "ChartMismatchError", "ComparisonReport", "CutWindow",
    "DegenerateWindowError", "DensityEstimate", "DimensionError", "DomainError",
    "EmptyMeasureError", "EmptyPolytopeError", "Form", "GaugeError", "HPolytope",
    "Histogram", "InsufficientDataError", "OmegaParams", "Poly", "SamplerConfig",
    "SliceVolumeFn", "UnboundedPolytopeError", "UnsupportedIntegrandError",
    "Variable", "VerificationReport", "ViolationReport", "analytic_dh_density",
    "analytic_logconcavity", "build_connection", "build_omega",
    "canonical_chart", "canonical_gauge", "concavity_discriminant", "compare",
    "curvature_form", "discrete_logconcavity", "exterior_derivative",
    "integrate_over_face", "interior_product", "isolate_roots", "normalize",
    "poly_str", "prekopa_check", "projection_range", "sample_pushforward",
    "shifted_gauge", "slice_profile", "standard_construction",
    "suggested_tolerance", "verify_construction", "wedge",
]
