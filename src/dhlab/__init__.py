"""Exact exterior calculus and Monte-Carlo machinery for moment-map
pushforward (Duistermaat-Heckman) densities of circle actions, plus
log-concavity analysis and the toric slice-volume baseline.

One rule: ``_LAZY`` maps each public name to the submodule that defines
it, which a module ``__getattr__`` imports on the name's first access.
So ``import dhlab`` loads no submodule, and numpy loads only with
``measure`` or a Monte-Carlo ``toric`` profile.  ``__all__`` and
``dir(dhlab)`` read the same table, so ``from dhlab import *`` binds
every public name."""

from importlib import import_module

# public name -> the submodule, imported on first access, that defines it
_LAZY = {
    name: module
    for module, names in (
        ("construction", ("CutWindow", "DegenerateWindowError", "GaugeError", "OmegaParams",
                          "VerificationReport", "analytic_dh_density", "build_connection",
                          "build_omega", "canonical_chart", "canonical_gauge",
                          "curvature_form", "shifted_gauge", "standard_construction",
                          "verify_construction")),
        ("exterior", ("Chart", "ChartMismatchError", "DimensionError", "Form", "Poly",
                      "UnsupportedIntegrandError", "Variable", "exterior_derivative",
                      "integrate_over_face", "interior_product", "poly_str", "wedge")),
        ("logconcavity", ("DomainError", "ViolationReport", "analytic_logconcavity",
                          "concavity_discriminant", "discrete_logconcavity",
                          "isolate_roots")),
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

__all__ = sorted(_LAZY)
