"""Exact exterior calculus and Monte-Carlo machinery for moment-map
pushforward (Duistermaat-Heckman) densities of circle actions, plus
log-concavity analysis and the toric slice-volume baseline."""

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
    isolate_roots,
    poly_str,
    wedge,
)
from .logconcavity import (
    DomainError,
    ViolationReport,
    analytic_logconcavity,
    concavity_discriminant,
    discrete_logconcavity,
)
from .measure import (
    ComparisonReport,
    DensityEstimate,
    EmptyMeasureError,
    Histogram,
    SamplerConfig,
    compare,
    normalize,
    sample_pushforward,
)
from .toric import (
    EmptyPolytopeError,
    HPolytope,
    InsufficientDataError,
    SliceVolumeFn,
    UnboundedPolytopeError,
    prekopa_check,
    projection_range,
    slice_profile,
    slice_volume_exact_2d,
    suggested_tolerance,
)

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
    "shifted_gauge", "slice_profile", "slice_volume_exact_2d",
    "standard_construction", "suggested_tolerance", "verify_construction",
    "wedge",
]
