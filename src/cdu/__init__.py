"""c-differential uniformity toolkit over finite fields.

Compute c-difference distribution tables and PcN/APcN classifications,
build permutation and 2-to-1 families through the AGW criterion, and run
exceptionality sweeps for power functions across extension towers.
"""

from .cdiff import (
    CDiffSpectrum,
    ClassificationReport,
    c_ddt,
    c_derivative,
    c_uniformity,
    check_quadratic_characterization,
    classify_c,
    full_report,
    is_pseudo_pcn,
    is_relaxed_pcn,
)
from .construct import (
    AgwParams,
    JSubspace,
    build_agw_pp,
    build_apcn_2to1,
    build_quad_exponent_pp,
    subspace_j,
    validate_preconditions,
)
from .field import (
    FieldContext,
    FieldSpec,
    embed,
    make_field,
    parse_element,
    parse_field_spec,
    relative_trace,
)
from .funcs import (
    PolyFunc,
    ShapeFlags,
    classify_shape,
    classify_unreduced,
    is_permutation,
    is_planar,
    is_two_to_one,
    parse_function,
)
from .monomial import (
    ExtensionVerdict,
    MonomialAnalysis,
    ValueDistribution,
    exceptionality_sweep,
    gcd_necessity,
    min_s,
    root_in_fps,
    singular_points,
    value_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AgwParams",
    "CDiffSpectrum",
    "ClassificationReport",
    "ExtensionVerdict",
    "FieldContext",
    "FieldSpec",
    "JSubspace",
    "MonomialAnalysis",
    "PolyFunc",
    "ShapeFlags",
    "ValueDistribution",
    "build_agw_pp",
    "build_apcn_2to1",
    "build_quad_exponent_pp",
    "c_ddt",
    "c_derivative",
    "c_uniformity",
    "check_quadratic_characterization",
    "classify_c",
    "classify_shape",
    "classify_unreduced",
    "embed",
    "exceptionality_sweep",
    "full_report",
    "gcd_necessity",
    "is_permutation",
    "is_planar",
    "is_pseudo_pcn",
    "is_relaxed_pcn",
    "is_two_to_one",
    "make_field",
    "min_s",
    "parse_element",
    "parse_field_spec",
    "parse_function",
    "relative_trace",
    "root_in_fps",
    "singular_points",
    "subspace_j",
    "validate_preconditions",
    "value_distribution",
]
