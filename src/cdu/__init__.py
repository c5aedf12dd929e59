"""c-differential uniformity toolkit over finite fields.

Compute c-difference distribution tables and PcN/APcN classifications,
build permutation and 2-to-1 families through the AGW criterion, and run
exceptionality sweeps for power functions across extension towers.

``import cdu`` loads none of the modules below: each public name imports
its module on first use (PEP 562), so a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "cdiff": ("CDiffSpectrum", "ClassificationReport", "c_ddt", "c_derivative",
              "c_uniformity", "check_quadratic_characterization", "classify_c",
              "full_report", "is_pseudo_pcn", "is_relaxed_pcn", "write_c_ddt_csv"),
    "construct": ("AgwParams", "JSubspace", "build_agw_pp", "build_apcn_2to1",
                  "build_quad_exponent_pp", "subspace_j", "validate_preconditions"),
    "field": ("FieldContext", "FieldSpec", "embed", "make_field", "parse_element",
              "parse_field_spec", "trace_table"),
    "funcs": ("PolyFunc", "ShapeFlags", "classify_shape", "is_permutation", "is_planar",
              "is_two_to_one", "parse_function"),
    "monomial": ("ExtensionVerdict", "MonomialAnalysis", "ValueDistribution",
                 "exceptionality_sweep", "min_s", "root_in_fps", "singular_points",
                 "value_distribution"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
