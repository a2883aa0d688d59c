"""Exact symbolic computation with frescos (monogenic geometric (a,b)-modules).

Importing the package loads none of its modules: each exported name is
looked up in the table below and its module is imported on first
access (PEP 562), so a command loads only the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the names it exports, in the order of __all__
_EXPORTS = {
    "series": ("SeriesB", "rat", "solve_resonant_ode", "DEFAULT_ORDER"),
    "algebra": (
        "AbElement",
        "check_exchange",
        "check_middle_unit_exchange",
        "check_unit_exchange",
        "initial_form",
        "monic_expansion",
        "normal_form_mul",
    ),
    "fresco": (
        "AdaptedModel",
        "BernsteinData",
        "Presentation",
        "bernstein",
        "fundamental_invariants",
        "presentation_from_annihilator",
        "regenerate_presentation",
        "sub_quotient",
        "trivial_units",
        "twist",
    ),
    "oracle": (
        "TruncatedRep",
        "minimal_annihilator",
        "span_closure",
        "submodule_analysis",
        "truncate_rep",
    ),
    "alpha": (
        "Analysis",
        "Rank2Class",
        "ThemeClass",
        "classify_rank2",
        "dual_twist_rank2",
        "is_semisimple",
        "rank3_alpha_formula",
    ),
    "xi": (
        "XiExpansion",
        "XiSpan",
        "model_from_xi",
        "xi_exponent_split",
        "xi_generate_module",
        "xi_log_filtration",
    ),
    "dsl": (
        "from_json",
        "parse_dsl",
        "parse_fresco",
        "parse_series",
        "parse_xi",
        "print_fresco",
        "print_xi",
        "to_json",
    ),
    "errors": ("EngineError",),
}

_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    """Import the module that exports name, and keep the name here."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value
