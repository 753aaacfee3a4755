"""Green's relations, stability and minimal conditions on finite
semigroups and biacts, with a symbolic counterexample catalog and a
machine-checked claim registry."""

import importlib

__version__ = "0.1.0"

# every engine name loads its module on first use (PEP 562), so importing
# the package, or launching ``greenstone --version``, loads no engine module
_LAZY = {name: module for module, names in {
    "biact": ("FiniteBiact", "Subact", "biact_rees_quotient", "ideal_biact",
              "product_biact", "pullback_biact", "regular_biact", "relative_biact",
              "relative_rees", "subact_closure", "validate_biact"),
    "core": ("Congruence", "FiniteSemigroup", "SubsetRole", "adjoin", "classify_subset",
             "congruence_closure", "generate_from_transformations", "quotient",
             "rees_quotient", "subsemigroup", "validate_table", "zero_direct_union"),
    "green": ("GreenIndexResult", "GreenStructure", "class_counts", "eggbox",
              "green_index", "green_structure", "le"),
    "props": ("PredicateResult", "group_bound", "k_preserving", "l_periodic",
              "left_stable", "left_stable_forms", "minimal_condition", "r_periodic",
              "regular_subsemigroup", "retract", "right_stable", "stable", "stable_char"),
    "symbolic": ("catalog", "catalog_entry", "corollary_4_19_instance",
                 "corollary_5_12_instance", "example_4_8", "verify_chain"),
}.items() for name in names}
# the engine submodules that a bare ``import greenstone`` also reaches
_SUBMODULES = frozenset({"core", "biact", "green", "props"})

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
