"""Green's relations, stability and minimal conditions on finite
semigroups and biacts, with a symbolic counterexample catalog and a
machine-checked claim registry."""

from .biact import (
    FiniteBiact,
    Subact,
    biact_rees_quotient,
    ideal_biact,
    product_biact,
    pullback_biact,
    regular_biact,
    relative_biact,
    relative_rees,
    subact_closure,
    validate_biact,
)
from .core import (
    Congruence,
    FiniteSemigroup,
    SubsetRole,
    adjoin,
    classify_subset,
    congruence_closure,
    generate_from_transformations,
    quotient,
    rees_quotient,
    subsemigroup,
    validate_table,
    zero_direct_union,
)
from .green import (
    GreenIndexResult,
    GreenStructure,
    class_counts,
    eggbox,
    green_index,
    green_structure,
    le,
)
from .props import (
    PredicateResult,
    group_bound,
    k_preserving,
    l_periodic,
    left_stable,
    left_stable_forms,
    minimal_condition,
    r_periodic,
    regular_subsemigroup,
    retract,
    right_stable,
    stable,
    stable_char,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteBiact", "FiniteSemigroup", "Congruence", "SubsetRole", "Subact",
    "GreenIndexResult", "GreenStructure", "PredicateResult",
    "adjoin", "biact_rees_quotient", "catalog", "catalog_entry",
    "class_counts", "classify_subset", "congruence_closure",
    "corollary_4_19_instance", "corollary_5_12_instance", "eggbox",
    "example_4_8", "generate_from_transformations", "green_index",
    "green_structure", "group_bound", "ideal_biact", "k_preserving",
    "l_periodic", "le", "left_stable", "left_stable_forms",
    "minimal_condition", "product_biact", "pullback_biact", "quotient",
    "r_periodic", "rees_quotient", "regular_biact", "regular_subsemigroup",
    "relative_biact", "relative_rees", "retract", "right_stable", "stable",
    "stable_char", "subact_closure", "subsemigroup", "validate_biact",
    "validate_table", "verify_chain", "zero_direct_union",
]

# the symbolic catalog loads on first use of one of its names (PEP 562), so
# importing the package or its engine modules does not import it
_SYMBOLIC = frozenset({"catalog", "catalog_entry", "corollary_4_19_instance",
                       "corollary_5_12_instance", "example_4_8", "verify_chain"})


def __getattr__(name: str):
    if name in _SYMBOLIC:
        from . import symbolic
        return getattr(symbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
