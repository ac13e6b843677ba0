"""Exhaustive axiom checking for social choice correspondences on
strict-preference profiles, organized around the Pareto correspondence."""

import os

# The package makes no BLAS call, so numpy's OpenBLAS needs no idle worker thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    ChoiceSet,
    DomainIndex,
    Ordering,
    ParseError,
    Profile,
    TranspositionSite,
    Universe,
    apply_alternative_permutation,
    apply_individual_permutation,
    apply_transposition,
    enumerate_orderings,
    index_profile,
    lower_one,
    lower_to_just_below,
    pareto_dominates,
    parse_profile,
    profile_index,
    raise_one,
    raise_to_just_below,
    rank_of,
    transposition_sites,
)
from .rules import (
    Correspondence,
    RULE_CATALOG,
    RuleCatalogEntry,
    borda,
    constant_all,
    copeland,
    dictatorship,
    evaluate,
    example_rule,
    load_table,
    make_rule,
    pareto_set,
    pareto_set_by_elimination,
    plurality,
    tops_union,
)
from .axioms import (
    AXIOMS,
    AxiomReport,
    Witness,
    axiom_matrix,
    check_anonymity,
    check_axiom,
    check_axiom_reference,
    check_axioms,
    check_balancedness,
    check_monotonicity,
    check_neutrality,
    check_pareto_condition,
    check_strong_stability,
    check_tops_in,
    check_weak_monotonicity,
    replay_witness,
)
from .analysis import (
    Deviation,
    ExampleReport,
    HeightResult,
    THEOREM_AXIOMS,
    TheoremResult,
    gap,
    height,
    perturbation_search,
    reproduce_example,
    stability_descent_audit,
    verify_theorem,
)

__version__ = "0.1.0"
