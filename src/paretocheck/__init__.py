"""Exhaustive axiom checking for social choice correspondences on
strict-preference profiles, organized around the Pareto correspondence.

The package namespace is lazy (PEP 562).  ``import paretocheck`` loads no
submodule and not numpy; each name below is imported from its submodule on
first access and then kept in the package namespace, so it is the same
object as the submodule's.  ``paretocheck.DomainIndex`` loads ``core``,
``paretocheck.make_rule`` loads ``core`` and ``rules``, a checker or the
theorem harness loads ``axioms`` as well, and the search, the height and
gap measurements and the examples load ``analysis``.
"""

import os

# The package makes no BLAS call, so numpy's OpenBLAS needs no idle worker thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ChoiceSet", "DomainIndex", "Ordering", "ParseError", "Profile",
        "TranspositionSite", "Universe", "apply_alternative_permutation",
        "apply_individual_permutation", "apply_transposition", "enumerate_orderings",
        "lower_one", "pareto_dominates", "parse_profile", "raise_one", "transposition_sites",
    ),
    "rules": (
        "Correspondence", "RULE_CATALOG", "RuleCatalogEntry", "example_rule", "load_table",
        "make_rule", "pareto_set_by_elimination",
    ),
    "axioms": (
        "AXIOMS", "AxiomReport", "THEOREM_AXIOMS", "TheoremResult", "Witness", "axiom_matrix",
        "check_axiom", "check_axiom_reference", "check_axioms", "replay_witness",
        "verify_theorem",
    ),
    "analysis": (
        "Deviation", "ExampleReport", "HeightResult", "gap", "height",
        "perturbation_search", "reproduce_example", "stability_descent_audit",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so -X importtime lists the module
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups, and vars(paretocheck), find it directly
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
