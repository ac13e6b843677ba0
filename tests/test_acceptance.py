"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import time
from contextlib import contextmanager

import pytest

from paretocheck import (
    AXIOMS,
    DomainIndex,
    check_axiom,
    check_axiom_reference,
    check_axioms,
    axiom_matrix,
    example_rule,
    make_rule,
    pareto_set_by_elimination,
    perturbation_search,
    replay_witness,
    reproduce_example,
    verify_theorem,
)
from paretocheck.axioms import CONSISTENT_EQUAL, THEOREM_CONTRADICTION
from paretocheck.rules import pareto_mask

CATALOG = ("pareto", "tops", "borda", "plurality", "copeland", "dictator:1", "all")
GP_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2))


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{name}]: PASS")


def test_criterion_1_pareto_rule_passes_all_axioms_everywhere():
    with criterion(1, "undominated-set rule passes all eight axioms at every size"):
        start = time.perf_counter()
        for m, n in GP_SIZES:
            d = DomainIndex(m, n)
            G = make_rule("pareto", m, n)
            for rep in check_axioms(G, d):
                assert rep.passed, (m, n, rep.summary())
                assert rep.profiles_scanned == d.total
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_axiom_matrix_matches_documented_claims(d33):
    with criterion(2, "axiom matrix at (3,3) matches every documented claim"):
        rules = [make_rule(name, 3, 3) for name in CATALOG]
        result = axiom_matrix(rules, AXIOMS, d33)

        def verdict(rule, axiom):
            return result.report(rule, axiom).verdict

        assert verdict("tops", "balancedness") == "fail"
        assert verdict("plurality", "balancedness") == "fail"
        assert verdict("borda", "balancedness") == "pass"
        assert verdict("copeland", "balancedness") == "pass"
        assert verdict("borda", "strong-stability") == "fail"
        assert verdict("copeland", "strong-stability") == "fail"
        assert verdict("borda", "tops-in") == "fail"
        assert verdict("plurality", "tops-in") == "fail"
        assert verdict("dictator:1", "strong-stability") == "fail"
        assert verdict("tops", "strong-stability") == "fail"
        assert verdict("plurality", "strong-stability") == "fail"
        # the constant rule fails the dominance condition and nothing else
        for axiom in AXIOMS:
            assert verdict("all", axiom) == ("fail" if axiom == "pareto" else "pass")
        # every failing cell carries a witness that replays against the rule
        for G in rules:
            for axiom in AXIOMS:
                rep = result.report(G.name, axiom)
                if not rep.passed:
                    assert replay_witness(G, d33, rep), (G.name, rep.summary())


def test_criterion_3_examples_reproduce_exactly():
    with criterion(3, "examples 1..11 reproduce exactly, each under 30s"):
        for k in range(1, 12):
            start = time.perf_counter()
            report = reproduce_example(k)
            elapsed = time.perf_counter() - start
            failed = [c.name for c in report.checks if not c.passed]
            assert report.ok, (k, failed)
            assert elapsed < 30.0, f"example {k} took {elapsed:.1f}s"


def test_criterion_4_theorem_harness():
    with criterion(4, "theorem harness: equal for the undominated-set rule, never contradicted"):
        for k, m in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            for n in (2, 3):
                d = DomainIndex(m, n)
                assert verify_theorem(k, make_rule("pareto", m, n), d).verdict == CONSISTENT_EQUAL
                for name in CATALOG:
                    result = verify_theorem(k, make_rule(name, m, n), d)
                    assert result.verdict != THEOREM_CONTRADICTION, (k, n, name)


def test_criterion_5_search_emptiness_pattern(d22, d23, d32, d33, d42, d43, d52):
    with criterion(5, "perturbation search matches the characterization frontier"):
        assert perturbation_search(d22, ("pareto", "tops-in")) == []
        assert perturbation_search(d23, ("pareto", "tops-in")) == []

        three = ("pareto", "tops-in", "balancedness")
        assert perturbation_search(d32, three) == []
        assert perturbation_search(d33, three) == []

        found = perturbation_search(d43, three)
        assert found
        fixed = [dev for dev in found if dev.profiles == ("abcd|bdac|cdab",)]
        assert any(dev.choice_sets == (("a", "b", "c"),) for dev in fixed)

        four = three + ("monotonicity",)
        assert perturbation_search(d42, four) == []
        assert perturbation_search(d43, four) == []

        weak_four = three + ("weak-monotonicity",)
        orbit = perturbation_search(d52, weak_four, mode="orbit")
        assert len(orbit) == 1
        members = dict(zip(orbit[0].profiles, orbit[0].choice_sets))
        assert members["abdce|cedab"] == ("a", "c")
        assert members["cedab|abdce"] == ("a", "c")

        five = weak_four + ("strong-stability",)
        assert perturbation_search(d52, five, mode="orbit") == []


def test_criterion_6_oracle_equivalences(d33, d43, d52, d32):
    with criterion(6, "independent oracles agree"):
        for d in (d43, d52):
            for k in range(d.total):
                u = d.profile(k)
                assert pareto_mask(u) == pareto_set_by_elimination(u).mask
        for name in CATALOG:
            G = make_rule(name, 3, 3)
            assert (check_axiom("anonymity", G, d33).passed
                    == check_axiom_reference("anonymity", G, d33, wide=True).passed), name
            assert (check_axiom("neutrality", G, d33).passed
                    == check_axiom_reference("neutrality", G, d33, wide=True).passed), name
        for name in CATALOG:
            G = make_rule(name, 3, 2)
            assert (check_axiom("monotonicity", G, d32).passed
                    == check_axiom_reference("monotonicity", G, d32, wide=True).passed), name


def test_criterion_7_worker_determinism(d33, d43, d52):
    with criterion(7, "byte-identical JSON output for any worker count"):
        def blob_criterion_1(workers):
            G = make_rule("pareto", 4, 3)
            return json.dumps(
                [check_axiom(a, G, d43, workers=workers).to_json() for a in AXIOMS], indent=2)

        def blob_criterion_2(workers):
            rules = [make_rule(name, 3, 3) for name in CATALOG]
            return json.dumps(axiom_matrix(rules, AXIOMS, d33, workers=workers).to_json(),
                              indent=2)

        def blob_criterion_3(workers):
            return json.dumps(reproduce_example(10, workers=workers).to_json(), indent=2)

        def blob_criterion_4(workers):
            out = []
            for k, m in [(1, 2), (2, 3), (3, 4)]:
                d = DomainIndex(m, 2)
                out.append(verify_theorem(k, make_rule("tops", m, 2), d,
                                          workers=workers).to_json())
            return json.dumps(out, indent=2)

        def blob_criterion_5(_workers):
            devs = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
            return json.dumps([dev.to_json() for dev in devs], indent=2)

        for blob in (blob_criterion_1, blob_criterion_2, blob_criterion_3,
                     blob_criterion_4, blob_criterion_5):
            base = blob(1)
            for workers in (2, 3, 7):
                assert blob(workers) == base, blob.__name__
