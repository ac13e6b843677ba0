import bisect
import itertools
import json

import numpy as np
import pytest

from paretocheck import (
    AXIOMS,
    DomainIndex,
    apply_alternative_permutation,
    apply_individual_permutation,
    THEOREM_AXIOMS,
    check_axiom,
    gap,
    height,
    make_rule,
    parse_profile,
    perturbation_search,
    reproduce_example,
    stability_descent_audit,
    verify_theorem,
)
from paretocheck import analysis, axioms, search
from paretocheck.analysis import _claim_checks
from paretocheck.search import Deviation
from paretocheck.axioms import (
    CONSISTENT_COUNTEREXAMPLE,
    CONSISTENT_EQUAL,
    THEOREM_CONTRADICTION,
)
from paretocheck.core import permute_mask
from paretocheck.rules import RULE_CATALOG, Correspondence, pareto_mask, tops_mask

CATALOG = ("pareto", "tops", "borda", "plurality", "copeland", "dictator:1", "all")


# -- height -------------------------------------------------------------------


def test_height_absent_for_pareto_rule(d33):
    result = height(make_rule("pareto", 3, 3), d33)
    assert result.height is None
    assert result.profiles_with_unchosen == 0
    assert result.witnesses == ()


def test_height_example_5(d43xyzw):
    result = height(make_rule("example:5"), d43xyzw)
    assert result.height == 2
    assert result.profiles_with_unchosen == 1
    (w,) = result.witnesses
    assert w.profile == "xyzw|ywxz|zwxy"
    assert w.rank == 2 and w.individual == 2 and w.alternative == "w"


def test_height_and_example_reports_serialise_their_fields_in_order(d43xyzw):
    # a record's JSON is its fields in declaration order, nested records as
    # objects and tuples as lists
    result = height(make_rule("example:5"), d43xyzw, witness_cap=2)
    assert json.dumps(result.to_json()) == (
        '{"height": 2, "profiles_with_unchosen": 1, "witnesses": [{"profile": '
        '"xyzw|ywxz|zwxy", "rank": 2, "individual": 2, "alternative": "w"}]}')
    checks = [("example:4 deviates from the undominated set exactly as declared",
               "1 profiles differ; 1 fixed"),
              ("example:4 at xyz|yzx|zxy chooses {x}", "observed {x}"),
              ("example:4 fails tops-in (witness replays)", "witness at xyz|yzx|zxy"),
              ("example:4 satisfies pareto", ""), ("example:4 satisfies balancedness", "")]
    assert json.dumps(reproduce_example(4).to_json()) == (
        '{"example": 4, "ok": true, "checks": ['
        + ", ".join(f'{{"name": "{name}", "passed": true, "detail": "{detail}"}}'
                    for name, detail in checks) + "]}")


@pytest.mark.parametrize("cap", [0, -3, 1])
def test_height_lists_no_more_witnesses_than_its_cap(cap, d52paper):
    result = height(make_rule("example:8"), d52paper, witness_cap=cap)
    assert result.height == 3 and len(result.witnesses) == max(cap, 0)


def test_height_example_8(d52paper):
    result = height(make_rule("example:8"), d52paper)
    assert result.height == 3
    assert result.profiles_with_unchosen == 2
    assert {w.profile for w in result.witnesses} == {"xywzt|ztwxy", "ztwxy|xywzt"}
    assert all(w.rank == 3 and w.alternative == "w" for w in result.witnesses)


def test_height_absent_plus_pareto_pass_means_equality(d33):
    # an unchosen undominated alternative never occurring, together with the
    # dominated-exclusion condition, pins the rule down pointwise
    import numpy as np

    for name in CATALOG:
        G = make_rule(name, 3, 3)
        if height(G, d33).height is None and check_axiom("pareto", G, d33).passed:
            assert np.array_equal(G.value_table(d33), d33.pareto_table), name


@pytest.mark.parametrize("chunk", [7, None])
def test_height_matches_an_object_level_loop(chunk, monkeypatch, d33, d42, random_table):
    # the rank reach folds over each block's axes; _CHUNK 7 gives blocks of
    # part of one individual's orderings behind fixed ones
    from paretocheck import core

    if chunk is not None:
        monkeypatch.setattr(core, "_CHUNK", chunk)
    for d in (d33, d42):
        rules = [make_rule(name, d.m, d.n) for name in ("tops", "borda", "plurality")]
        rules += [random_table(d, seed) for seed in range(4)]
        for G in rules:
            reach = {}
            for k in range(d.total):
                u = d.profile(k)
                bad = pareto_mask(u) & ~G.choose_mask(u)
                if bad:
                    reach[k] = min(r.index(x) + 1 for r in u.orderings for x in r if bad >> x & 1)
            got = height(G, d, witness_cap=5)
            assert got.profiles_with_unchosen == len(reach), G.name
            if not reach:
                assert got.height is None and got.witnesses == ()
                continue
            best = min(reach.values())
            ks = [k for k in sorted(reach) if reach[k] == best][:5]
            assert got.height == best, G.name
            assert [w.profile for w in got.witnesses] == [d.profile_text(k) for k in ks]
            for w in got.witnesses:
                u = parse_profile(w.profile, d.universe)
                bad = pareto_mask(u) & ~G.choose_mask(u)
                holders = [i for i in range(d.n) if bad >> u.orderings[i][best - 1] & 1]
                assert (w.rank, w.individual) == (best, holders[0] + 1)
                assert w.alternative == d.universe.label(u.orderings[holders[0]][best - 1])


# -- gap ----------------------------------------------------------------------


def test_gap_examples():
    ex5 = make_rule("example:5")
    u5 = parse_profile("xyzw|ywxz|zwxy", ex5.universe)
    assert gap(ex5, u5, 1, ex5.universe.index("w")) == 0
    ex8 = make_rule("example:8")
    u8 = parse_profile("xywzt|ztwxy", ex8.universe)
    assert gap(ex8, u8, 0, ex8.universe.index("w")) == 1
    assert gap(ex8, u8, 1, ex8.universe.index("w")) == 1


def test_gap_adjacent_chosen_is_zero(d33):
    G = make_rule("example:10")
    u = parse_profile("cba|acb|abc", G.universe)
    b = G.universe.index("b")
    assert gap(G, u, 0, b) == 0  # c is chosen and directly above b


def test_gap_diagnostic_errors():
    G = make_rule("example:5")
    u = parse_profile("xyzw|ywxz|zwxy", G.universe)
    uni = G.universe
    with pytest.raises(ValueError, match="chosen"):
        gap(G, u, 0, uni.index("x"))
    v = parse_profile("xyzw|xyzw|xyzw", uni)
    with pytest.raises(ValueError, match="dominated"):
        gap(G, v, 0, uni.index("w"))
    ex4 = make_rule("example:4")
    u4 = parse_profile("xyz|yzx|zxy", ex4.universe)
    with pytest.raises(ValueError, match="above"):
        gap(ex4, u4, 1, ex4.universe.index("y"))  # y tops #2, nothing above
    for w in (7, -1):
        with pytest.raises(ValueError, match=rf"^no alternative {w} in a universe of 4$"):
            gap(G, u, 0, w)


# -- theorem harness ----------------------------------------------------------


def test_theorem_pareto_consistent_equal():
    for k, m in [(1, 2), (2, 3), (3, 4), (4, 5)]:
        for n in (2, 3):
            d = DomainIndex(m, n)
            result = verify_theorem(k, make_rule("pareto", m, n), d)
            assert result.verdict == CONSISTENT_EQUAL, (k, n)


def test_theorem_4_pareto_at_7_2():
    # 25,401,600 profiles; the symmetric rule's sweeps visit 5,040 of them
    d = DomainIndex(7, 2)
    assert verify_theorem(4, make_rule("pareto", 7, 2), d).verdict == CONSISTENT_EQUAL


def test_theorem_example_counterexamples(d43xyzw, d53paper):
    r = verify_theorem(3, make_rule("example:5"), d43xyzw)
    assert r.verdict == CONSISTENT_COUNTEREXAMPLE and r.failing_axiom == "monotonicity"
    r = verify_theorem(4, make_rule("example:9"), d53paper)
    assert r.verdict == CONSISTENT_COUNTEREXAMPLE and r.failing_axiom == "strong-stability"
    d52 = DomainIndex(5, 2, "xyzwt")
    r = verify_theorem(4, make_rule("example:8"), d52)
    assert r.verdict == CONSISTENT_COUNTEREXAMPLE and r.failing_axiom == "strong-stability"


def test_theorem_builds_no_whole_domain_table(d43):
    # a symmetric default is checked and compared with the undominated set on
    # its orbit-minimum candidates, and its overrides where they touch; any
    # other rule's pareto and tops-in sweeps fold each block's values alone
    overrides = {d43.profile(k).orderings: int(d43.tops_table[k]) for k in (5, 700, 9000)}
    table = Correspondence(d43.universe, d43.n, overrides=overrides)
    over_dictator = Correspondence(d43.universe, d43.n, "dictator:1", overrides)
    for G in (make_rule("pareto", 4, 3), make_rule("borda", 4, 3), table,
              make_rule("dictator:1", 4, 3), over_dictator):
        d = DomainIndex(4, 3)
        result = verify_theorem(3, G, d)
        assert "pareto_table" not in vars(d) and "tops_table" not in vars(d), G.name
        assert G._table is None, G.name
        with pytest.MonkeyPatch.context() as dense:
            dense.setattr(axioms, "_symmetric_default", lambda G: None)
            assert verify_theorem(3, G, d) == result, G.name


def test_theorem_table_equal_to_pareto_over_another_default(d33):
    # tops overridden by the undominated set wherever the two differ is the
    # Pareto rule, though its default is not
    keys = np.flatnonzero(d33.tops_table != d33.pareto_table).tolist()
    G = Correspondence(d33.universe, d33.n, "tops",
                       {d33.profile(k).orderings: int(d33.pareto_table[k]) for k in keys})
    result = verify_theorem(2, G, DomainIndex(3, 3))
    assert result.verdict == CONSISTENT_EQUAL


def test_theorem_contradiction_on_every_sweep_path(d33, monkeypatch):
    # with pareto alone asked for, a rule that passes it yet chooses less
    # than the undominated set somewhere contradicts the theorem; the
    # comparison flags the first such profile on each of the sweep's paths
    from paretocheck import core

    monkeypatch.setattr(axioms, "THEOREM_AXIOMS", {2: ("pareto",)})
    monkeypatch.setattr(core, "_CHUNK", 7)
    narrow = np.flatnonzero(d33.tops_table != d33.pareto_table)
    k = int(narrow[len(narrow) // 2])
    inside = Correspondence(d33.universe, d33.n,
                            overrides={d33.profile(k).orderings: int(d33.tops_table[k])})
    restored = Correspondence(d33.universe, d33.n, "tops", {
        d33.profile(j).orderings: int(d33.pareto_table[j]) for j in narrow.tolist()})
    cases = [(make_rule("tops", 3, 3), "quotient", False), (inside, "overrides", False),
             (make_rule("dictator:1", 3, 3), "dense", False), (restored, "dense", True)]
    for G, path, equal in cases:
        differ = [j for j in range(d33.total)
                  if G.choose_mask(d33.profile(j)) != pareto_mask(d33.profile(j))]
        assert (not differ) == equal, G.name
        first = differ[0] if differ else -1
        for workers in (1, 2):
            result = verify_theorem(2, G, d33, workers=workers)
            assert result.verdict == (CONSISTENT_EQUAL if equal else THEOREM_CONTRADICTION)
            assert axioms._sweep("equals-pareto", G, d33, workers) == (path, first)
    assert axioms._sweep("equals-pareto", inside, d33, 1)[1] == k


def test_theorem_size_mismatch(d33):
    with pytest.raises(ValueError):
        verify_theorem(1, make_rule("pareto", 3, 3), d33)
    with pytest.raises(ValueError):
        verify_theorem(4, make_rule("pareto", 3, 3), d33)
    with pytest.raises(ValueError):
        verify_theorem(5, make_rule("pareto", 3, 3), d33)


def test_theorem_never_contradicted_small_sizes():
    for k, m in [(1, 2), (2, 3), (3, 4)]:
        for n in (2, 3):
            d = DomainIndex(m, n)
            for name in CATALOG:
                result = verify_theorem(k, make_rule(name, m, n), d)
                assert result.verdict != THEOREM_CONTRADICTION, (k, name, n)


# -- perturbation search -------------------------------------------------------


def test_search_empty_at_two_alternatives(d22, d23):
    assert perturbation_search(d22, ("pareto", "tops-in")) == []
    assert perturbation_search(d23, ("pareto", "tops-in")) == []


def test_search_empty_at_three_alternatives(d32, d33):
    axioms = ("pareto", "tops-in", "balancedness")
    assert perturbation_search(d32, axioms) == []
    assert perturbation_search(d33, axioms) == []


def test_search_finds_fixed_profile_deviation_at_4_3(d43):
    devs = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
    assert devs
    relabeled = ("abcd|bdac|cdab",)  # the fixed four-alternative profile in a..d
    hits = [dev for dev in devs if dev.profiles == relabeled]
    assert any(dev.choice_sets == (("a", "b", "c"),) for dev in hits)


def test_search_empty_with_monotonicity_at_m4(d42, d43):
    axioms = ("pareto", "tops-in", "balancedness", "monotonicity")
    assert perturbation_search(d42, axioms) == []
    assert perturbation_search(d43, axioms) == []


def test_search_orbit_finds_the_anchored_pair_at_5_2(d52):
    axioms = ("pareto", "tops-in", "balancedness", "weak-monotonicity")
    devs = perturbation_search(d52, axioms, mode="orbit")
    assert len(devs) == 1
    (dev,) = devs
    pair = dict(zip(dev.profiles, dev.choice_sets))
    assert pair["abdce|cedab"] == ("a", "c")
    assert pair["cedab|abdce"] == ("a", "c")
    assert len(dev.profiles) == 120
    # it is the 28th candidate: the budget also counts the two candidates
    # before it whose choice set is not well defined on their orbit
    assert perturbation_search(d52, axioms, mode="orbit", budget=28) == devs
    assert perturbation_search(d52, axioms, mode="orbit", budget=27) == []


def test_search_orbit_empty_with_strong_stability_at_5_2(d52):
    devs = perturbation_search(
        d52,
        ("pareto", "tops-in", "balancedness", "weak-monotonicity", "strong-stability"),
        mode="orbit")
    assert devs == []


def test_search_results_pass_full_domain_recheck(d43, d52):
    # locality-based acceptance is sound: re-verify with the full checkers
    devs = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
    for dev in devs[:5] + devs[-5:]:
        G = dev.to_correspondence(d43)
        for axiom in ("pareto", "tops-in", "balancedness"):
            assert check_axiom(axiom, G, d43).passed, (dev.profiles, axiom)
    orbit = perturbation_search(
        d52, ("pareto", "tops-in", "balancedness", "weak-monotonicity"), mode="orbit")
    G = orbit[0].to_correspondence(d52)
    for axiom in ("pareto", "tops-in", "balancedness", "weak-monotonicity"):
        assert check_axiom(axiom, G, d52).passed, axiom


def _search_candidates(d, mode):
    """Every override table the search considers, in its order, built from
    object-level moves: one profile (single) or a whole symmetry orbit
    (orbit) with its choice set relabeled, tops <= S < pareto at the base.
    A candidate whose choice set is not well defined on its orbit yields
    None: the search counts it toward the budget but never accepts it."""
    thetas = list(itertools.permutations(range(d.m)))
    rhos = list(itertools.permutations(range(d.n)))
    covered = set()
    for k in range(d.total):
        u = d.profile(k)
        if k in covered:
            continue
        if mode == "single":
            images = [(u, tuple(range(d.m)))]
        else:
            images = [(apply_individual_permutation(apply_alternative_permutation(u, theta), rho),
                       theta) for theta in thetas for rho in rhos]
            covered.update(d.index(v) for v, _ in images)
        pk, tk = pareto_mask(u), tops_mask(u)
        for s in range(1, pk):
            if s & ~pk or tk & ~s:
                continue
            table = {}
            if all(table.setdefault(v.orderings, permute_mask(s, theta)) == permute_mask(s, theta)
                   for v, theta in images):
                yield table
            else:
                yield None


@pytest.mark.parametrize("mode, sizes", [
    pytest.param("single", (4, 2), id="single"),
    pytest.param("orbit", (4, 2), id="orbit"),
    pytest.param("single", (3, 3), id="single-3x3"),
    pytest.param("orbit", (3, 3), id="orbit-3x3"),
    pytest.param("orbit", (5, 2), id="orbit-5x2"),
])
def test_search_is_exact_at_4_2(mode, sizes):
    # accepted deviations == every candidate that passes the full-domain
    # sweeps, and a budget b keeps exactly those among the first b candidates.
    # An orbit batch at (5,2) holds many candidates, and the transposition
    # neighbours of one candidate's profiles are overridden by others, so
    # each move out of a profile must be looked up under its own candidate
    d = DomainIndex(*sizes)
    moves = AXIOMS[2:]
    candidates = list(_search_candidates(d, mode))
    expected = {x: [] for x in moves}  # (candidate position, deviation)
    for pos, table in enumerate(candidates):
        if table is None:
            continue
        G = Correspondence(d.universe, d.n, overrides=table)
        if not all(check_axiom(a, G, d).passed for a in ("pareto", "tops-in")):
            continue
        items = sorted((d.index_orderings(key), mask) for key, mask in table.items())
        dev = Deviation(tuple(d.profile_text(k) for k, _ in items),
                        tuple(d.universe.mask_labels(mask) for _, mask in items))
        for x in moves:
            if check_axiom(x, G, d).passed:
                expected[x].append((pos, dev))
    for x in moves:
        for budget in (1, 3, max(1, len(candidates) // 2), 10**6):
            got = perturbation_search(d, ("pareto", "tops-in", x), mode=mode, budget=budget)
            assert got == [dev for pos, dev in expected[x] if pos < budget], (mode, x, budget)
    assert any(expected.values()) and not all(expected.values())


def test_search_at_eight_alternatives_builds_no_whole_domain_table():
    # the Pareto and tops sets are folded at the profiles the search reads,
    # so (8,2), whose whole-domain tables would take 1.6 GB each, is searched
    for mode in ("single", "orbit"):
        d = DomainIndex(8, 2)
        assert perturbation_search(d, THEOREM_AXIOMS[4], mode=mode, budget=2000) == [], mode
        assert not {"pareto_table", "tops_table"} & set(vars(d)), mode


def _single_candidates(d):
    """Single mode's candidates in its order, (profile index, mask), ranked
    by plain enumeration of the profiles and their choice sets."""
    for k in range(d.total):
        u = d.profile(k)
        pk, tk = pareto_mask(u), tops_mask(u)
        yield from ((k, s) for s in range(tk, pk) if not s & ~pk and not tk & ~s)


def _pairs(d, devs):
    """Each single-mode deviation as (profile index, mask)."""
    return [(d.index(d.parse(dev.profiles[0])),
             d.universe.mask_from_labels("".join(dev.choice_sets[0]))) for dev in devs]


@pytest.mark.parametrize("axioms", [
    pytest.param(("pareto", "tops-in"), id="every-candidate"),
    pytest.param(("pareto", "tops-in", "balancedness"), id="balancedness"),
])
def test_single_search_budget_cuts_inside_a_profile(d43, axioms):
    # a budget b cuts inside a profile's list of choice sets when candidates
    # b - 1 and b share the profile; it keeps exactly the accepted candidates
    # ranked before b.  With pareto and tops-in alone every one is accepted
    candidates = list(_single_candidates(d43))
    rank = {c: r for r, c in enumerate(candidates)}
    full = perturbation_search(d43, axioms)
    ranks = [rank[pair] for pair in _pairs(d43, full)]
    assert ranks == sorted(ranks)
    inside = [b for b in range(1, len(candidates)) if candidates[b - 1][0] == candidates[b][0]]
    budgets = set()
    for r in ranks[::max(1, len(ranks) // 8)] + ranks[-1:]:
        at = bisect.bisect_right(inside, r)  # the cuts just before and just after r
        budgets.update(inside[max(at - 1, 0):at + 1])
    assert len(budgets) >= 10
    for budget in sorted(budgets):
        got = perturbation_search(d43, axioms, budget=budget)
        assert got == [dev for dev, r in zip(full, ranks) if r < budget], budget


def test_single_search_lists_no_further_than_its_budget(monkeypatch):
    # every orbit minimum of (4,4) lies in its first 6,119 profiles, and this
    # budget covers their candidates, so every base is checked and accepted;
    # the listing must stop at the budget's last candidate rather than list
    # the whole orbits, about 185,000 profiles
    d = DomainIndex(4, 4)
    last = int(d.orbit_minima[-1])
    prefix = list(itertools.takewhile(lambda c: c[0] <= last, _single_candidates(d)))
    seen = []
    canonical = d.canonical

    def counting(ks):
        seen.append(len(ks))
        return canonical(ks)

    monkeypatch.setattr(d, "canonical", counting)
    devs = perturbation_search(d, ("pareto", "tops-in"), budget=len(prefix))
    assert _pairs(d, devs) == prefix
    # the listed members alone: each holds a candidate within budget
    assert sum(seen) <= len(prefix) + 2 ** d.m


@pytest.mark.parametrize("sizes, axioms, count", [
    pytest.param((4, 3), ("balancedness",), 360, id="4x3"),
    pytest.param((5, 2), ("balancedness", "weak-monotonicity"), 120, id="5x2"),
])
def test_single_search_is_closed_under_the_group(sizes, axioms, count):
    # relabelling the alternatives or reordering the individuals maps each
    # single-profile deviation to another one
    d = DomainIndex(*sizes)
    devs = perturbation_search(d, ("pareto", "tops-in", *axioms))
    assert len(devs) == count
    assert not {"pareto_table", "tops_table"} & set(vars(d))
    found = set(_pairs(d, devs))
    for theta in itertools.permutations(range(d.m)):
        for rho in itertools.permutations(range(d.n)):
            image = {(d.index(apply_individual_permutation(
                          apply_alternative_permutation(d.profile(k), theta), rho)),
                      permute_mask(s, theta)) for k, s in found}
            assert image == found, (theta, rho)


@pytest.mark.parametrize("sizes, axioms", [
    pytest.param((4, 3), ("pareto", "tops-in", "balancedness"), id="4x3"),
    pytest.param((5, 2), ("pareto", "tops-in", "balancedness", "weak-monotonicity"), id="5x2"),
])
def test_search_batches_leave_the_result_unchanged(sizes, axioms, monkeypatch):
    # a batch takes _SEARCH_CELLS >> m bases, so one base per batch, or
    # three, splits the search at many batch boundaries; orbit mode counts its
    # budget across them
    d = DomainIndex(*sizes)
    runs = [(mode, budget) for mode in ("single", "orbit") for budget in (7, 333, 10**6)]
    want = [perturbation_search(d, axioms, mode=mode, budget=budget) for mode, budget in runs]
    assert len(d.orbit_minima) <= search._SEARCH_CELLS >> d.m  # by default one batch
    for cells in (1, 3 << d.m):
        monkeypatch.setattr(search, "_SEARCH_CELLS", cells)
        got = [perturbation_search(d, axioms, mode=mode, budget=budget) for mode, budget in runs]
        assert got == want, cells
    assert want[2] and want[5]  # both modes find deviations within the full budget


def test_single_search_count_at_4_4():
    devs = perturbation_search(DomainIndex(4, 4), ("pareto", "tops-in", "balancedness"))
    assert len(devs) == 2472
    assert all(len(dev.profiles) == 1 for dev in devs)


def test_search_deviations_never_contradict_theorems(d43):
    devs = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
    for dev in devs[:8]:
        result = verify_theorem(3, dev.to_correspondence(d43), d43)
        assert result.verdict == CONSISTENT_COUNTEREXAMPLE
        assert result.failing_axiom == "monotonicity"


def test_search_budget_and_validation(d43):
    few = perturbation_search(d43, ("pareto", "tops-in", "balancedness"), budget=100)
    assert few  # deviations exist within the first hundred candidates
    all_of_them = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
    assert len(few) <= len(all_of_them)
    with pytest.raises(ValueError):
        perturbation_search(d43, ("pareto",), budget=0)
    with pytest.raises(ValueError):
        perturbation_search(d43, ("pareto", "nosuch"))
    with pytest.raises(ValueError):
        perturbation_search(d43, ("pareto",), mode="orbital")


def test_search_is_deterministic(d43):
    a = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
    b = perturbation_search(d43, ("pareto", "tops-in", "balancedness"))
    assert a == b
    assert [dev.profiles for dev in a] == sorted([dev.profiles for dev in a])


# -- proof-step replays --------------------------------------------------------


@pytest.mark.parametrize("sizes", [(3, 2), (3, 3)])
def test_second_rank_escape_always_exists(sizes):
    # whenever an undominated alternative sits at rank 2, someone ranks it
    # above that individual's top
    d, pareto = DomainIndex(*sizes), make_rule("pareto", *sizes)
    for k in range(d.total):
        u = d.profile(k)
        undominated = pareto.choose_mask(u)
        for i in range(u.n):
            w = u.orderings[i][1]
            if not undominated >> w & 1:
                continue
            top = u.orderings[i][0]
            assert any(u.orderings[j].index(w) < u.orderings[j].index(top)
                       for j in range(u.n))


def test_descent_audit_flags_example_8(d52paper):
    steps = stability_descent_audit(make_rule("example:8"), d52paper)
    assert len(steps) == 4
    assert {s.outcome for s in steps} == {"stability-violation"}
    assert {s.gap_before for s in steps} == {1}
    assert {s.unchosen for s in steps} == {"w"}


def test_descent_audit_empty_when_nothing_unchosen(d33):
    assert stability_descent_audit(make_rule("pareto", 3, 3), d33) == ()
    G10 = make_rule("example:10")
    d10 = DomainIndex(3, 3, G10.universe.labels)
    assert stability_descent_audit(G10, d10) == ()  # gaps are all zero there


def test_descent_audit_gap_reduction_over_candidates(d52):
    # every lowering move that keeps the moved alternative must shrink the
    # gap by one; dropped outcomes carry the two side-condition flags
    outcomes = {"unchanged", "gained", "dropped", "stability-violation"}
    seen = set()
    for k in range(0, d52.total, 13):
        pv = int(d52.pareto_table[k])
        tv = int(d52.tops_table[k])
        if pv & ~tv == 0:
            continue
        u = d52.profile(k)
        G = Correspondence(d52.universe, 2, overrides={u.orderings: tv}, name=f"dev@{k}")
        for step in stability_descent_audit(G, d52):
            seen.add(step.outcome)
            assert step.outcome in outcomes
            if step.outcome in ("unchanged", "gained"):
                assert step.gap_after == step.gap_before - 1, step
            if step.outcome == "dropped":
                assert step.blocker_dominated_at_base is not None
                assert step.moved_loses_optimality is not None
    assert "stability-violation" in seen  # positive-gap moves occurred


def test_descent_audit_measures_gained_outcome(d52):
    # coordinated pair: at u the tops {a, c} are chosen and b sits unchosen
    # at rank 3 behind the dominated blocker d; lowering a below d lands on
    # the second fixed profile, where d joins the choice set.  The gap for b
    # must shrink from 1 to 0.
    from paretocheck import lower_one, parse_profile

    uni = d52.universe
    u = parse_profile("adbce|cebad", uni)
    v = lower_one(u, 0, uni.index("a"))
    assert str(v) == "dabce|cebad"
    G = Correspondence(uni, 2, overrides={
        u.orderings: uni.mask_from_labels("ac"),
        v.orderings: uni.mask_from_labels("acd"),
    }, name="coordinated-pair")
    steps = stability_descent_audit(G, d52)
    gained = [s for s in steps if s.outcome == "gained"]
    assert len(gained) == 1
    (step,) = gained
    assert step.profile == "adbce|cebad"
    assert (step.unchosen, step.chosen_above, step.blocker) == ("b", "a", "d")
    assert step.gap_before == 1 and step.gap_after == 0


# -- example reproduction -------------------------------------------------------


def test_height_examples_and_dense_sweeps_build_no_domain_table(monkeypatch):
    # the Pareto and tops sets come from the rules' folds: height folds the
    # undominated set block by block, an example's deviation is read off the
    # pareto rule's value table, and a table over tops tabulates the tops fold
    tables = {"pareto_table", "tops_table"}
    d = DomainIndex(4, 3)
    assert height(make_rule("tops", 4, 3), d).height == 2
    assert not tables & set(vars(d))
    made = []
    monkeypatch.setattr(analysis, "DomainIndex", lambda *args: made.append(DomainIndex(*args))
                        or made[-1])
    assert reproduce_example(5).ok and made
    assert not any(tables & set(vars(d)) for d in made)
    d = DomainIndex(3, 3)
    G = Correspondence(d.universe, 3, "tops", {d.profile(5).orderings: d.universe.full_mask})
    assert not check_axiom("balancedness", G, d).passed
    assert G._table is not None and not tables & set(vars(d))


@pytest.mark.parametrize("k", list(range(1, 9)) + [10, 11])
def test_reproduce_examples_fast(k):
    report = reproduce_example(k)
    assert report.ok, [c.name for c in report.checks if not c.passed]


def test_reproduce_example_rejects_unknown():
    with pytest.raises(ValueError):
        reproduce_example(12)


@pytest.mark.parametrize("name", sorted(RULE_CATALOG))
def test_named_rule_claims_hold(name):
    # the claims check of reproduce_example: claimed passes pass, claimed
    # failures fail with a witness that replays
    entry = RULE_CATALOG[name]
    d = DomainIndex(*entry.claim_size)
    checks = _claim_checks(make_rule(name, d.m, d.n), d, entry)
    assert len(checks) == len(entry.expected_axioms | entry.expected_failures)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_theorem_axiom_lists_are_nested():
    assert set(THEOREM_AXIOMS[1]) < set(THEOREM_AXIOMS[2]) < set(THEOREM_AXIOMS[3])
    assert "strong-stability" in THEOREM_AXIOMS[4]
    assert "weak-monotonicity" in THEOREM_AXIOMS[4]
    assert "monotonicity" not in THEOREM_AXIOMS[4]
