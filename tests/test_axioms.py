import dataclasses
import itertools
import json

import numpy as np
import pytest

from paretocheck import (
    AXIOMS,
    DomainIndex,
    Witness,
    apply_alternative_permutation,
    check_axiom,
    check_axiom_reference,
    check_axioms,
    axiom_matrix,
    lower_one,
    make_rule,
    parse_profile,
    raise_one,
    replay_witness,
)
from paretocheck import core
from paretocheck import axioms
from paretocheck.axioms import _block_violations, _sites_transpositions
from paretocheck.edges import _EDGES, _moves_at, _transpositions, violation_mask
from paretocheck.core import Profile, enumerate_orderings, permute_mask
from paretocheck.rules import (
    RULE_CATALOG,
    Correspondence,
    borda_mask,
    copeland_mask,
    pareto_mask,
    plurality_mask,
    symmetry_orbit,
    tops_mask,
)

CATALOG_33 = ("pareto", "tops", "borda", "plurality", "copeland", "dictator:1", "all")


# -- headline verdicts -------------------------------------------------------


def test_pareto_rule_passes_everything(d33):
    G = make_rule("pareto", 3, 3)
    for rep in check_axioms(G, d33):
        assert rep.passed, rep.summary()
        assert rep.profiles_scanned == d33.total


def test_constant_rule_fails_only_pareto(d33):
    G = make_rule("all", 3, 3)
    verdicts = {rep.axiom: rep.passed for rep in check_axioms(G, d33)}
    assert verdicts == {a: a != "pareto" for a in AXIOMS}


def test_constant_rule_pareto_witness_is_first_profile(d33):
    rep = check_axiom("pareto", make_rule("all", 3, 3), d33)
    assert not rep.passed
    assert rep.witness.profiles == ("abc|abc|abc",)
    assert rep.witness.alternatives == ("a", "b")
    assert rep.profiles_scanned == 1


def test_example_11_pareto_witness_is_unanimous(d32):
    G = make_rule("example:11", 3, 2)
    rep = check_axiom("pareto", G, DomainIndex(3, 2, G.universe.labels))
    assert not rep.passed
    assert rep.witness.profiles == ("abc|abc",)
    assert rep.witness.alternatives == ("a", "b")


def test_tops_in_failures(d33):
    for name in ("borda", "plurality"):
        rep = check_axiom("tops-in", make_rule(name, 3, 3), d33)
        assert not rep.passed, name
    assert check_axiom("tops-in", make_rule("pareto", 3, 3), d33).passed
    assert check_axiom("tops-in", make_rule("tops", 3, 3), d33).passed


def test_example_4_tops_in_witness(d33xyz):
    G = make_rule("example:4")
    rep = check_axiom("tops-in", G, d33xyz)
    assert not rep.passed
    assert rep.witness.profiles == ("xyz|yzx|zxy",)
    assert rep.witness.individuals == (2,)
    assert rep.witness.alternatives == ("y",)


def test_balancedness_verdicts(d33):
    assert check_axiom("balancedness", make_rule("pareto", 3, 3), d33).passed
    assert check_axiom("balancedness", make_rule("borda", 3, 3), d33).passed
    assert check_axiom("balancedness", make_rule("copeland", 3, 3), d33).passed
    assert not check_axiom("balancedness", make_rule("tops", 3, 3), d33).passed
    assert not check_axiom("balancedness", make_rule("plurality", 3, 3), d33).passed


def test_example_10_balancedness_canonical_witness():
    G = make_rule("example:10")
    d = DomainIndex(3, 3, G.universe.labels)
    rep = check_axiom("balancedness", G, d)
    assert not rep.passed
    # the smallest-index end of the violating pair is the neighbour profile
    assert rep.witness.profiles == ("bca|acb|acb", "cba|acb|abc")
    assert rep.witness.individuals == (1, 3)
    assert rep.witness.observed == ("abc", "ac")
    assert rep.profiles_scanned == d.index(parse_profile("bca|acb|acb", d.universe)) + 1


def test_monotonicity_verdicts(d33):
    for name in ("pareto", "borda", "plurality", "tops"):
        assert check_axiom("monotonicity", make_rule(name, 3, 3), d33).passed, name


def test_example_5_monotonicity_fails(d43xyzw):
    G = make_rule("example:5")
    rep = check_axiom("monotonicity", G, d43xyzw)
    assert not rep.passed
    # the fixed profile is involved in the canonical violation
    u_star = "xyzw|ywxz|zwxy"
    assert u_star in (rep.witness.profiles[0], rep.witness.profiles[1])


def test_example_9_unrestricted_monotonicity_fails(d53paper):
    G = make_rule("example:9-unrestricted")
    rep = check_axiom("monotonicity", G, d53paper)
    assert not rep.passed
    # the documented violating move, checked directly
    u = parse_profile("xywzt|ztwxy|ztwxy", d53paper.universe)
    v = raise_one(u, 1, d53paper.universe.index("x"))
    assert G.choose(u) == "xz"
    assert G.choose(v) == "xzw"


def test_weak_monotonicity_is_implied_by_monotonicity(d33):
    for name in CATALOG_33:
        G = make_rule(name, 3, 3)
        if check_axiom("monotonicity", G, d33).passed:
            assert check_axiom("weak-monotonicity", G, d33).passed, name


def test_example_10_passes_weak_monotonicity():
    G = make_rule("example:10")
    d = DomainIndex(3, 3, G.universe.labels)
    assert check_axiom("weak-monotonicity", G, d).passed


def test_strong_stability_verdicts(d33, d43):
    assert check_axiom("strong-stability", make_rule("pareto", 4, 3), d43).passed
    for name in ("tops", "plurality", "borda", "copeland", "dictator:1"):
        assert not check_axiom("strong-stability", make_rule(name, 3, 3), d33).passed, name


def test_borda_strong_stability_documented_move():
    # two individuals rank x over y, one the reverse; lowering x below y for
    # the first individual drops x and gains y at once
    G = make_rule("borda", 3, 3)
    u = parse_profile("abc|abc|bac")
    v = lower_one(u, 0, 0)
    assert G.choose(u) == "a"
    assert G.choose(v) == "b"


def test_example_8_strong_stability_fails(d52paper):
    G = make_rule("example:8")
    rep = check_axiom("strong-stability", G, d52paper)
    assert not rep.passed
    u = parse_profile("xywzt|ztwxy", d52paper.universe)
    v = lower_one(u, 0, d52paper.universe.index("x"))
    assert G.choose(v) == "xyzw"


def test_anonymity_neutrality_verdicts(d33, d52paper):
    assert check_axiom("anonymity", make_rule("pareto", 3, 3), d33).passed
    assert check_axiom("neutrality", make_rule("pareto", 3, 3), d33).passed
    rep = check_axiom("anonymity", make_rule("dictator:1", 3, 3), d33)
    assert not rep.passed
    G8 = make_rule("example:8")
    assert check_axiom("anonymity", G8, d52paper).passed
    assert not check_axiom("neutrality", G8, d52paper).passed


def test_dictator_anonymity_witness(d33):
    rep = check_axiom("anonymity", make_rule("dictator:1", 3, 3), d33)
    assert rep.witness.profiles[0] == "abc|bac|abc"
    assert rep.witness.individuals == (1, 2)


# -- witnesses replay --------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_33)
def test_every_failing_witness_replays(name, d33):
    G = make_rule(name, 3, 3)
    for rep in check_axioms(G, d33):
        if not rep.passed:
            assert replay_witness(G, d33, rep), rep.summary()


def test_example_rule_witnesses_replay():
    for name in ["example:4", "example:5", "example:8", "example:10", "example:11"]:
        G = make_rule(name)
        d = DomainIndex(G.m, G.n, G.universe.labels)
        for rep in check_axioms(G, d):
            if not rep.passed:
                assert replay_witness(G, d, rep), (name, rep.summary())


def test_replay_of_a_passing_report(d33):
    # a pass replays only without a witness
    from dataclasses import replace

    G = make_rule("pareto", 3, 3)
    rep = check_axiom("pareto", G, d33)
    assert rep.passed and replay_witness(G, d33, rep)
    witness = check_axiom("tops-in", make_rule("borda", 3, 3), d33).witness
    assert not replay_witness(G, d33, replace(rep, witness=witness))


def test_replay_rejects_tampered_witness(d33):
    from dataclasses import replace

    rep = check_axiom("tops-in", make_rule("borda", 3, 3), d33)
    bad = replace(rep, witness=replace(rep.witness, observed=("abc", *rep.witness.observed[1:])))
    assert not replay_witness(make_rule("borda", 3, 3), d33, bad)


def test_replay_rejects_moves_that_do_not_exist(d33):
    # a tampered witness whose recorded move is impossible at its profile
    # does not replay, and replaying it raises nothing
    from dataclasses import replace

    def tampered(rule, axiom, **fields):
        G = make_rule(rule, 3, 3)
        rep = check_axiom(axiom, G, d33)
        assert replay_witness(G, d33, rep)
        return G, replace(rep, witness=replace(rep.witness, **fields))

    bal = check_axiom("balancedness", make_rule("tops", 3, 3), d33).witness
    ss = check_axiom("strong-stability", make_rule("tops", 3, 3), d33).witness
    assert bal.individuals == (1, 3) and ss.profiles[0] == "abc|abc|bca"
    assert ss.individuals == (3,)  # whose last-ranked alternative is a
    cases = [
        tampered("tops", "balancedness", alternatives=bal.alternatives[::-1]),
        tampered("tops", "balancedness", individuals=(1, 1)),
        tampered("tops", "strong-stability", alternatives=("a", ss.alternatives[1])),
        tampered("dictator:1", "tops-in", individuals=(4,)),
        tampered("dictator:1", "anonymity", individuals=(1, 1, 2)),
    ]
    G, anon = cases[-1]
    cases.append((G, replace(anon, axiom="neutrality", witness=replace(
        anon.witness, individuals=(), alternatives=("a", "a", "b")))))
    # fields of the wrong arity, or naming no alternative
    cases += [
        tampered("borda", "tops-in", individuals=()),
        tampered("borda", "tops-in", alternatives=()),
        tampered("all", "pareto", alternatives=("a", "b", "c")),
        tampered("all", "pareto", alternatives=("", "b")),
    ]
    for G, rep in cases:
        assert not replay_witness(G, d33, rep), rep.witness


def test_replay_rejects_profiles_outside_the_domain(d33):
    # a first profile that does not parse, has another number of individuals,
    # or is missing
    from dataclasses import replace

    G = make_rule("borda", 3, 3)
    rep = check_axiom("tops-in", G, d33)
    for profiles in (("abc|abd|abc",), ("abc|abc",), ()):
        bad = replace(rep, witness=replace(rep.witness, profiles=profiles))
        assert not replay_witness(G, d33, bad), profiles


def test_oracle_witnesses_are_pinned(d33, d32, d43xyzw, d52paper, random_table):
    # every field of each checker's witness, written out literally
    def w(profiles, individuals, alternatives, observed, expected):
        return Witness(profiles, individuals, alternatives, observed, expected)

    dictator, ex5, ex8 = (make_rule("dictator:1", 3, 3), make_rule("example:5"),
                          make_rule("example:8"))
    got = [
        check_axiom("pareto", make_rule("all", 3, 3), d33),
        check_axiom("tops-in", make_rule("borda", 3, 3), d33),
        check_axiom("balancedness", make_rule("tops", 3, 3), d33),
        check_axiom("strong-stability", make_rule("tops", 3, 3), d33),
        check_axiom("anonymity", dictator, d33),
        check_axiom_reference("anonymity", dictator, d33, wide=True),
        check_axiom("monotonicity", ex5, d43xyzw),
        check_axiom_reference("monotonicity", ex5, d43xyzw, wide=True),
        check_axiom("neutrality", ex8, d52paper),
        check_axiom_reference("neutrality", ex8, d52paper, wide=True),
        check_axiom("weak-monotonicity", random_table(d32, 0), d32),
    ]
    mono5 = w(("xyzw|yxwz|zwxy", "xyzw|ywxz|zwxy"), (2,), ("w",), ("xyzw", "xyz"),
              "a subset of xyzw containing w")
    want = [
        w(("abc|abc|abc",), (), ("a", "b"), ("abc",), "a choice set excluding b"),
        w(("abc|abc|bac",), (3,), ("b",), ("a",), "a choice set containing b"),
        w(("abc|abc|cba", "bac|abc|cab"), (1, 3), ("a", "b"), ("ac", "abc"),
          "the unchanged choice set ac"),
        w(("abc|abc|bca", "abc|abc|cba"), (3,), ("b", "c"), ("ab", "ac"), "one of: ab, a, abc"),
        w(("abc|bac|abc", "bac|abc|abc"), (1, 2), (), ("a", "b"), "the unchanged choice set a"),
        w(("abc|abc|bac", "bac|abc|abc"), (3, 1, 2), (), ("a", "b"), "the unchanged choice set a"),
        mono5,
        mono5,
        w(("xyzwt|wtzxy", "xywzt|ztwxy"), (), ("z", "w"), ("xzw", "xz"),
          "the relabeled choice set xzw"),
        w(("xyzwt|wtzxy", "xywzt|ztwxy"), (), ("x", "y", "w", "z", "t"), ("xzw", "xz"),
          "the relabeled choice set xzw"),
        w(("bca|bca", "bac|bca"), (1,), ("a",), ("abc", "b"), "a choice set containing a"),
    ]
    assert [rep.witness for rep in got] == want


# -- fast sweep versus reference loop ----------------------------------------


@pytest.mark.parametrize("name", CATALOG_33)
def test_fast_checkers_match_reference_at_3_2(name, d32):
    G = make_rule(name, 3, 2)
    for axiom in AXIOMS:
        fast = check_axiom(axiom, G, d32)
        slow = check_axiom_reference(axiom, G, d32)
        assert fast == slow, (name, axiom)


def test_fast_checkers_match_reference_on_table_rules(d33xyz):
    G = make_rule("example:4")
    for axiom in AXIOMS:
        assert check_axiom(axiom, G, d33xyz) == check_axiom_reference(axiom, G, d33xyz)


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("sizes", [(3, 2), (3, 3), (4, 2)])
def test_multi_chunk_waves_match_reference(sizes, chunk, monkeypatch, random_table):
    # small chunks put many chunks in one sweep, for one worker or several
    d = DomainIndex(*sizes)
    rules = [make_rule("pareto", *sizes)] + [random_table(d, seed) for seed in range(6)]
    want = {(G.name, a): check_axiom_reference(a, G, d) for G in rules for a in AXIOMS}
    monkeypatch.setattr(core, "_CHUNK", chunk)
    for workers in (1, 2, 3):
        for G in rules:
            for axiom in AXIOMS:
                got = check_axiom(axiom, G, d, workers=workers)
                assert got == want[G.name, axiom], (sizes, chunk, workers, G.name, axiom)


UNARY_AXIOMS = ("pareto", "tops-in")


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("sizes", [(3, 3), (4, 2)], ids=lambda s: "%dx%d" % s)
def test_dense_unary_sweeps_match_reference(sizes, chunk, monkeypatch, random_table):
    # defaults with no symmetry claim sweep pareto, tops-in and the comparison
    # with the undominated set densely, on each block's own values with the
    # overrides patched in; then again on the value table that check_axioms
    # builds for anonymity, with the same reports
    d = DomainIndex(*sizes)
    rules = [Correspondence(d.universe, d.n, default, random_table(d, seed).overrides,
                            name=f"{default}/{seed}")
             for default in ("dictator:1", "drop:a") for seed in range(4)]
    want = {}
    for G in rules:
        differ = (k for k in range(d.total)
                  if G.choose_mask(d.profile(k)) != pareto_mask(d.profile(k)))
        want[G.name] = [check_axiom_reference(a, G, d) for a in UNARY_AXIOMS], next(differ, -1)
    assert any(not r.passed for reports, _ in want.values() for r in reports)
    assert any(r.passed for reports, _ in want.values() for r in reports)
    monkeypatch.setattr(core, "_CHUNK", chunk)
    for built in (False, True):
        for G in rules:
            if built:
                check_axioms(G, d, ("anonymity",))
            reports, first = want[G.name]
            for workers in (1, 2, 3):
                assert [check_axiom(a, G, d, workers=workers) for a in UNARY_AXIOMS] == reports
                assert axioms._sweep("equals-pareto", G, d, workers) == ("dense", first)
            assert (G._table is not None) == built, G.name


@pytest.mark.parametrize("sizes", [(3, 3), (4, 2), (3, 4), (4, 3)], ids=lambda s: "%dx%d" % s)
def test_sparse_transpositions_match_oracle_sites(sizes):
    # rows index an arbitrary array of profile indices, as in the search
    d = DomainIndex(*sizes)
    ks = np.random.default_rng(0).permutation(d.total)[:1500]
    got = sorted((int(ks[r]), int(v), int(x), int(y))
                 for rows, vs, xs, ys in _moves_at(d, _transpositions(d), ks)
                 for r, v, x, y in zip(rows, vs, xs, ys))
    want = sorted((int(k), d.index(v), x, y) for k in ks
                  for v, _, (x, y), _ in _sites_transpositions(d, d.profile(int(k))))
    assert got == want


@pytest.mark.parametrize("sizes", [(3, 3), (4, 2), (3, 4), (4, 3), (5, 2)],
                         ids=lambda s: "%dx%d" % s)
def test_grid_and_sparse_evaluators_give_the_same_masks(sizes, monkeypatch, random_table):
    # the whole forward violation mask, block by block on the digit grid and
    # at every profile index through the sparse evaluator.  _CHUNK 7 puts a
    # run of one individual's orderings in a block behind one or two fixed
    # ones (at (3,4), a single ordering); at (4,3) and (5,2) that makes over
    # 2,000 blocks of a few profiles, so there only the first table (pareto
    # with 1% of profiles set to tops, violations spread over the domain)
    # runs at 7
    d = DomainIndex(*sizes)
    pareto, tops = d.pareto_table, d.tops_table
    mixed = pareto.copy()
    some = np.random.default_rng(1).choice(d.total, d.total // 100, replace=False)
    mixed[some] = tops[some]
    tables = [mixed, tops, tops | pareto] + [random_table(d, seed).value_table(d)
                                             for seed in range(4)]
    everything = np.arange(d.total)
    for axiom in AXIOMS[2:]:  # the move axioms
        moves = _EDGES[axiom][0](d)
        want = [violation_mask(d, axiom, everything, values, lambda rows, v: values[v])
                for values in tables]
        for chunk in (7, 64, core._CHUNK):
            monkeypatch.setattr(core, "_CHUNK", chunk)
            starts = [lo for lo, _ in d.blocks()]
            runs = 1 if chunk == 7 and d.total > 5000 else len(tables)
            for values, mask in zip(tables[:runs], want):
                grid = values.reshape((d.order_count,) * d.n)
                got = [_block_violations(d, axiom, moves, grid, index).ravel()
                       for _, index in d.blocks()]
                assert starts == np.cumsum([0] + [len(g) for g in got[:-1]]).tolist()
                assert np.array_equal(np.concatenate(got), mask), (sizes, chunk, axiom)
        assert any(mask.any() for mask in want) and not all(mask.all() for mask in want)


# -- quotient sweeps ----------------------------------------------------------

GP_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2))
SYMMETRIC = tuple(name for name, entry in RULE_CATALOG.items()
                  if {"anonymity", "neutrality"} <= entry.expected_axioms)
QUOTIENT_AXIOMS = AXIOMS[:6]  # all but anonymity and neutrality


def orbit_closed_table(d, seed):
    """A symmetric default with two whole S_m x S_n orbits overridden, each
    by an anonymous and neutral rule's value there."""
    rng = np.random.default_rng(seed)
    rules = (tops_mask, borda_mask, plurality_mask, copeland_mask,
             lambda u: u.universe.full_mask)
    overrides = {}
    for k in rng.choice(d.total, size=2, replace=False).tolist():
        f = rules[int(rng.integers(len(rules)))]
        for member in symmetry_orbit(d.universe, d.profile(k).orderings):
            overrides[member] = f(Profile(d.universe, member))
    return Correspondence(d.universe, d.n, ("pareto", "tops")[seed % 2], overrides,
                          name=f"orbit-closed:{seed}")


@pytest.mark.parametrize("sizes", [(3, 3), (4, 2), (2, 5), (3, 4), (4, 3)],
                         ids=lambda s: "%dx%d" % s)
def test_orbit_minimum_candidates_hold_every_orbit_minimum(sizes):
    d = DomainIndex(*sizes)
    ks = d.orbit_minima
    digits = np.stack([d.digit(i, ks) for i in range(d.n)])
    assert (digits[0] == 0).all() and (np.diff(digits[1:], axis=0) >= 0).all()
    # the first profile not yet seen is the smallest of its orbit
    seen, minima = set(), []
    for k in range(d.total):
        if k not in seen:
            minima.append(k)
            seen.update(d.index_orderings(o) for o in symmetry_orbit(d.universe, d.profile(k).orderings))
    assert ks.tolist() == minima


def expected_path(axiom, G, d):
    """The sweep check_axiom should take: the quotient for a rule in the
    catalog with claims of anonymity and neutrality, the split into default
    and overrides over such a default that passes, and otherwise dense."""
    entry = RULE_CATALOG.get(G.default)
    if axiom in ("anonymity", "neutrality") or entry is None \
            or not {"anonymity", "neutrality"} <= entry.expected_axioms:
        return "dense"
    if not G.overrides:
        return "quotient"
    D = Correspondence(G.universe, G.n, G.default)
    return "overrides" if check_axiom(axiom, D, d).passed else "dense"


def force_dense(monkeypatch):
    monkeypatch.setattr(axioms, "_symmetric_default", lambda G: None)


@pytest.mark.parametrize("sizes", GP_SIZES + ((3, 4), (4, 4)), ids=lambda s: "%dx%d" % s)
def test_quotient_and_full_sweeps_agree(sizes, monkeypatch):
    d = DomainIndex(*sizes)
    rules = [make_rule(name, *sizes) for name in SYMMETRIC]
    rules += [orbit_closed_table(d, seed) for seed in range(3)]
    for G in rules:
        for axiom in QUOTIENT_AXIOMS:
            assert axioms._sweep(axiom, G, d, 1)[0] == expected_path(axiom, G, d), (G.name, axiom)
    chunks = (7, core._CHUNK) if d.total <= 20_000 else (core._CHUNK,)
    # the smallest chunk also runs on 2 and 3 threads: its failing sweeps
    # span many chunks, and the hit must be the first chunk's
    runs = [(chunk, 1) for chunk in chunks] + [(chunks[0], 2), (chunks[0], 3)]
    got = {}
    for chunk, workers in runs:
        monkeypatch.setattr(core, "_CHUNK", chunk)
        for G in rules:
            for axiom in QUOTIENT_AXIOMS:
                rep = check_axiom(axiom, G, d, workers=workers)
                got[chunk, workers, G.name, axiom] = json.dumps(rep.to_json())
    monkeypatch.setattr(core, "_CHUNK", chunks[-1])
    force_dense(monkeypatch)
    for G in rules:
        for axiom in QUOTIENT_AXIOMS:
            assert axioms._sweep(axiom, G, d, 1)[0] == "dense"
            want = json.dumps(check_axiom(axiom, G, d).to_json())
            for chunk, workers in runs:
                assert got[chunk, workers, G.name, axiom] == want, (sizes, chunk, workers, G.name, axiom)
    assert any('"fail"' in blob for blob in got.values())


def test_quotient_and_full_sweeps_agree_on_symmetric_examples(monkeypatch):
    rules = [make_rule(name) for name in ("example:1", "example:3", "example:7", "example:11",
                                          "example:5-orbit", "example:8-neutral")]
    for G in rules:
        d = DomainIndex(G.m, G.n, G.universe.labels)
        # the overridden examples lie over the Pareto rule, which passes
        path = "overrides" if G.overrides else "quotient"
        assert [axioms._sweep(axiom, G, d, 1)[0] for axiom in QUOTIENT_AXIOMS] == [path] * 6
        got = [check_axiom(axiom, G, d).to_json() for axiom in QUOTIENT_AXIOMS]
        with monkeypatch.context() as full:
            force_dense(full)
            assert got == [check_axiom(axiom, G, d).to_json() for axiom in QUOTIENT_AXIOMS], G.name


def test_sweep_paths_of_asymmetric_rules(random_table):
    d = DomainIndex(3, 3)
    # relabellings of one profile, chosen as a whole: neutral, not anonymous
    u = d.parse("abc|bca|abc")
    neutral = Correspondence(d.universe, d.n, overrides={
        apply_alternative_permutation(u, theta).orderings: d.universe.full_mask
        for theta in enumerate_orderings(d.m)})
    assert check_axiom("neutrality", neutral, d).passed
    assert not check_axiom("anonymity", neutral, d).passed
    d53 = DomainIndex(5, 3, "xyzwt")
    # a default with no symmetry claim sweeps densely; overrides over the
    # Pareto rule, symmetric or not, are checked where they touch
    for G, dom, path in [(make_rule("dictator:1", 3, 3), d, "dense"), (neutral, d, "overrides"),
                         (make_rule("example:9"), d53, "overrides")]:
        assert axioms._sweep("balancedness", G, dom, 1)[0] == path, G.name
    tables = [random_table(d, seed) for seed in range(8)]
    assert sum(not (check_axiom("anonymity", G, d).passed
                    and check_axiom("neutrality", G, d).passed) for G in tables) >= 4
    for G in [make_rule("dictator:1", 3, 3), neutral] + tables:
        for axiom in AXIOMS:
            assert axioms._sweep(axiom, G, d, 1)[0] == expected_path(axiom, G, d), (G.name, axiom)
            assert check_axiom(axiom, G, d) == check_axiom_reference(axiom, G, d), (G.name, axiom)


@pytest.mark.parametrize("sizes", [(3, 3), (4, 2), (3, 4)], ids=lambda s: "%dx%d" % s)
def test_override_split_matches_dense_and_reference(sizes, monkeypatch):
    # random overrides over every symmetric default; the defaults that fail an
    # axiom take the dense sweep for it, the others the split
    d = DomainIndex(*sizes)
    rng = np.random.default_rng(sum(sizes))
    pareto, tops = d.pareto_table, d.tops_table
    tables = []
    for default in SYMMETRIC:
        for within in (False, True):
            overrides = {}
            for k in rng.choice(d.total, size=3, replace=False).tolist():
                mask = int(rng.integers(1, 1 << d.m))
                if within:  # between the tops and the undominated set
                    mask = int(tops[k]) | (mask & int(pareto[k]))
                overrides[d.profile(k).orderings] = mask
            tables.append(Correspondence(d.universe, d.n, default, overrides,
                                         name=f"{default}:{within}"))
    paths = set()
    for G in tables:
        for axiom in AXIOMS:
            path = axioms._sweep(axiom, G, d, 1)[0]
            assert path == expected_path(axiom, G, d), (G.name, axiom)
            paths.add(path)
    assert paths == {"overrides", "dense"}
    got = {}
    for chunk, workers in [(7, 1), (7, 2), (core._CHUNK, 1)]:
        monkeypatch.setattr(core, "_CHUNK", chunk)
        for G in tables:
            for axiom in AXIOMS:
                got[chunk, workers, G.name, axiom] = check_axiom(axiom, G, d, workers=workers)
    force_dense(monkeypatch)
    for G in tables:
        for axiom in AXIOMS:
            want = check_axiom(axiom, G, d)
            if d.total <= 600 and axiom in QUOTIENT_AXIOMS:
                assert want == check_axiom_reference(axiom, G, d), (G.name, axiom)
            for key in [(7, 1), (7, 2), (core._CHUNK, 1)]:
                assert got[key + (G.name, axiom)] == want, (key, G.name, axiom)


def test_tables_over_one_default_sweep_it_on_every_check(monkeypatch, random_table):
    # each check sweeps the symmetric default on the orbit minima itself, then
    # the overrides where it passes; the domain keeps no verdict, so a second
    # round of checks makes the same sweeps again
    d = DomainIndex(3, 3)
    over_pareto = [random_table(d, seed) for seed in (1, 3)]
    over_tops = [Correspondence(d.universe, d.n, "tops", G.overrides) for G in over_pareto]
    passes = {(default, a): check_axiom(a, make_rule(default, 3, 3), d).passed
              for default in ("pareto", "tops") for a in QUOTIENT_AXIOMS}
    assert not all(passes.values())
    calls = []
    sparse_hit = axioms._sparse_hit

    def counting(d, axiom, G, ks, workers):
        calls.append(("table" if G.overrides else G.default, axiom))
        return sparse_hit(d, axiom, G, ks, workers)
    monkeypatch.setattr(axioms, "_sparse_hit", counting)
    for _ in range(2):
        for G in over_pareto + over_tops:
            for axiom in QUOTIENT_AXIOMS:
                ok = passes[G.default, axiom]
                calls.clear()
                assert axioms._sweep(axiom, G, d, 1)[0] == ("overrides" if ok else "dense")
                assert calls == [(G.default, axiom)] + [("table", axiom)] * ok, (G.name, axiom)
    calls.clear()
    pareto = make_rule("pareto", 3, 3)
    for _ in range(2):
        assert axioms._sweep("balancedness", pareto, d, 1) == ("quotient", -1)
    assert calls == [("pareto", "balancedness")] * 2
    # the reports on a domain that has swept before are a fresh domain's
    for G in over_pareto + over_tops:
        for axiom in QUOTIENT_AXIOMS:
            assert check_axiom(axiom, G, d) == check_axiom(axiom, G, DomainIndex(3, 3))


@pytest.mark.parametrize("sizes", GP_SIZES + ((2, 5), (3, 4)), ids=lambda s: "%dx%d" % s)
def test_symmetric_catalog_claims_hold(sizes):
    # the quotient sweep rests on these claims, made at (3,3): every
    # anonymity and neutrality claim of the catalog holds at more sizes
    d = DomainIndex(*sizes)
    thetas = enumerate_orderings(d.m)
    on_orderings = np.array([[d.ordering_index(tuple(theta[a] for a in r)) for r in d.orderings]
                             for theta in thetas])
    on_masks = np.array([[permute_mask(s, theta) for s in range(1 << d.m)] for theta in thetas])
    digits = [d.digit(i, np.arange(d.total)) for i in range(d.n)]
    for name, entry in RULE_CATALOG.items():
        G = make_rule(name, *sizes)
        claimed = entry.expected_axioms | entry.expected_failures
        for axiom in {"anonymity", "neutrality"} & claimed:
            assert check_axiom(axiom, G, d).passed == (axiom in entry.expected_axioms), name
        if name not in SYMMETRIC:
            continue
        if d.total <= 1000:  # the object-level loop over the whole group
            assert check_axiom_reference("anonymity", G, d, wide=True).passed, name
            assert check_axiom_reference("neutrality", G, d, wide=True).passed, name
        # every element of S_m x S_n, as arrays: G(theta rho u) = theta G(u)
        values = G.value_table(d)
        for t in range(len(thetas)):
            for rho in itertools.permutations(range(d.n)):
                image = sum(on_orderings[t][digits[rho[i]]] * d.places[i] for i in range(d.n))
                assert np.array_equal(values[image], on_masks[t][values]), (name, thetas[t], rho)


# -- generator versus exhaustive permutation checks ---------------------------


@pytest.mark.parametrize("name", ("pareto", "tops", "dictator:1", "plurality"))
@pytest.mark.parametrize("sizes", [(3, 2), (3, 3)])
def test_generator_anonymity_agrees_with_bruteforce(name, sizes):
    d = DomainIndex(*sizes)
    G = make_rule(name, *sizes)
    fast = check_axiom("anonymity", G, d)
    full = check_axiom_reference("anonymity", G, d, wide=True)
    assert fast.passed == full.passed
    if not fast.passed:
        assert replay_witness(G, d, fast) and replay_witness(G, d, full)


@pytest.mark.parametrize("name", ("pareto", "tops", "borda", "all"))
@pytest.mark.parametrize("sizes", [(3, 2), (3, 3)])
def test_generator_neutrality_agrees_with_bruteforce(name, sizes):
    d = DomainIndex(*sizes)
    G = make_rule(name, *sizes)
    fast = check_axiom("neutrality", G, d)
    full = check_axiom_reference("neutrality", G, d, wide=True)
    assert fast.passed == full.passed
    if not fast.passed:
        assert replay_witness(G, d, fast) and replay_witness(G, d, full)


def test_generator_neutrality_agrees_on_example_8(d52paper):
    G = make_rule("example:8")
    assert (check_axiom("neutrality", G, d52paper).passed
            == check_axiom_reference("neutrality", G, d52paper, wide=True).passed is False)


# -- one-step versus multi-step monotonicity ----------------------------------


@pytest.mark.parametrize("name", CATALOG_33)
def test_single_step_monotonicity_agrees_with_multistep(name, d32):
    G = make_rule(name, 3, 2)
    one = check_axiom("monotonicity", G, d32)
    many = check_axiom_reference("monotonicity", G, d32, wide=True)
    assert one.passed == many.passed, name


def test_multistep_detects_example_5_failure(d43xyzw):
    G = make_rule("example:5")
    assert not check_axiom_reference("monotonicity", G, d43xyzw, wide=True).passed


def test_multistep_witnesses_replay(d32, random_table):
    # a multi-step witness may raise its alternative more than one rank
    # (e.g. abc|cab -> cab|cab raises c two ranks)
    failing = 0
    for seed in range(300):
        G = random_table(d32, seed)
        rep = check_axiom_reference("monotonicity", G, d32, wide=True)
        if not rep.passed:
            failing += 1
            assert replay_witness(G, d32, rep), (seed, rep.summary())
    assert failing


# -- locality of single-profile deviations ------------------------------------


def _one_move_neighbourhood_contains(witness_profiles, base_text):
    return base_text in witness_profiles


@pytest.mark.parametrize("sizes", [(3, 3), (4, 2)])
def test_single_deviation_witnesses_touch_the_deviation(sizes):
    # every axiom violation of a one-profile table rule involves that profile
    d = DomainIndex(*sizes)
    for k in range(d.total):
        u = d.profile(k)
        pv = int(d.pareto_table[k])
        if bin(pv).count("1") < 2:
            continue
        members = [x for x in range(d.m) if pv >> x & 1]
        mask = pv & ~(1 << members[-1])
        G = Correspondence(d.universe, d.n, overrides={u.orderings: mask},
                           name=f"dev@{k}")
        for axiom in AXIOMS:
            rep = check_axiom(axiom, G, d)
            if not rep.passed:
                assert _one_move_neighbourhood_contains(rep.witness.profiles, str(u)), \
                    (sizes, k, axiom, rep.witness.profiles)


# -- determinism -------------------------------------------------------------


def test_worker_counts_give_identical_reports(d33):
    for name in ("pareto", "tops", "dictator:1"):
        G = make_rule(name, 3, 3)
        for axiom in AXIOMS:
            base = check_axiom(axiom, G, d33, workers=1)
            for workers in (2, 3, 8):
                assert check_axiom(axiom, G, d33, workers=workers) == base


def test_worker_counts_give_identical_json_at_5_2(d52paper):
    G = make_rule("example:8")
    blobs = []
    for workers in (1, 2, 4):
        reports = [check_axiom(a, G, d52paper, workers=workers) for a in AXIOMS]
        blobs.append(json.dumps([r.to_json() for r in reports], indent=2))
    assert blobs[0] == blobs[1] == blobs[2]


# -- matrix ------------------------------------------------------------------


def test_axiom_matrix_shape_and_json(d33):
    rules = [make_rule(name, 3, 3) for name in ("pareto", "tops")]
    result = axiom_matrix(rules, AXIOMS, d33)
    assert result.rules == ("pareto", "tops")
    assert not result.all_pass
    data = result.to_json()
    assert set(data["cells"]) == {"pareto", "tops"}
    assert data["cells"]["tops"]["balancedness"]["verdict"] == "fail"


def test_unknown_axiom_rejected(d33):
    G = make_rule("borda", 3, 3)
    renamed = dataclasses.replace(check_axiom("tops-in", G, d33), axiom="sincerity")
    for call in (lambda: check_axiom("sincerity", G, d33),
                 lambda: check_axiom_reference("sincerity", G, d33),
                 lambda: replay_witness(G, d33, renamed)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"unknown axiom 'sincerity' (choose from {', '.join(AXIOMS)})"


def test_domain_mismatch_names_the_rule(d33):
    # the error names example 4, not the copy of its default 'pareto' over
    # 'xyz' that the override path checks first
    G = make_rule("example:4")
    for axiom in AXIOMS:
        with pytest.raises(ValueError, match="does not match rule 'example:4' over 'xyz'"):
            check_axiom(axiom, G, d33)
    # the matrix checks each rule on the domain of d33's sizes over its labels
    pareto, names = make_rule("pareto", 3, 3), ("pareto", "tops-in")
    result = axiom_matrix([pareto, G], names, d33)
    xyz = DomainIndex(3, 3, "xyz")
    assert [result.reports["example:4"][a] for a in names] == check_axioms(G, xyz, names)
    assert [result.reports["pareto"][a] for a in names] == check_axioms(pareto, d33, names)


@pytest.mark.parametrize("workers", [0, -2])
def test_worker_count_below_one_rejected(workers, d33):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        check_axiom("pareto", make_rule("pareto", 3, 3), d33, workers=workers)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("h", [0, 5, 40])
def test_pooled_driver_pulls_two_chunks_per_worker_past_the_hit(workers, h):
    # the driver keeps two chunks per worker in flight and never pulls the
    # rest, whether chunk h hits or raises; the raise reaches the caller
    pulled = 0

    def chunks():
        nonlocal pulled
        for c in range(1000):
            pulled += 1
            yield c

    def hit_at(c):
        return c if c == h else -1
    assert axioms._first_hit(chunks(), hit_at, workers) == h
    assert pulled <= h + 2 * workers

    def raise_at(c):
        if c == h:
            raise RuntimeError(f"chunk {c}")
        return -1
    pulled = 0
    with pytest.raises(RuntimeError, match=f"chunk {h}$"):
        axioms._first_hit(chunks(), raise_at, workers)
    assert pulled <= h + 2 * workers


def test_stability_outcomes_pairwise_distinct():
    # the three allowed responses to a lowering move never coincide, so the
    # exactly-one requirement reduces to set membership
    m = 5
    for gu in range(1, 1 << m):
        for x in range(m):
            if not gu >> x & 1:
                continue
            for y in range(m):
                if y == x or gu >> y & 1:
                    continue
                dropped = gu & ~(1 << x)
                gained = gu | (1 << y)
                assert gu != gained and gu != dropped and dropped != gained
