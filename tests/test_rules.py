import json

import numpy as np
import pytest

from paretocheck import (
    DomainIndex,
    example_rule,
    load_table,
    make_rule,
    pareto_set_by_elimination,
    parse_profile,
)
from paretocheck import core
from paretocheck.axioms import _orbit_minimum_candidates
from paretocheck.rules import (
    EXAMPLES,
    RULE_CATALOG,
    Correspondence,
    pareto_mask,
    restricted_pair_profiles,
    tail_orderings_for_anchored_pair,
    tops_mask,
)


# -- single-profile rule values ----------------------------------------------


def _choose(name, text):
    """Rule ``name``'s choice set at the profile ``text``, over its labels."""
    u = parse_profile(text)
    return make_rule(name, u.m, u.n, u.universe.labels).choose(u)


def test_pareto_set_fixed_four_alternative_profile():
    assert _choose("pareto", "xyzw|ywxz|zwxy").text() == "xyzw"


def test_pareto_set_unanimous():
    assert _choose("pareto", "xyz|xyz|xyz").text() == "x"


def test_pareto_set_cyclic():
    # oracle: exhaustive pairwise dominance scan shows no domination
    u = parse_profile("xyz|yzx|zxy")
    for x in range(3):
        for y in range(3):
            if x != y:
                assert not all(r.index(x) < r.index(y) for r in u.orderings)
    assert _choose("pareto", "xyz|yzx|zxy").text() == "xyz"


def test_tops_union_values():
    assert _choose("tops", "xyzw|ywxz|zwxy").text() == "xyz"
    assert _choose("tops", "xywzt|ztwxy").text() == "xz"
    assert _choose("tops", "abc|abc").text() == "a"


def test_plurality_majority_of_tops():
    assert _choose("plurality", "xy|xy|yx").text() == "x"


def test_borda_unanimous_strict_maximum():
    assert _choose("borda", "abc|abc").text() == "a"


def test_copeland_cyclic_all_tied():
    # each alternative wins one pairwise majority and loses one
    assert _choose("copeland", "xyz|yzx|zxy").text() == "xyz"


def test_dictatorship_and_constant():
    assert _choose("dictator:1", "abc|cab").text() == "a"
    assert _choose("dictator:2", "abc|cab").text() == "c"
    with pytest.raises(ValueError):
        make_rule("dictator:3", 3, 2)
    assert _choose("all", "abc|cab").text() == "abc"


def test_borda_scores_example():
    # hand-computed: a: 2+2+1, b: 1+1+2, c: 0+0+0
    assert _choose("borda", "abc|abc|bac").text() == "a"


# -- the elimination oracle --------------------------------------------------


def test_elimination_route_agrees_on_small_domains(d33, d42):
    for d in (d33, d42):
        for k in range(d.total):
            u = d.profile(k)
            assert pareto_mask(u) == pareto_set_by_elimination(u).mask


# -- invariants --------------------------------------------------------------


@pytest.mark.parametrize("sizes", [(2, 2), (3, 3), (4, 3), (5, 2)])
def test_tops_subset_of_pareto_and_nonempty(sizes):
    d = DomainIndex(*sizes)
    pv, tv = d.pareto_table, d.tops_table
    assert (pv != 0).all()
    assert ((pv & tv) == tv).all()


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3)])
def test_two_alternative_collapse(sizes):
    # with both alternatives topped the two rules coincide; otherwise the
    # undominated set is the singleton top
    d, tops, pareto = DomainIndex(*sizes), make_rule("tops", *sizes), make_rule("pareto", *sizes)
    for k in range(d.total):
        u = d.profile(k)
        t, p = tops.choose(u), pareto.choose(u)
        if len(t) == 2:
            assert t.mask == p.mask
        else:
            assert p.mask == t.mask and len(p) == 1


def test_value_tables_match_single_profile_evaluation(d33):
    for name in ("pareto", "tops", "borda", "plurality", "copeland", "dictator:2", "all"):
        G = make_rule(name, 3, 3)
        table = G.value_table(d33)
        for k in range(0, d33.total, 5):
            assert int(table[k]) == G.choose_mask(d33.profile(k)), name


@pytest.mark.parametrize("sizes", [(2, 2), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)],
                         ids=lambda sizes: "%dx%d" % sizes)
def test_value_tables_match_choose_mask_everywhere(sizes, monkeypatch):
    # _CHUNK 7 makes blocks of one leading value, 64 several blocks per table
    m, n = sizes
    names = ("pareto", "tops", "all", "dictator:1", f"dictator:{n}", "borda", "plurality",
             "copeland", "drop:a")
    reference = DomainIndex(m, n)
    profiles = [reference.profile(k) for k in range(reference.total)]
    want = {name: [make_rule(name, m, n).choose_mask(u) for u in profiles] for name in names}
    for chunk in (7, 64, core._CHUNK):
        monkeypatch.setattr(core, "_CHUNK", chunk)
        d = DomainIndex(m, n)
        for name in names:
            assert make_rule(name, m, n).value_table(d).tolist() == want[name], (sizes, chunk, name)


def test_values_at_equals_the_value_table(random_table):
    # values_at folds the default rule at the given profiles alone, until the
    # value table is built, and reads the table after
    cases = [(make_rule(name, m, n), DomainIndex(m, n)) for name in RULE_CATALOG
             for m, n in [(3, 3), (4, 3)]]
    for name, entry in EXAMPLES.items():
        G = make_rule(name, *entry.claim_size)
        cases.append((G, DomainIndex(G.m, G.n, G.universe.labels)))
    d33 = DomainIndex(3, 3)
    cases += [(random_table(d33, seed), d33) for seed in range(6)]
    xyz = DomainIndex(3, 3, "xyz")
    cases.append((load_table({"m": 3, "n": 3, "labels": "xyz", "default": "example:4",
                              "overrides": {"xyz|xyz|zyx": ["z"]}}), xyz))
    rng = np.random.default_rng(0)
    for G, d in cases:
        fresh = Correspondence(G.universe, G.n, G.default, G.overrides, G.name)
        keys = fresh.override_index(d)[0]
        ks = np.concatenate([rng.integers(0, d.total, 500), _orbit_minimum_candidates(d), keys])
        got = fresh.values_at(d, ks)
        assert fresh._table is None, G.name
        assert np.array_equal(got, fresh.value_table(d)[ks]), G.name
        assert np.array_equal(fresh.values_at(d, ks), got), G.name


@pytest.mark.parametrize("chunk", [7, None])
def test_block_values_equal_the_value_table(chunk, monkeypatch, random_table):
    # block_values folds the default rule over one block and patches in the
    # overrides in the block's run of indices, until the value table is built,
    # and reads its slice after; a table over an example patches the
    # example's overrides and its own, one of them at an example's override
    if chunk is not None:
        monkeypatch.setattr(core, "_CHUNK", chunk)
    cases = [(make_rule(name, m, n), DomainIndex(m, n)) for name in RULE_CATALOG
             for m, n in [(3, 3), (4, 3)]]
    for name, entry in EXAMPLES.items():
        G = make_rule(name, *entry.claim_size)
        cases.append((G, DomainIndex(G.m, G.n, G.universe.labels)))
    d33 = DomainIndex(3, 3)
    cases += [(random_table(d33, seed), d33) for seed in range(4)]
    cases += [(Correspondence(d33.universe, 3, "dictator:2", random_table(d33, seed).overrides),
               d33) for seed in range(4)]
    xyz = DomainIndex(3, 3, "xyz")
    over_example = {"m": 3, "n": 3, "labels": "xyz", "default": "example:4",
                    "overrides": {"xyz|xyz|zyx": ["z"], "xyz|yzx|zxy": ["y"],
                                  "zxy|yzx|xyz": ["y"]}}
    cases.append((load_table(over_example), xyz))
    for G, d in cases:
        if chunk is not None and d.total > 5_000:  # thousands of blocks of a few profiles
            continue
        blocks = list(d.blocks())
        got = [G.block_values(d, lo, index) for lo, index in blocks]
        assert G._table is None, G.name
        grid = G.value_table(d).reshape((d.order_count,) * d.n)
        for (lo, index), values in zip(blocks, got):
            assert values.dtype == np.uint8 and np.array_equal(values, grid[index]), (G.name, lo)
            assert np.shares_memory(G.block_values(d, lo, index), grid)


def test_evaluate_dispatch(d32):
    G = make_rule("pareto", 3, 2)
    for k in range(d32.total):
        u = d32.profile(k)
        assert G.choose(u).mask == pareto_mask(u)


def test_evaluate_rejects_mismatched_profile():
    G = make_rule("pareto", 3, 2)
    with pytest.raises(ValueError):
        G.choose(parse_profile("abc|abc|abc"))
    with pytest.raises(ValueError):
        G.choose(parse_profile("xyz|xyz"))


# -- example rules -----------------------------------------------------------


def test_example_rules_deviate_exactly_as_declared():
    for k, variant in [(4, None), (5, None), (5, "orbit"), (8, None), (8, "neutral"),
                       (9, None), (10, None), (11, None)]:
        G = example_rule(k, variant)
        d = DomainIndex(G.m, G.n, G.universe.labels)
        diff = G.deviation_indices(d)
        declared = sorted(d.index_orderings(key) for key in G.overrides)
        assert list(diff) == declared, (k, variant)


def test_example_9_unrestricted_deviates_only_inside_subdomain(d53paper):
    G = example_rule(9, "unrestricted")
    diff = set(G.deviation_indices(d53paper).tolist())
    keys = {d53paper.index_orderings(key) for key in G.overrides}
    assert diff <= keys
    expected = {k for k in keys
                if int(d53paper.tops_table[k]) != int(d53paper.pareto_table[k])}
    assert diff == expected


def test_example_4_override_value():
    G = example_rule(4)
    u = parse_profile("xyz|yzx|zxy", G.universe)
    assert G.choose(u).text() == "x"
    v = parse_profile("xyz|yzx|zyx", G.universe)
    assert G.choose(v).mask == pareto_mask(v)


def test_example_5_values_and_orbit():
    G = example_rule(5)
    u = parse_profile("xyzw|ywxz|zwxy", G.universe)
    assert G.choose(u).text() == "xyz"
    assert pareto_mask(u) == G.universe.mask_from_labels("xyzw")
    orbit = example_rule(5, "orbit")
    assert u.orderings in orbit.overrides
    assert len(orbit.overrides) > 1
    for key, mask in orbit.overrides.items():
        member = parse_profile("|".join("".join(orbit.universe.labels[a] for a in r) for r in key),
                               orbit.universe)
        assert mask == tops_mask(member)


def test_example_6_drops_fixed_alternative():
    G = example_rule(6)
    u = parse_profile("xyzw|ywxz|zwxy", G.universe)  # w undominated here
    assert G.choose(u).text() == "xyz"
    unanimous_w = parse_profile("wxyz|wxyz|wxyz", G.universe)
    assert G.choose(unanimous_w).text() == "w"
    other = example_rule(6, drop="x")
    assert other.choose(u).text() == "yzw"


def test_example_8_fixed_pair():
    G = example_rule(8)
    assert G.choose(parse_profile("xywzt|ztwxy", G.universe)).text() == "xz"
    assert G.choose(parse_profile("ztwxy|xywzt", G.universe)).text() == "xz"
    assert len(G.overrides) == 2


def test_example_9_subdomain_structure():
    tails = tail_orderings_for_anchored_pair(example_rule(9).universe)
    assert len(tails) == 6
    profiles = restricted_pair_profiles(example_rule(9).universe, 3)
    assert len(profiles) == 3 * 2 * 6
    G = example_rule(9)
    assert len(G.overrides) == 36
    u = parse_profile("xywzt|ztwxy|xyztw", G.universe)
    assert G.choose(u).text() == "xz"
    # two anchor copies are outside the subdomain
    v = parse_profile("xywzt|xywzt|ztwxy", G.universe)
    assert v.orderings not in G.overrides


def test_example_11_agreement_profiles():
    G = example_rule(11, m=3, n=2)
    assert G.choose(parse_profile("abc|abc", G.universe)).text() == "ab"
    assert G.choose(parse_profile("cba|cba", G.universe)).text() == "bc"
    assert len(G.overrides) == 6


def test_example_size_validation():
    with pytest.raises(ValueError):
        example_rule(8, n=3)
    with pytest.raises(ValueError):
        example_rule(9, n=2)
    with pytest.raises(ValueError):
        example_rule(4, m=4)
    with pytest.raises(ValueError):
        example_rule(12)
    with pytest.raises(ValueError):
        example_rule(4, "orbit")


def test_example_labels_must_match_size():
    with pytest.raises(ValueError, match="do not match m=2"):
        example_rule(2, labels="abc")
    with pytest.raises(ValueError, match="do not match m=3"):
        example_rule(1, labels="abcd")
    assert example_rule(1, m=4, labels="abcd").universe.labels == "abcd"


def test_example_overrides_keep_their_own_labels():
    # overrides written as profile text are stated over the entry's labels
    for k, labels, stated in [(4, "abc", "xyz"), (5, "abcd", "xyzw"), (10, "xyz", "abc")]:
        with pytest.raises(ValueError) as info:
            example_rule(k, labels=labels)
        assert str(info.value) == (f"example {k} is stated over the labels {stated!r}, "
                                   f"got {labels!r}")
    # examples without overrides take any labels
    assert example_rule(2, labels="ab").universe.labels == "ab"
    assert example_rule(6, n=2, labels="abcd").default == "drop:d"
    assert example_rule(7, n=4, labels="abcd").universe.labels == "abcd"


@pytest.mark.parametrize("name, error", [
    ("example:12", "unknown example 12 (supported: 1..11)"),
    ("example:4-orbit", "example 4 has no 'orbit' variant"),
    ("example:5-foo", "example 5 has no 'foo' variant"),
    ("example:x", "unknown rule 'example:x'"),
])
@pytest.mark.parametrize("sizes", [(), (3, 3)], ids=("no-sizes", "3x3"))
def test_unknown_example_names(name, error, sizes):
    # example names are looked up in EXAMPLES, so the error does not depend
    # on whether sizes are given
    with pytest.raises(ValueError) as info:
        make_rule(name, *sizes)
    assert str(info.value) == error


def test_shared_tables_stay_intact():
    # tops and pareto value tables are the domain's own tables; a table rule
    # over them writes its overrides into a copy
    d, fresh = DomainIndex(3, 3), DomainIndex(3, 3)
    for default in ("pareto", "tops"):
        overrides = {d.profile(k).orderings: d.universe.full_mask for k in range(0, d.total, 7)}
        table = Correspondence(d.universe, 3, default=default, overrides=overrides)
        assert (table.value_table(d) != getattr(d, f"{default}_table")).any()
        assert make_rule(default, 3, 3).value_table(d) is getattr(d, f"{default}_table")
    for name in ("pareto_table", "tops_table"):
        shared = getattr(d, name)
        assert shared.tobytes() == getattr(fresh, name).tobytes()
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0


def test_table_over_an_example_default(d33xyz):
    # the table's own overrides apply over the example's
    G = load_table({"m": 3, "n": 3, "labels": "xyz", "default": "example:4",
                    "overrides": {"xyz|xyz|zyx": ["z"]}})
    values = G.value_table(d33xyz)
    assert values[d33xyz.index(parse_profile("xyz|yzx|zxy", G.universe))] == 1  # {x}
    assert values[d33xyz.index(parse_profile("xyz|xyz|zyx", G.universe))] == 4  # {z}
    assert (values != d33xyz.pareto_table).sum() == 2


_OVER_EXAMPLES = {
    # xyz|yzx|zxy is example 4's own override, where it chooses x
    "example-4": {"m": 3, "n": 3, "labels": "xyz", "default": "example:4",
                  "overrides": {"xyz|yzx|zxy": ["y"], "xyz|xyz|zyx": ["z"]}},
    # example 6 drops w from the undominated set, which is xy at xyzw|ywxz
    "example-6": {"m": 4, "n": 2, "labels": "xyzw", "default": "example:6",
                  "overrides": {"xyzw|ywxz": ["w"], "wxyz|wzyx": ["x", "w"]}},
}


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("case", sorted(_OVER_EXAMPLES))
def test_table_over_an_example_is_one_rule(case, chunk, monkeypatch):
    # choose_mask, values_at, block_values and value_table agree at every
    # profile: the example's value, except at the table's own overrides
    if chunk is not None:
        monkeypatch.setattr(core, "_CHUNK", chunk)
    data = _OVER_EXAMPLES[case]
    G, example = load_table(data), make_rule(data["default"], data["m"], data["n"])
    d = DomainIndex(G.m, G.n, G.universe.labels)
    own = {d.index(d.parse(text)): G.universe.mask_from_labels("".join(chosen))
           for text, chosen in data["overrides"].items()}
    want = [own.get(k, example.choose_mask(d.profile(k))) for k in range(d.total)]
    assert [G.choose_mask(d.profile(k)) for k in range(d.total)] == want
    assert G.values_at(d, np.arange(d.total)).tolist() == want
    blocks = np.empty(d.total, dtype=np.uint8)
    for lo, index in d.blocks():
        values = G.block_values(d, lo, index).reshape(-1)
        blocks[lo:lo + values.size] = values
    assert blocks.tolist() == want
    assert G._table is None
    assert G.value_table(d).tolist() == want
    assert all(example.choose_mask(d.profile(k)) != mask for k, mask in own.items())


def test_table_over_an_example_wins_at_its_override():
    data = _OVER_EXAMPLES["example-4"]
    G, example = load_table(data), example_rule(4)
    d = DomainIndex(3, 3, "xyz")
    u = d.parse("xyz|yzx|zxy")
    assert u.orderings in example.overrides and example.choose(u).text() == "x"
    assert G.choose(u).text() == "y"
    y = G.universe.mask_from_labels("y")
    assert G.value_table(d)[d.index(u)] == y
    keys, masks = G.override_index(d)  # the example's and the table's, once each
    assert dict(zip(keys.tolist(), masks.tolist()))[d.index(u)] == y and len(keys) == 2


@pytest.mark.parametrize("case", sorted(_OVER_EXAMPLES))
def test_table_over_an_example_round_trips(case):
    G = load_table(_OVER_EXAMPLES[case])
    back = load_table(G.table_json())
    assert (back.name, back.default, back.overrides) == (G.name, G.default, G.overrides)
    assert back.table_json() == G.table_json() == _OVER_EXAMPLES[case]
    d = DomainIndex(G.m, G.n, G.universe.labels)
    assert np.array_equal(back.value_table(d), G.value_table(d))


@pytest.mark.parametrize("case", sorted(_OVER_EXAMPLES))
def test_table_over_an_example_override_index_checks_the_domain(case):
    G = load_table(_OVER_EXAMPLES[case])
    with pytest.raises(ValueError, match="does not match rule"):
        G.override_index(DomainIndex(G.m, G.n + 1, G.universe.labels))


def test_catalog_names_unique_and_axioms_known():
    from paretocheck.axioms import AXIOMS

    assert len(RULE_CATALOG) == 7
    for entry in RULE_CATALOG.values():
        assert entry.expected_axioms <= set(AXIOMS)
        assert entry.expected_failures <= set(AXIOMS)
        assert not entry.expected_axioms & entry.expected_failures


# -- table correspondences ---------------------------------------------------


def test_table_json_round_trip(d33xyz):
    G = example_rule(4)
    data = G.table_json()
    back = load_table(json.dumps(data))
    assert back.m == 3 and back.n == 3
    assert back.universe.labels == "xyz"
    assert back.overrides == G.overrides
    u = parse_profile("xyz|yzx|zxy", back.universe)
    assert back.choose(u).text() == "x"


def test_table_default_miss_returns_default_rule():
    data = {"m": 3, "n": 2, "default": "pareto",
            "overrides": {"xyz|zyx": ["x"]}}
    G = load_table(data)
    hit = parse_profile("xyz|zyx", G.universe)
    miss = parse_profile("xyz|yxz", G.universe)
    assert G.choose(hit).text() == "x"
    assert G.choose(miss).mask == pareto_mask(miss)


def test_table_validation_errors():
    with pytest.raises(ValueError):
        load_table({"m": 3, "n": 2, "default": "nosuchrule"})
    with pytest.raises(ValueError):
        load_table({"m": 3, "default": "pareto"})
    with pytest.raises(ValueError):
        load_table({"m": 3, "n": 2, "default": "pareto", "overrides": {"xyz|xyz|xyz": ["x"]}})
    with pytest.raises(ValueError):
        load_table({"m": 3, "n": 2, "default": "pareto", "overrides": {"xyz|zyx": []}})


def test_drop_rule_name_resolvable():
    G = make_rule("drop:c", 3, 2)
    u = parse_profile("abc|bca", G.universe)
    assert G.choose(u).text() == "ab"
