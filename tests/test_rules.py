import json

import numpy as np
import pytest

from paretocheck import (
    DomainIndex,
    load_table,
    make_rule,
    pareto_set_by_elimination,
    parse_profile,
)
from paretocheck import core
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
    assert _choose("pareto", "xyzw|ywxz|zwxy") == "xyzw"


def test_pareto_set_unanimous():
    assert _choose("pareto", "xyz|xyz|xyz") == "x"


def test_pareto_set_cyclic():
    # oracle: exhaustive pairwise dominance scan shows no domination
    u = parse_profile("xyz|yzx|zxy")
    for x in range(3):
        for y in range(3):
            if x != y:
                assert not all(r.index(x) < r.index(y) for r in u.orderings)
    assert _choose("pareto", "xyz|yzx|zxy") == "xyz"


def test_tops_union_values():
    assert _choose("tops", "xyzw|ywxz|zwxy") == "xyz"
    assert _choose("tops", "xywzt|ztwxy") == "xz"
    assert _choose("tops", "abc|abc") == "a"


def test_plurality_majority_of_tops():
    assert _choose("plurality", "xy|xy|yx") == "x"


def test_borda_unanimous_strict_maximum():
    assert _choose("borda", "abc|abc") == "a"


def test_copeland_cyclic_all_tied():
    # each alternative wins one pairwise majority and loses one
    assert _choose("copeland", "xyz|yzx|zxy") == "xyz"


def test_dictatorship_and_constant():
    assert _choose("dictator:1", "abc|cab") == "a"
    assert _choose("dictator:2", "abc|cab") == "c"
    with pytest.raises(ValueError):
        make_rule("dictator:3", 3, 2)
    assert _choose("all", "abc|cab") == "abc"


def test_borda_scores_example():
    # hand-computed: a: 2+2+1, b: 1+1+2, c: 0+0+0
    assert _choose("borda", "abc|abc|bac") == "a"


# -- the elimination oracle --------------------------------------------------


def test_elimination_route_agrees_on_small_domains(d33, d42):
    for d in (d33, d42):
        for k in range(d.total):
            u = d.profile(k)
            assert pareto_mask(u) == pareto_set_by_elimination(u)


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
            assert t == p
        else:
            assert p == t and len(p) == 1


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
        ks = np.concatenate([rng.integers(0, d.total, 500), d.orbit_minima, keys])
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
        # one slice per individual, and the blocks tile the domain in ascending order
        assert all(len(index) == d.n for _, index in blocks), G.name
        sizes = [int(np.prod([s.stop - s.start for s in index])) for _, index in blocks]
        assert np.cumsum([0] + sizes).tolist() == [lo for lo, _ in blocks] + [d.total], G.name
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
        assert G.choose_mask(u) == pareto_mask(u)


def test_evaluate_rejects_mismatched_profile():
    G = make_rule("pareto", 3, 2)
    with pytest.raises(ValueError):
        G.choose(parse_profile("abc|abc|abc"))
    with pytest.raises(ValueError):
        G.choose(parse_profile("xyz|xyz"))


# -- example rules -----------------------------------------------------------


def test_example_rules_deviate_exactly_as_declared():
    for name in ["example:4", "example:5", "example:5-orbit", "example:8", "example:8-neutral",
                 "example:9", "example:10", "example:11"]:
        G = make_rule(name)
        d = DomainIndex(G.m, G.n, G.universe.labels)
        diff = np.flatnonzero(G.value_table(d) != d.pareto_table)
        declared = sorted(d.index_orderings(key) for key in G.overrides)
        assert list(diff) == declared, name


def test_example_9_unrestricted_deviates_only_inside_subdomain(d53paper):
    G = make_rule("example:9-unrestricted")
    diff = set(np.flatnonzero(G.value_table(d53paper) != d53paper.pareto_table).tolist())
    keys = {d53paper.index_orderings(key) for key in G.overrides}
    assert diff <= keys
    expected = {k for k in keys
                if int(d53paper.tops_table[k]) != int(d53paper.pareto_table[k])}
    assert diff == expected


def test_example_4_override_value():
    G = make_rule("example:4")
    u = parse_profile("xyz|yzx|zxy", G.universe)
    assert G.choose(u) == "x"
    v = parse_profile("xyz|yzx|zyx", G.universe)
    assert G.choose_mask(v) == pareto_mask(v)


def test_example_5_values_and_orbit():
    G = make_rule("example:5")
    u = parse_profile("xyzw|ywxz|zwxy", G.universe)
    assert G.choose(u) == "xyz"
    assert pareto_mask(u) == G.universe.mask_from_labels("xyzw")
    orbit = make_rule("example:5-orbit")
    assert u.orderings in orbit.overrides
    assert len(orbit.overrides) > 1
    for key, mask in orbit.overrides.items():
        member = parse_profile("|".join("".join(orbit.universe.labels[a] for a in r) for r in key),
                               orbit.universe)
        assert mask == tops_mask(member)


def test_example_6_drops_fixed_alternative():
    G = make_rule("example:6")
    u = parse_profile("xyzw|ywxz|zwxy", G.universe)  # w undominated here
    assert G.choose(u) == "xyz"
    unanimous_w = parse_profile("wxyz|wxyz|wxyz", G.universe)
    assert G.choose(unanimous_w) == "w"
    other = make_rule("drop:x", 4, 3, "xyzw")
    assert other.choose(u) == "yzw"


def test_example_8_fixed_pair():
    G = make_rule("example:8")
    assert G.choose(parse_profile("xywzt|ztwxy", G.universe)) == "xz"
    assert G.choose(parse_profile("ztwxy|xywzt", G.universe)) == "xz"
    assert len(G.overrides) == 2


def test_example_9_subdomain_structure():
    tails = tail_orderings_for_anchored_pair(make_rule("example:9").universe)
    assert len(tails) == 6
    profiles = restricted_pair_profiles(make_rule("example:9").universe, 3)
    assert len(profiles) == 3 * 2 * 6
    G = make_rule("example:9")
    assert len(G.overrides) == 36
    u = parse_profile("xywzt|ztwxy|xyztw", G.universe)
    assert G.choose(u) == "xz"
    # two anchor copies are outside the subdomain
    v = parse_profile("xywzt|xywzt|ztwxy", G.universe)
    assert v.orderings not in G.overrides


def test_example_11_agreement_profiles():
    G = make_rule("example:11", 3, 2)
    assert G.choose(parse_profile("abc|abc", G.universe)) == "ab"
    assert G.choose(parse_profile("cba|cba", G.universe)) == "bc"
    assert len(G.overrides) == 6


def test_example_size_validation():
    with pytest.raises(ValueError):
        make_rule("example:8", n=3)
    with pytest.raises(ValueError):
        make_rule("example:9", n=2)
    with pytest.raises(ValueError):
        make_rule("example:4", 4)
    with pytest.raises(ValueError):
        make_rule("example:12")
    with pytest.raises(ValueError):
        make_rule("example:4-orbit")


def test_example_labels_must_match_size():
    with pytest.raises(ValueError, match="do not match m=2"):
        make_rule("example:2", labels="abc")
    with pytest.raises(ValueError, match="do not match m=3"):
        make_rule("example:1", labels="abcd")
    assert make_rule("example:1", 4, labels="abcd").universe.labels == "abcd"
    with pytest.raises(ValueError, match="do not match m=3"):
        make_rule("pareto", 3, 3, "ab")


def test_empty_labels_are_refused_with_one_message():
    # an empty label string is labels of the wrong length, not "no labels"
    builds = [lambda: load_table({"m": 3, "n": 2, "default": "pareto", "labels": ""}),
              lambda: load_table('{"m": 3, "n": 2, "default": "pareto", "labels": ""}'),
              lambda: make_rule("pareto", 3, 2, ""),
              lambda: make_rule("example:1", labels=""),
              lambda: DomainIndex(3, 2, "")]
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "labels '' do not match m=3"
    # None still means the default labels
    assert make_rule("pareto", 3, 2, None).universe.labels == DomainIndex(3, 2).universe.labels == "abc"
    assert load_table({"m": 3, "n": 2, "default": "pareto", "labels": None}).universe.labels == "abc"


def test_example_overrides_keep_their_own_labels():
    # overrides written as profile text are stated over the entry's labels
    for k, labels, stated in [(4, "abc", "xyz"), (5, "abcd", "xyzw"), (10, "xyz", "abc")]:
        with pytest.raises(ValueError) as info:
            make_rule(f"example:{k}", labels=labels)
        assert str(info.value) == (f"example {k} is stated over the labels {stated!r}, "
                                   f"got {labels!r}")
    # examples without overrides take any labels
    assert make_rule("example:2", labels="ab").universe.labels == "ab"
    assert make_rule("example:6", n=2, labels="abcd").default == "drop:d"
    assert make_rule("example:7", n=4, labels="abcd").universe.labels == "abcd"


@pytest.mark.parametrize("name, error", [
    ("example:12", "unknown example 12 (supported: 1..11)"),
    ("example:4-orbit", "example 4 has no 'orbit' variant"),
    ("example:5-foo", "example 5 has no 'foo' variant"),
    ("example:12-foo", "unknown example 12 (supported: 1..11)"),
    ("example:x", "unknown rule 'example:x'"),
])
@pytest.mark.parametrize("sizes", [(), (3, 3)], ids=("no-sizes", "3x3"))
def test_unknown_example_names(name, error, sizes):
    # example names are looked up in EXAMPLES, so the error does not depend
    # on whether sizes are given
    with pytest.raises(ValueError) as info:
        make_rule(name, *sizes)
    assert str(info.value) == error


@pytest.mark.parametrize("name, error", [
    ("dictator:01", "unknown rule 'dictator:01'"),
    ("dictator:007", "unknown rule 'dictator:007'"),
    ("dictator:\u0661", "unknown rule 'dictator:\u0661'"),  # an Arabic-Indic one
    ("dictator:1\n", "unknown rule 'dictator:1\\n'"),
    ("drop:a\n", "unknown rule 'drop:a\\n'"),
    ("dictator:0", "rule 'dictator:0' needs an individual in 1..2"),
    ("dictator:3", "rule 'dictator:3' needs an individual in 1..2"),
])
def test_a_dictator_index_has_one_spelling(name, error):
    # dictator:01 built individual 1's dictator under a second name
    with pytest.raises(ValueError) as info:
        make_rule(name, 3, 2)
    assert str(info.value) == error


def test_shared_tables_stay_intact():
    # the pareto and tops rules tabulate their own folds, so their value
    # tables equal the domain's tables without building them, and a table
    # rule over either writes its overrides into its own table
    d, fresh = DomainIndex(3, 3), DomainIndex(3, 3)
    values = {name: make_rule(name, 3, 3).value_table(d) for name in ("pareto", "tops")}
    for default in ("pareto", "tops"):
        overrides = {d.profile(k).orderings: d.universe.full_mask for k in range(0, d.total, 7)}
        table = Correspondence(d.universe, 3, default=default, overrides=overrides)
        assert (table.value_table(d) != values[default]).any()
    assert not {"pareto_table", "tops_table"} & set(vars(d))
    for name in ("pareto", "tops"):
        assert np.array_equal(values[name], getattr(d, f"{name}_table"))
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
    G, example = load_table(data), make_rule("example:4")
    d = DomainIndex(3, 3, "xyz")
    u = d.parse("xyz|yzx|zxy")
    assert u.orderings in example.overrides and example.choose(u) == "x"
    assert G.choose(u) == "y"
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
    G = make_rule("example:4")
    data = G.table_json()
    back = load_table(json.dumps(data))
    assert back.m == 3 and back.n == 3
    assert back.universe.labels == "xyz"
    assert back.overrides == G.overrides
    u = parse_profile("xyz|yzx|zxy", back.universe)
    assert back.choose(u) == "x"


def test_table_default_miss_returns_default_rule():
    data = {"m": 3, "n": 2, "default": "pareto",
            "overrides": {"xyz|zyx": ["x"]}}
    G = load_table(data)
    hit = parse_profile("xyz|zyx", G.universe)
    miss = parse_profile("xyz|yxz", G.universe)
    assert G.choose(hit) == "x"
    assert G.choose_mask(miss) == pareto_mask(miss)


def test_table_validation_errors():
    with pytest.raises(ValueError):
        load_table({"m": 3, "n": 2, "default": "nosuchrule"})
    with pytest.raises(ValueError):
        load_table({"m": 3, "default": "pareto"})
    with pytest.raises(ValueError):
        load_table({"m": 3, "n": 2, "default": "pareto", "overrides": {"xyz|xyz|xyz": ["x"]}})
    with pytest.raises(ValueError):
        load_table({"m": 3, "n": 2, "default": "pareto", "overrides": {"xyz|zyx": []}})
    with pytest.raises(ValueError, match=r"^alternative labels must be distinct: 'aab'$"):
        load_table({"m": 3, "n": 2, "default": "pareto", "labels": "aab"})
    with pytest.raises(ValueError, match=r"^supported sizes are 2\.\.8 alternatives, got 1$"):
        load_table({"m": 1, "n": 2, "default": "pareto", "labels": "ab"})
    with pytest.raises(ValueError, match=r"^rule 'example:5' uses universe 'xyzw', not 'abcd'$"):
        load_table({"m": 4, "n": 3, "default": "example:5", "labels": "abcd"})
    with pytest.raises(ValueError, match=r"^rule 'pareto' needs explicit sizes m and n$"):
        make_rule("pareto")
    with pytest.raises(ValueError, match=r"^override profile has 2 individuals, expected 3$"):
        Correspondence(core.Universe("abc"), 3, "pareto", {((0, 1, 2), (2, 1, 0)): 1})
    # the value table would store 1 and choose_mask return 1.5
    with pytest.raises(ValueError, match=r"^override value must be a non-empty subset mask, "
                       r"got 1\.5$"):
        Correspondence(core.Universe("abc"), 2, "pareto", {((0, 1, 2), (2, 1, 0)): 1.5})


def test_override_masks_are_stored_as_ints():
    key = ((0, 1, 2), (2, 1, 0))
    for value in (np.uint8(5), np.int64(5), 5, True):
        G = Correspondence(core.Universe("abc"), 2, "pareto", {key: value})
        assert type(G.overrides[key]) is int and G.overrides[key] == value
        assert G.choose(parse_profile("abc|cba", G.universe)) == G.universe.mask_text(int(value))


def test_drop_rule_name_resolvable():
    G = make_rule("drop:c", 3, 2)
    u = parse_profile("abc|bca", G.universe)
    assert G.choose(u) == "ab"
