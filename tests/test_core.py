import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretocheck import (
    DomainIndex,
    ParseError,
    Profile,
    TranspositionSite,
    Universe,
    apply_alternative_permutation,
    apply_individual_permutation,
    apply_transposition,
    check_axiom,
    enumerate_orderings,
    lower_one,
    make_rule,
    pareto_dominates,
    parse_profile,
    raise_one,
    replay_witness,
    transposition_sites,
)
from paretocheck.core import _swap_adjacent, permute_mask
from paretocheck.rules import symmetry_orbit


# -- enumeration -------------------------------------------------------------


def test_two_alternatives_both_orders():
    assert enumerate_orderings(2) == ((0, 1), (1, 0))


def test_three_alternatives_lexicographic_endpoints():
    orderings = enumerate_orderings(3)
    assert len(orderings) == 6
    assert orderings[0] == (0, 1, 2)  # (a, b, c)
    assert orderings[-1] == (2, 1, 0)  # (c, b, a)


def test_five_alternatives_count_matches_factorial():
    # oracle: factorial computed independently of the enumeration
    expected = 1
    for k in range(2, 6):
        expected *= k
    got = enumerate_orderings(5)
    assert len(got) == expected == math.factorial(5)
    assert len(set(got)) == expected


@pytest.mark.parametrize("m", [1, 9, 0])
def test_enumeration_size_guard(m):
    with pytest.raises(ValueError):
        enumerate_orderings(m)


# -- indexing ----------------------------------------------------------------


def test_first_profile_is_all_first_ordering(d22):
    u = d22.profile(0)
    assert str(u) == "ab|ab"


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_round_trip_exhaustive_small_domains(sizes):
    d = DomainIndex(*sizes)
    for k in range(d.total):
        assert d.index(d.profile(k)) == k


def test_total_is_independent_power(d33):
    assert d33.total == 6 ** 3 == 216


def test_index_most_significant_first(d32):
    # profile index = base-m! number, individual 1 most significant
    u = d32.profile(2 * 6 + 5)
    assert d32.ordering_index(u.orderings[0]) == 2
    assert d32.ordering_index(u.orderings[1]) == 5


def test_index_range_and_universe_errors(d32, d33xyz):
    with pytest.raises(ValueError):
        d32.profile(d32.total)
    with pytest.raises(ValueError):
        d32.profile(-1)
    u = d33xyz.profile(17)
    with pytest.raises(ValueError):
        d32.index(u)  # wrong universe and n


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.data())
def test_round_trip_sampled(m, n, data):
    d = DomainIndex(m, n)
    k = data.draw(st.integers(0, d.total - 1))
    assert d.index(d.profile(k)) == k


def test_domain_size_caps():
    # the bound on m is checked once, in Universe, whichever way m is given
    for make in (lambda: DomainIndex(9, 2), lambda: DomainIndex(9, 2, "abcdefghi"),
                 lambda: DomainIndex(9, 7), lambda: enumerate_orderings(9),
                 lambda: Universe.of_size(9), lambda: Universe("abcdefghi")):
        with pytest.raises(ValueError, match=r"^supported sizes are 2\.\.8 alternatives, got 9$"):
            make()
    # out of range with labels of another length: the bound comes first
    with pytest.raises(ValueError, match=r"^supported sizes are 2\.\.8 alternatives, got 1$"):
        Universe.of_size(1, "ab")
    with pytest.raises(ValueError, match=r"^labels 'abc' do not match m=4$"):
        Universe.of_size(4, "abc")
    with pytest.raises(ValueError, match=r"^supported sizes are 2\.\.6 individuals, got 7$"):
        DomainIndex(3, 7)
    with pytest.raises(ValueError, match=r"^alternative labels must be distinct: 'aab'$"):
        Universe("aab")
    with pytest.raises(ParseError, match=r"^supported sizes are 2\.\.8 alternatives, "
                                         r"got 9 \(at position 0\)$"):
        parse_profile("abcdefghi|ihgfedcba")


def test_whole_domain_table_rejects_index_overflow():
    # 40320**5 profiles: the indices themselves do not fit in int64
    with pytest.raises(ValueError, match=rf"\(8,5\) domain has {40320 ** 5} profiles.*int64"):
        DomainIndex(8, 5).pareto_table


@pytest.mark.parametrize("m,n", [(7, 6), (8, 6)])
def test_domain_rejects_index_overflow_under_default_cap(m, n):
    # within the individual cap, but the profile indices overflow int64
    total = math.factorial(m) ** n
    with pytest.raises(ValueError, match=rf"\({m},{n}\) domain has {total} profiles.*int64"):
        DomainIndex(m, n)


def test_largest_domains_within_int64_construct():
    assert DomainIndex(7, 5).total == 5040 ** 5
    assert DomainIndex(8, 4).total == 40320 ** 4


def test_whole_domain_table_rejects_unallocatable_size():
    # 5040**3 profiles fit in int64, but the 128 GB table cannot be allocated;
    # a dictator is not symmetric, so its move sweeps need its whole value
    # table, while tops-in folds each block's values alone
    G, d = make_rule("dictator:1", 7, 3), DomainIndex(7, 3)
    with pytest.raises(ValueError, match=r"\(7,3\) domain has 128024064000 profiles.*"
                                         r"needs 128024064000 bytes"):
        check_axiom("weak-monotonicity", G, d)
    report = check_axiom("tops-in", G, d)
    assert not report.passed and replay_witness(G, d, report)


# -- ranks and dominance -----------------------------------------------------


def test_rank_of_second_position():
    u = parse_profile("xwzy|wxyz")
    x, w = u.universe.index("x"), u.universe.index("w")
    d = DomainIndex(4, 2)
    ranks = d.rank_table[d.ordering_index(u.orderings[0])]
    assert ranks[w] + 1 == 2
    assert ranks[x] + 1 == 1


def test_ranks_form_full_range():
    d = DomainIndex(4, 2)
    ranks = d.rank_table[d.ordering_index((2, 0, 3, 1))]
    assert sorted(int(ranks[x]) + 1 for x in range(4)) == [1, 2, 3, 4]


def test_unanimous_dominance():
    u = parse_profile("xyz|xyz")
    uni = u.universe
    assert pareto_dominates(u, uni.index("x"), uni.index("y"))
    assert not pareto_dominates(u, uni.index("y"), uni.index("x"))


def test_dominance_on_fixed_four_alternative_profile():
    # oracle: exhaustive pairwise scan finds no dominated pair here
    u = parse_profile("xyzw|ywxz|zwxy")
    for x in range(4):
        for y in range(4):
            if x != y:
                assert not pareto_dominates(u, x, y)


def test_dominance_on_fixed_five_alternative_pair():
    u = parse_profile("xywzt|ztwxy")
    uni = u.universe
    assert pareto_dominates(u, uni.index("x"), uni.index("y"))
    assert pareto_dominates(u, uni.index("z"), uni.index("t"))
    assert not pareto_dominates(u, uni.index("x"), uni.index("w"))


def test_dominance_rejects_equal_arguments():
    u = parse_profile("ab|ba")
    with pytest.raises(ValueError):
        pareto_dominates(u, 0, 0)


# -- transposition sites -----------------------------------------------------


def test_cyclic_profile_has_no_sites():
    assert transposition_sites(parse_profile("xyz|yzx|zxy")) == ()


def test_fixed_four_alternative_profile_has_no_sites():
    assert transposition_sites(parse_profile("xyzw|ywxz|zwxy")) == ()


def test_site_orientation_and_membership():
    u = parse_profile("cba|acb|abc")
    uni = u.universe
    site = TranspositionSite(uni.index("c"), uni.index("b"), 0, 2)
    assert site in transposition_sites(u)


def test_sites_match_bruteforce_quadruple_scan(d33):
    # oracle: scan all (x, y, i, j) quadruples directly
    for k in range(0, d33.total, 7):
        u = d33.profile(k)
        expected = set()
        for i in range(u.n):
            for j in range(u.n):
                if i == j:
                    continue
                ri, rj = u.orderings[i], u.orderings[j]
                for x in range(u.m):
                    for y in range(u.m):
                        if x == y:
                            continue
                        adj_i = ri.index(x) + 1 == ri.index(y)
                        adj_j = rj.index(y) + 1 == rj.index(x)
                        if adj_i and adj_j:
                            expected.add((frozenset((i, j)), frozenset((x, y))))
        got = transposition_sites(u)
        assert len(got) == len(expected)
        assert {(frozenset((s.i, s.j)), frozenset((s.x, s.y))) for s in got} == expected
        for s in got:
            ri, rj = u.orderings[s.i], u.orderings[s.j]
            assert ri.index(s.x) + 1 == ri.index(s.y)
            assert rj.index(s.y) + 1 == rj.index(s.x)


def test_apply_transposition_fixed_example():
    u = parse_profile("cba|acb|abc")
    uni = u.universe
    v = apply_transposition(u, TranspositionSite(uni.index("c"), uni.index("b"), 0, 2))
    assert str(v) == "bca|acb|acb"


def test_apply_transposition_puts_w_on_top():
    u = parse_profile("xwz|wxz")
    uni = u.universe
    v = apply_transposition(u, TranspositionSite(uni.index("x"), uni.index("w"), 0, 1))
    assert v.orderings[0][0] == uni.index("w")


def test_apply_transposition_rejects_invalid_site():
    u = parse_profile("abc|abc")
    with pytest.raises(ValueError):
        apply_transposition(u, TranspositionSite(0, 1, 0, 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.data())
def test_transposition_involution_and_two_position_change(m, n, data):
    d = DomainIndex(m, n)
    u = d.profile(data.draw(st.integers(0, d.total - 1)))
    sites = transposition_sites(u)
    if not sites:
        return
    s = sites[data.draw(st.integers(0, len(sites) - 1))]
    v = apply_transposition(u, s)
    changed = [i for i in range(n) if u.orderings[i] != v.orderings[i]]
    assert changed == sorted((s.i, s.j))
    for i in changed:
        diffs = [p for p in range(m) if u.orderings[i][p] != v.orderings[i][p]]
        assert len(diffs) == 2 and diffs[1] == diffs[0] + 1
    # the reversed site appears at v and returns to u
    back = TranspositionSite(s.y, s.x, s.i, s.j)
    assert back in transposition_sites(v)
    assert apply_transposition(v, back) == u


# -- raises and lowers -------------------------------------------------------


def test_raise_one_fixed_profile():
    u = parse_profile("xyzw|ywxz|zwxy")
    uni = u.universe
    v = raise_one(u, 1, uni.index("z"))
    assert str(v) == "xyzw|ywzx|zwxy"


def test_raise_one_above_w_matches_printed_profile():
    u = parse_profile("xywzt|ztwxy|ztwxy")
    uni = u.universe
    v = raise_one(u, 1, uni.index("x"))
    assert str(v) == "xywzt|ztxwy|ztwxy"


def test_raise_lower_inverse_and_boundaries():
    u = parse_profile("abc|cab")
    assert lower_one(raise_one(u, 0, 1), 0, 1) == u
    with pytest.raises(ValueError):
        raise_one(u, 0, 0)
    with pytest.raises(ValueError):
        lower_one(u, 0, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.data())
def test_raise_one_changes_one_adjacent_pair(m, n, data):
    d = DomainIndex(m, n)
    u = d.profile(data.draw(st.integers(0, d.total - 1)))
    i = data.draw(st.integers(0, n - 1))
    p = data.draw(st.integers(1, m - 1))
    x = u.orderings[i][p]
    v = raise_one(u, i, x)
    assert lower_one(v, i, x) == u
    assert [j for j in range(n) if u.orderings[j] != v.orderings[j]] == [i]
    diffs = [q for q in range(m) if u.orderings[i][q] != v.orderings[i][q]]
    assert diffs == [p - 1, p]


# -- symmetries --------------------------------------------------------------


def test_identity_permutations():
    u = parse_profile("xyz|yzx|zxy")
    assert apply_alternative_permutation(u, (0, 1, 2)) == u
    assert apply_individual_permutation(u, (0, 1, 2)) == u


def test_individual_swap_matches_fixed_pair():
    u = parse_profile("xywzt|ztwxy")
    assert apply_individual_permutation(u, (1, 0)) == parse_profile("ztwxy|xywzt", u.universe)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.data())
def test_alternative_permutation_commutes_with_ranks(m, n, data):
    d = DomainIndex(m, n)
    u = d.profile(data.draw(st.integers(0, d.total - 1)))
    theta = tuple(data.draw(st.permutations(list(range(m)))))
    v = apply_alternative_permutation(u, theta)
    for i in range(n):
        for x in range(m):
            assert v.orderings[i].index(theta[x]) == u.orderings[i].index(x)
    inverse = [0] * m
    for a, b in enumerate(theta):
        inverse[b] = a
    assert apply_alternative_permutation(v, inverse) == u


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_relabel_action_matches_object_level_relabeling(m):
    d = DomainIndex(m, 2)
    thetas = enumerate_orderings(m)
    want = [[d.ordering_index(apply_alternative_permutation(Profile(d.universe, (r, r)), theta)
                              .orderings[0]) for r in d.orderings] for theta in thetas]
    stacked = d.relabel_action(thetas)
    assert stacked.shape == (len(thetas), d.order_count) and stacked.tolist() == want
    assert d.relabel_action(thetas[-1]).tolist() == want[-1]
    with pytest.raises(ValueError, match="permutation"):
        d.relabel_action([thetas[0], (0,) * m])


@pytest.mark.parametrize("m", range(2, 9))
def test_relabelled_mask_tables_match_permute_mask(m):
    # row o of unrelabel_masks takes alternative a to ordering o's alternative
    # at rank a, and the adjacent relabellings are rows of it
    d = DomainIndex(m, 2)
    adjacent = d.adjacent_relabel_masks
    want = [[permute_mask(s, _swap_adjacent(tuple(range(m)), g)) for s in range(1 << m)]
            for g in range(m - 1)]
    assert adjacent.dtype == np.uint8 and adjacent.tolist() == want
    for o in (0, 1, d.order_count // 2, d.order_count - 1):
        assert d.unrelabel_masks[o].tolist() == [permute_mask(s, d.orderings[o])
                                                 for s in range(1 << m)]


@pytest.mark.parametrize("m", range(2, 8))
def test_swap_table_matches_adjacent_swaps(m):
    d = DomainIndex(m, 2)
    want = [[d.ordering_index(_swap_adjacent(r, p)) for p in range(m - 1)] for r in d.orderings]
    assert d.swap_table.dtype == np.int32 and d.swap_table.tolist() == want


@pytest.mark.parametrize("sizes", [(3, 3), (4, 2), (3, 4), (2, 5)], ids=lambda s: "%dx%d" % s)
def test_canonical_matches_brute_force_orbits(sizes):
    d = DomainIndex(*sizes)
    minima, thetas = d.canonical(np.arange(d.total))
    images, orders = d.pivot_images(np.arange(d.total))
    smallest = {}  # profile index -> smallest index of its orbit
    for k in range(d.total):
        if k not in smallest:
            orbit = [d.index_orderings(o) for o in symmetry_orbit(d.universe, d.profile(k).orderings)]
            smallest.update(dict.fromkeys(orbit, min(orbit)))
    assert minima.tolist() == [smallest[k] for k in range(d.total)]
    # several individuals share an ordering at many of these profiles, so
    # several pivots reach the minimum; each must carry its own relabelling
    assert ((images == minima).sum(axis=0) > 1).any()
    for k in range(d.total):
        u = d.profile(k)
        for pivot in range(d.n):
            theta = d.rank_table[orders[pivot, k]].tolist()
            relabeled = apply_alternative_permutation(u, theta).orderings
            assert relabeled[pivot] == d.orderings[0]
            assert d.index_orderings(sorted(relabeled)) == images[pivot, k]
        relabeled = apply_alternative_permutation(u, d.rank_table[thetas[k]].tolist())
        assert d.index_orderings(sorted(relabeled.orderings)) == minima[k]
    fixed = np.flatnonzero(minima == np.arange(d.total))
    assert fixed.tolist() == d.orbit_minima.tolist()
    # at an orbit minimum, the pivots whose image is the minimum give exactly
    # the relabellings that fix it up to a reordering of the individuals
    for k in fixed.tolist():
        u = d.profile(k)
        stabiliser = {theta for theta in d.orderings
                      if sorted(apply_alternative_permutation(u, theta).orderings) == sorted(u.orderings)}
        pivots = {tuple(d.rank_table[orders[i, k]].tolist()) for i in range(d.n) if images[i, k] == k}
        assert stabiliser == pivots


@pytest.mark.parametrize("sizes", [(7, 2), (8, 2)], ids=lambda s: "%dx%d" % s)
def test_canonical_matches_object_level_pivots(sizes):
    # past the brute-force sizes: each pivot's relabelling, applied to the
    # Profile and its orderings sorted, against the index arithmetic
    d = DomainIndex(*sizes)
    rng = np.random.default_rng(sum(sizes))
    ks = rng.integers(0, d.total, 200)
    images, orders = d.pivot_images(ks)
    minima, thetas = d.canonical(ks)
    for at, k in enumerate(ks.tolist()):
        u = d.profile(k)
        want = []
        for pivot in range(d.n):
            theta = d.rank_table[d.ordering_index(u.orderings[pivot])].tolist()
            relabeled = apply_alternative_permutation(u, theta).orderings
            assert relabeled[pivot] == d.orderings[0]
            want.append(d.index_orderings(sorted(relabeled)))
            assert orders[pivot, at] == d.ordering_index(u.orderings[pivot])
        assert images[:, at].tolist() == want
        assert minima[at] == min(want)
        relabeled = apply_alternative_permutation(u, d.rank_table[thetas[at]].tolist())
        assert d.index_orderings(sorted(relabeled.orderings)) == minima[at]


@pytest.mark.parametrize("sizes", [(2, 3), (3, 3), (4, 2)])
def test_profile_text_matches_profile(sizes):
    d = DomainIndex(*sizes, labels="xyzw"[:sizes[0]])
    assert [d.profile_text(k) for k in range(d.total)] == [str(d.profile(k)) for k in range(d.total)]
    for k in (-1, d.total):
        with pytest.raises(ValueError, match="out of range"):
            d.profile_text(k)


def test_permutation_size_mismatch():
    u = parse_profile("abc|cab")
    with pytest.raises(ValueError):
        apply_alternative_permutation(u, (1, 0))
    with pytest.raises(ValueError):
        apply_individual_permutation(u, (0, 1, 2))


# -- parsing -----------------------------------------------------------------


def test_parse_inferred_universe_order_of_appearance():
    u = parse_profile("xyzw|ywxz|zwxy")
    assert u.universe.labels == "xyzw"


def test_parse_whitespace_ignored():
    assert str(parse_profile("xyz | yzx| zxy")) == "xyz|yzx|zxy"


def test_parse_against_fixed_universe():
    uni = Universe("xyzwt")
    u = parse_profile("xywzt|ztwxy", uni)
    assert u.universe is uni and u.n == 2


def test_universe_index_takes_exactly_one_label():
    uni = Universe("abc")
    assert [uni.index(c) for c in "abc"] == [0, 1, 2]
    for label in ("", "bc", "ab", "d"):
        with pytest.raises(ValueError):
            uni.index(label)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_profile("xyz|xy", None)
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse_profile("xyz|xyq", Universe("xyz"))
    assert err.value.position == 6
    with pytest.raises(ParseError) as err:
        parse_profile("xyx|xyz", Universe("xyz"))
    assert err.value.position == 2


@pytest.mark.parametrize("call, message", [
    (lambda d: parse_profile("abc"), "profiles need at least 2 individuals (at position 3)"),
    (lambda d: apply_transposition(parse_profile("abc|abc"), TranspositionSite(0, 1, 0, 0)),
     "invalid site individuals (0, 0)"),
    (lambda d: apply_transposition(parse_profile("abc|abc"), TranspositionSite(0, 1, 0, 2)),
     "invalid site individuals (0, 2)"),
    (lambda d: apply_transposition(parse_profile("abc|abc"), TranspositionSite(1, 0, 0, 1)),
     "site invalid: b is not immediately above a for individual 1"),
    (lambda d: d.index_orderings(((0, 1, 2),) * 4), "expected 2 orderings, got 4"),
    (lambda d: d.ordering_index((0, 0, 1)), "not an ordering of this universe: (0, 0, 1)"),
], ids=("one-individual", "site-0-0", "site-0-2", "not-a-site", "orderings-count",
        "not-an-ordering"))
def test_refusals_name_their_cause(call, message, d32):
    with pytest.raises(ValueError) as info:
        call(d32)
    assert str(info.value) == message


def test_profile_validation():
    uni = Universe("abc")
    with pytest.raises(ValueError):
        Profile(uni, ((0, 1, 2),))  # single individual
    with pytest.raises(ValueError):
        Profile(uni, ((0, 1, 2), (0, 1, 1)))  # not a permutation
