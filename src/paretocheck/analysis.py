"""Diagnostics and harnesses built on the checkers: the height and gap
measurements used by the characterization arguments, the bounded
perturbation search for rules that beat a given axiom set, and exact
reproduction of the catalog examples.  The empirical theorem harness,
:func:`verify_theorem`, and its verdicts live in ``axioms``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    DomainIndex,
    Profile,
    TranspositionSite,
    apply_transposition,
    lower_one,
    parse_profile,
    raise_one,
    top_choices,
    undominated,
)
from .rules import EXAMPLES, Correspondence, RuleCatalogEntry, make_rule, pareto_mask
from .axioms import (  # verify_theorem: benchmarks/workloads.py calls it from here
    AXIOMS,
    check_axiom,
    replay_witness,
    verify_theorem,
    violation_mask,
)

# ---------------------------------------------------------------------------
# Height


@dataclass(frozen=True)
class HeightWitness:
    profile: str
    rank: int          # h(v) for this profile
    individual: int    # 1-based; smallest individual holding the rank
    alternative: str   # the unchosen undominated alternative at that rank

    def to_json(self) -> dict:
        return {"profile": self.profile, "rank": self.rank,
                "individual": self.individual, "alternative": self.alternative}


@dataclass(frozen=True)
class HeightResult:
    """Minimum, over all profiles with an unchosen undominated alternative,
    of the best rank such an alternative reaches.  ``height`` is absent when
    no profile has one (the rule then chooses every undominated alternative).
    """

    height: int | None
    profiles_with_unchosen: int
    witnesses: tuple[HeightWitness, ...]

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "profiles_with_unchosen": self.profiles_with_unchosen,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def height(G: Correspondence, d: DomainIndex, *, witness_cap: int = 16) -> HeightResult:
    """Best (smallest) rank reached by an undominated-but-unchosen
    alternative, with the profiles attaining it."""
    pareto, full = d.memo(undominated), np.uint8(d.universe.full_mask)

    def blocks() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Per block: its first profile, each profile's unchosen undominated
        alternatives, and the best rank (1-based) holding one, m+1 if none."""
        for lo, index in d.blocks():
            bad = pareto(d.block_fold(index)) & (full ^ G.block_values(d, lo, index))
            reach = np.full(bad.shape, d.m + 1, dtype=np.int16)
            for p in range(d.m):
                at = d.ordering_table[:, p].view(np.uint8)
                hit = reduce(np.bitwise_or, (bad >> d.on_axis(index, i, at) for i in range(d.n)))
                reach[(reach == d.m + 1) & ((hit & 1) != 0)] = p + 1
            yield lo, bad.ravel(), reach.ravel()

    count, best = 0, d.m + 1
    for _, bad, reach in blocks():
        count += int(np.count_nonzero(bad))
        best = min(best, int(reach.min()))
    if not count:
        return HeightResult(None, 0, ())

    witnesses: list[HeightWitness] = []
    for lo, bad, reach in blocks():
        for off in np.flatnonzero(reach == best):
            k = lo + int(off)
            u = d.profile(k)
            mask = int(bad[off])
            for i in range(d.n):
                w = u.orderings[i][best - 1]
                if mask >> w & 1:
                    witnesses.append(HeightWitness(str(u), best, i + 1, d.universe.label(w)))
                    break
            if len(witnesses) >= witness_cap:
                return HeightResult(best, count, tuple(witnesses))
    return HeightResult(best, count, tuple(witnesses))


# ---------------------------------------------------------------------------
# Gap


def gap(G: Correspondence, u: Profile, i: int, w: int) -> int:
    """Number of alternatives strictly between ``w`` and the closest chosen
    alternative above it in individual ``i``'s ordering."""
    if not 0 <= i < u.n:
        raise ValueError(f"no individual {i} in a profile of {u.n}")
    lbl = u.universe.label
    if not pareto_mask(u) >> w & 1:
        raise ValueError(f"gap undefined: {lbl(w)} is dominated at this profile")
    gu = G.choose_mask(u)
    if gu >> w & 1:
        raise ValueError(f"gap undefined: {lbl(w)} is chosen at this profile")
    r = u.orderings[i]
    pw = r.index(w)
    for q in range(pw - 1, -1, -1):
        if gu >> r[q] & 1:
            return pw - q - 1
    raise ValueError(f"gap undefined: no chosen alternative above {lbl(w)} "
                     f"in individual {i + 1}'s ordering")


# ---------------------------------------------------------------------------
# Perturbation search


@dataclass(frozen=True)
class Deviation:
    """A table correspondence differing from the undominated-set rule on one
    profile (single mode) or one symmetry orbit (orbit mode)."""

    profiles: tuple[str, ...]
    choice_sets: tuple[tuple[str, ...], ...]

    def to_json(self) -> dict:
        return {"profiles": list(self.profiles),
                "choice_sets": [list(cs) for cs in self.choice_sets]}

    def to_correspondence(self, d: DomainIndex) -> Correspondence:
        overrides = {}
        for text, labels in zip(self.profiles, self.choice_sets):
            profile = parse_profile(text, d.universe)
            overrides[profile.orderings] = d.universe.mask_from_labels("".join(labels))
        return Correspondence(d.universe, d.n, overrides=overrides,
                              name=f"deviation({self.profiles[0]})")


#: Cells per search batch: a batch takes ``_SEARCH_CELLS // 2**m`` base
#: profiles, so its (profile x mask) candidate grid stays within this many
#: cells.  This bounds the search's working memory.
_SEARCH_CELLS = 1 << 16


def _unrelabel_masks(d: DomainIndex) -> np.ndarray:
    """(m!, 2**m) uint8: each choice-set mask under the inverse of the
    relabelling ``rank_table[o]``, which takes alternative a to ordering o's
    alternative at rank a."""
    masks, orders = np.arange(1 << d.m), d.ordering_table.view(np.uint8)
    return reduce(np.bitwise_or, (((masks >> a) & 1).astype(np.uint8) << orders[:, a, None]
                                  for a in range(d.m)))


def _is_candidate(tops: np.ndarray, pareto: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Whether each choice-set mask S is a search candidate, tops ⊆ S ⊊
    pareto, broadcast over the three uint8 arrays."""
    return ((masks & ~pareto) == 0) & ((tops & ~masks) == 0) & (masks != pareto)


def _single_cut(d: DomainIndex, budget: int) -> tuple[int, int] | None:
    """The last of the first ``budget`` single-mode candidates, as (profile,
    mask), or None when the domain has no more candidates than that.  They
    are ordered by profile and then by mask, and a profile u has
    2**|pareto(u) - tops(u)| - 1 of them.  The Pareto and tops sets are
    folded block by block, up to the block that holds the cut."""
    pareto, tops = d.memo(undominated), d.memo(top_choices)
    count = np.array([(1 << bin(extra).count("1")) - 1 for extra in range(256)], dtype=np.uint8)
    left = budget
    for lo, index in d.blocks():
        fold = d.block_fold(index)
        pv, tv = pareto(fold).ravel(), tops(fold).ravel()
        sizes = count[pv & ~tv]
        reach = np.cumsum(sizes, dtype=np.int64)
        if reach[-1] >= left:
            at = int(np.searchsorted(reach, left))  # the first profile reaching the cut
            rank = left - int(reach[at]) + int(sizes[at]) - 1
            masks = np.arange(1 << d.m, dtype=np.uint8)
            return lo + at, int(np.flatnonzero(_is_candidate(tv[at], pv[at], masks))[rank])
        left -= int(reach[-1])
    return None


def _orbit(d: DomainIndex, k: int) -> np.ndarray:
    """The members of profile k's S_m x S_n orbit, ascending."""
    rhos = np.array(list(itertools.permutations(range(d.n))))
    digits = [d.digit(i, k) for i in range(d.n)]
    # k's orderings relabelled by every theta, (m!, n)
    relabeled = d.sequence_index(lambda p: d.rank_table[:, d.ordering_table[digits, p]])
    images = np.sort((relabeled[:, rhos] * np.array(d.places, dtype=np.int64)).sum(axis=-1),
                     axis=None)
    return images[np.diff(images, prepend=-1) != 0]


def perturbation_search(d: DomainIndex, axioms: Sequence[str], *, mode: str = "single",
                        budget: int = 1_000_000) -> list[Deviation]:
    """Search for table correspondences that differ from the undominated-set
    rule yet satisfy every requested axiom.

    A candidate is a profile and a choice set S with tops ⊆ S ⊊ pareto
    there, whatever axioms are asked for.  In single mode it overrides that
    profile alone; candidates are ordered by profile, then by S, and the
    result lists every accepted one among the first ``budget``, in that
    order.  In orbit mode it overrides the profile's whole orbit under every
    relabeling of the alternatives combined with every permutation of the
    individuals, each image taking S relabeled; the profile is the smallest
    index of its orbit, a candidate whose S is not well defined on the orbit
    (some group element fixes the profile but moves S) is never accepted,
    and the budget counts the first ``budget`` of these candidates, by
    profile and then S, orbit-inconsistent ones included.  Either way the
    result is deterministic.  Emptiness within budget is evidence at this
    scale, not a proof.
    """
    bad = frozenset(axioms) - set(AXIOMS)
    if bad:
        raise ValueError(f"unknown axioms: {', '.join(sorted(bad))}")
    if mode not in ("single", "orbit"):
        raise ValueError(f"mode must be 'single' or 'orbit', got {mode!r}")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    axiom_set = frozenset(axioms)
    unrelabel = d.memo(_unrelabel_masks)
    pareto, tops = d.memo(undominated), d.memo(top_choices)
    # Both modes check one base per S_m x S_n orbit, its smallest profile.  A
    # single-mode orbit meets the first ``budget`` candidates only if its base does
    cut = _single_cut(d, budget) if mode == "single" else None
    bases = d.orbit_minima
    if cut is not None:
        bases = bases[:np.searchsorted(bases, cut[0], side="right")]
    bases = bases[d.evaluate(pareto, bases) != d.evaluate(tops, bases)]

    masks = np.arange(1 << d.m, dtype=np.uint8)
    step = max(1, _SEARCH_CELLS >> d.m)
    found: dict[int, list[int]] = {}  # accepted S per base, in order
    left = budget
    for start in range(0, len(bases), step):
        ks = bases[start:start + step]
        pv, tv = d.evaluate(pareto, ks)[:, None], d.evaluate(tops, ks)[:, None]
        rows, bits = np.nonzero(_is_candidate(tv, pv, masks))
        cols, sets = ks[rows], masks[bits]
        if mode == "single":
            def value_at(rows: np.ndarray | slice, v: np.ndarray) -> np.ndarray:
                """S at the base alone, the Pareto set elsewhere."""
                return np.where(v == cols[rows], sets[rows], d.evaluate(pareto, v))
        else:
            cols, sets = cols[:left], sets[:left]
            left -= len(cols)
            # S is well defined on the orbit iff every relabelling that fixes
            # the base fixes S; those are the pivots whose image is the base
            images, thetas = d.pivot_images(cols)
            consistent = ((images != cols) | (unrelabel[thetas, sets] == sets)).all(axis=0)
            cols, sets = cols[consistent], sets[consistent]

            def value_at(rows: np.ndarray | slice, v: np.ndarray) -> np.ndarray:
                """S relabelled at the members of the base's orbit, the
                Pareto set elsewhere."""
                minima, theta = d.canonical(v)
                return np.where(minima == cols[rows], unrelabel[theta, sets[rows]],
                                d.evaluate(pareto, v))

        # The base rule and the override g.base -> g.S are equivariant under
        # the group, and so is every move family, so each violated constraint
        # touching the orbit is the image of one touching the base; and one
        # must touch an override, as the base rule satisfies every axiom.
        # Likewise the one-profile override S at the base, single mode's,
        # passes exactly when g.S at g.base does.  So the S accepted at a base
        # are closed under the group elements that fix it, and any one element
        # that takes the base to a member w (the inverse of the relabelling
        # ``canonical`` gives for w) maps them onto the S accepted at w.  S is
        # accepted when no constraint touching the base fails: a unary one
        # there, or a move into or out of it.
        viol = np.zeros(len(cols), dtype=bool)
        for axiom in axiom_set:
            viol |= violation_mask(d, axiom, cols, sets, value_at, both_ways=True)
        accepted = ~viol
        for k, s in zip(cols[accepted].tolist(), sets[accepted].tolist()):
            found.setdefault(k, []).append(s)
        if left == 0:
            break
    listed = []  # per accepted base: its orbit members and, per member, each accepted S relabelled
    for k, accepted_sets in found.items():
        members = _orbit(d, k)
        if cut is not None:
            members = members[members <= cut[0]]  # no deviation past the cut is listed
        thetas = d.canonical(members)[1]
        listed.append((members, unrelabel[thetas[:, None], accepted_sets]))
    labels = [d.universe.mask_labels(s) for s in range(1 << d.m)]
    if mode == "orbit":
        return [Deviation(tuple(d.profile_text(w) for w in members.tolist()),
                          tuple(labels[s] for s in choices.tolist()))
                for members, table in listed for choices in table.T]
    if not listed:
        return []
    # one key per deviation, profile << m | S, so one sort orders them by (profile, S)
    keys = np.sort(np.concatenate([(members[:, None] << d.m | table).ravel()
                                   for members, table in listed]))
    if cut is not None:
        keys = keys[keys <= cut[0] << d.m | cut[1]]
    return [Deviation((d.profile_text(w),), (labels[s],))
            for w, s in zip((keys >> d.m).tolist(), (keys & (1 << d.m) - 1).tolist())]


# ---------------------------------------------------------------------------
# Stability descent audit


@dataclass(frozen=True)
class DescentStep:
    """One application of the lowering move at a smallest-height profile with
    a positive gap, classified by how the choice set responded."""

    profile: str
    individual: int          # 1-based
    unchosen: str            # the undominated alternative at the minimal rank
    chosen_above: str        # nearest chosen alternative above it
    blocker: str             # the unchosen alternative directly below chosen_above
    gap_before: int
    outcome: str             # unchanged | gained | dropped | stability-violation
    gap_after: int | None
    blocker_dominated_at_base: bool | None
    moved_loses_optimality: bool | None


def stability_descent_audit(G: Correspondence, d: DomainIndex, *,
                            profile_cap: int = 64) -> tuple[DescentStep, ...]:
    """Replay the gap-reduction move at every smallest-height profile.

    For each profile at the minimal height with a positive gap, lower the
    nearest chosen alternative just below its unchosen neighbour and record
    the outcome.  When the rule is strongly stable the outcome is one of the
    three allowed ones; outcomes that keep the moved alternative must shrink
    the gap by one, and dropped outcomes are flagged with the two side
    conditions instead of being asserted.
    """
    hr = height(G, d, witness_cap=profile_cap)
    if hr.height is None:
        return ()
    h = hr.height
    seen: set[str] = set()
    steps: list[DescentStep] = []
    for witness in hr.witnesses:
        if witness.profile in seen:
            continue
        seen.add(witness.profile)
        u = parse_profile(witness.profile, d.universe)
        gu = G.choose_mask(u)
        bad = pareto_mask(u) & ~gu
        for i in range(d.n):
            r = u.orderings[i]
            w = r[h - 1]
            if not bad >> w & 1:
                continue
            try:
                g0 = gap(G, u, i, w)
            except ValueError:
                continue  # no chosen alternative above w for this individual
            if g0 == 0:
                continue
            px = next(q for q in range(h - 1 - 1, -1, -1) if gu >> r[q] & 1)
            x = r[px]
            a = r[px + 1]
            u2 = lower_one(u, i, x)
            g2 = G.choose_mask(u2)
            if g2 == gu:
                outcome = "unchanged"
            elif not gu >> a & 1 and g2 == (gu | 1 << a):
                outcome = "gained"
            elif g2 == gu & ~(1 << x):
                outcome = "dropped"
            else:
                outcome = "stability-violation"
            gap_after = None
            dominated_flag = None
            loses_flag = None
            if outcome in ("unchanged", "gained"):
                gap_after = gap(G, u2, i, w)
            elif outcome == "dropped":
                dominated_flag = not pareto_mask(u) >> a & 1
                loses_flag = not pareto_mask(u2) >> x & 1
            lbl = d.universe.label
            steps.append(DescentStep(str(u), i + 1, lbl(w), lbl(x), lbl(a),
                                     g0, outcome, gap_after, dominated_flag, loses_flag))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Example reproduction


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ExampleReport:
    example: int
    ok: bool
    checks: tuple[ExampleCheck, ...]

    def to_json(self) -> dict:
        return {"example": self.example, "ok": self.ok,
                "checks": [c.to_json() for c in self.checks]}


def _check_deviation(G: Correspondence, d: DomainIndex, mode: str) -> ExampleCheck:
    pv = Correspondence(d.universe, d.n).value_table(d)
    diff = np.flatnonzero(G.value_table(d) != pv)
    keys, masks = G.override_index(d)
    if mode == "exact":
        ok = np.array_equal(diff, keys) and bool((masks != pv[keys]).all())
        detail = f"{len(diff)} profiles differ; {len(keys)} fixed"
    elif mode == "drop":
        t = d.universe.index(G.default.split(":", 1)[1])
        expect = np.nonzero(((pv >> t) & 1).astype(bool) & (pv != (1 << t)))[0]
        ok = np.array_equal(diff, expect)
        detail = f"{len(diff)} profiles differ; expected {len(expect)}"
    elif mode == "tops-diff":
        expect = keys[d.evaluate(d.memo(top_choices), keys) != pv[keys]]
        ok = np.array_equal(diff, expect)
        detail = f"{len(diff)} profiles differ within the {len(keys)}-profile subdomain"
    else:
        raise ValueError(mode)
    return ExampleCheck(f"{G.name} deviates from the undominated set exactly as declared",
                        bool(ok), detail)


def _value_check(G: Correspondence, text: str, want: str, move: Callable | None = None,
                 name: str | None = None) -> ExampleCheck:
    """Whether ``G`` chooses ``want`` at the profile ``text``, or at its image
    under ``move`` when given."""
    u = parse_profile(text, G.universe)
    got = G.choose(move(u) if move else u)
    return ExampleCheck(name or f"{G.name} at {text} chooses {{{want}}}", got == want,
                        f"observed {{{got}}}")


def _extra_checks(G: Correspondence, d: DomainIndex) -> list[ExampleCheck]:
    """The choice values and single moves the paper states for an example."""
    uni, at = G.universe, G.universe.index
    if G.name == "example:4":
        return [_value_check(G, "xyz|yzx|zxy", "x")]
    if G.name == "example:5":
        return [_value_check(G, "xyzw|ywxz|zwxy", "xyz"),
                _value_check(G, "xyzw|ywxz|zwxy", "xyzw", lambda u: raise_one(u, 1, at("z")),
                             "raising z one rank for #2 at the fixed profile admits w")]
    if G.name == "example:8":
        return [_value_check(G, "xywzt|ztwxy", "xz"), _value_check(G, "ztwxy|xywzt", "xz"),
                _value_check(G, "xywzt|ztwxy", "xyzw", lambda u: lower_one(u, 0, at("x")),
                             "lowering x below y for #1 at the first fixed profile "
                             "yields {x,y,z,w}")]
    if G.name == "example:9":
        expected = d.n * (d.n - 1) * 6 ** (d.n - 2)
        return [ExampleCheck(
            f"the restricted subdomain has {expected} profiles, all choosing {{x,z}}",
            len(G.overrides) == expected
            and all(v == uni.mask_from_labels("xz") for v in G.overrides.values()),
            f"{len(G.overrides)} profiles")]
    if G.name == "example:9-unrestricted":
        base = "xywzt|" + "|".join(["ztwxy"] * (d.n - 1))
        return [_value_check(G, base, "xz"),
                _value_check(G, base, "xzw", lambda u: raise_one(u, 1, at("x")),
                             "raising x above w for #2 yields {x,z,w}: new alternative chosen")]
    if G.name == "example:10":
        site = TranspositionSite(at("c"), at("b"), 0, 2)
        return [_value_check(G, "cba|acb|abc", "ac"), _value_check(G, "cba|cab|abc", "ac"),
                _value_check(G, "cba|acb|abc", "abc", lambda u: apply_transposition(u, site),
                             "transposing c and b for #1 and #3 changes the choice set "
                             "to {a,b,c}")]
    if G.name == "example:11":
        return [_value_check(G, "|".join([uni.labels] * d.n), uni.labels[:2])]
    return []


def _claim_checks(G: Correspondence, d: DomainIndex, entry: RuleCatalogEntry, *,
                  workers: int = 1) -> list[ExampleCheck]:
    """One check per axiom claim of the catalog ``entry`` about ``G`` on
    ``d``: a claimed failure must fail with a witness that replays, and a
    claimed pass must pass.  Failures come first, each group in AXIOMS order."""
    checks = []
    for axiom in (a for a in AXIOMS if a in entry.expected_failures):
        rep = check_axiom(axiom, G, d, workers=workers)
        replayed = (not rep.passed) and replay_witness(G, d, rep)
        detail = rep.witness.profiles[0] if rep.witness else "no witness"
        checks.append(ExampleCheck(f"{G.name} fails {axiom} (witness replays)",
                                   replayed, f"witness at {detail}"))
    for axiom in (a for a in AXIOMS if a in entry.expected_axioms):
        rep = check_axiom(axiom, G, d, workers=workers)
        detail = "" if rep.passed else f"unexpected witness at {rep.witness.profiles[0]}"
        checks.append(ExampleCheck(f"{G.name} satisfies {axiom}", rep.passed, detail))
    return checks


def reproduce_example(k: int, *, n: int | None = None, workers: int = 1) -> ExampleReport:
    """Rebuild example rule ``k`` (with its variants), confirm its declared
    deviation set and choice values, and confirm it fails exactly the axioms
    it is documented to fail while passing the documented rest."""
    entries = [e for name, e in EXAMPLES.items() if name.split("-")[0] == f"example:{k}"]
    if not entries:
        raise ValueError(f"unknown example {k} (supported: 1..11)")
    checks: list[ExampleCheck] = []
    domains: dict[tuple[int, int, str], DomainIndex] = {}
    for entry in entries:
        claim_m, claim_n = entry.claim_size
        G = make_rule(entry.name, claim_m, n if n is not None else claim_n)
        key = (G.m, G.n, G.universe.labels)
        d = domains.get(key)
        if d is None:
            d = domains[key] = DomainIndex(G.m, G.n, G.universe.labels)
        if entry.deviation != "none":
            checks.append(_check_deviation(G, d, entry.deviation))
        checks.extend(_extra_checks(G, d))
        checks.extend(_claim_checks(G, d, entry, workers=workers))
    return ExampleReport(k, all(c.passed for c in checks), tuple(checks))
