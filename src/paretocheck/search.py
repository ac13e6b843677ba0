"""The perturbation search for rules that differ from the undominated-set
rule yet pass a given axiom list (:func:`perturbation_search`).  Its
deviations come from :func:`deviation_runs` as runs of index arrays, so a
caller that writes them out holds one run's profile texts at a time.

It reads the Pareto and tops sets from the folds of ``core``, relabels
choice sets with ``DomainIndex.unrelabel_masks``, and checks each candidate
with the edge layer of ``edges``, so a search loads neither the rules nor
the checkers.  A found :class:`Deviation` imports ``rules``
only when it is made into a :class:`~paretocheck.rules.Correspondence`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .core import AXIOMS, DomainIndex, Record, parse_profile, top_choices, undominated
from .edges import violation_mask

if TYPE_CHECKING:
    from .rules import Correspondence


@dataclass(frozen=True)
class Deviation(Record):
    """A table correspondence differing from the undominated-set rule on one
    profile (single mode) or one symmetry orbit (orbit mode)."""

    profiles: tuple[str, ...]
    choice_sets: tuple[tuple[str, ...], ...]

    def to_correspondence(self, d: DomainIndex) -> Correspondence:
        from .rules import Correspondence

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

#: Profiles per run of :func:`deviation_runs`, which bounds the text a
#: listing holds at once.  Runs are capped by profiles, not by deviations,
#: as an orbit-mode deviation lists up to m! * n! profiles.
_RUN_PROFILES = 1 << 14


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
        total = int(sizes.sum(dtype=np.int64))
        if total >= left:  # the running sum is built for this block alone
            reach = np.cumsum(sizes, dtype=np.int64)
            at = int(np.searchsorted(reach, left))  # the first profile reaching the cut
            rank = left - int(reach[at]) + int(sizes[at]) - 1
            masks = np.arange(1 << d.m, dtype=np.uint8)
            return lo + at, int(np.flatnonzero(_is_candidate(tv[at], pv[at], masks))[rank])
        left -= total
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


def deviation_runs(d: DomainIndex, axioms: Sequence[str], *, mode: str = "single",
                   budget: int = 1_000_000) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The deviations of :func:`perturbation_search`, in its order, as runs
    of two (deviations, profiles) arrays of one shape: the profile indices
    each deviation overrides and its choice-set mask at each.  A run lists
    at most ``_RUN_PROFILES`` profiles, or one deviation that has more, and
    never none; a single-mode deviation has one profile, an orbit-mode one
    its base's orbit.  The arguments are checked when the first run is asked
    for."""
    bad = frozenset(axioms) - set(AXIOMS)
    if bad:
        raise ValueError(f"unknown axioms: {', '.join(sorted(bad))}")
    if mode not in ("single", "orbit"):
        raise ValueError(f"mode must be 'single' or 'orbit', got {mode!r}")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    axiom_set = frozenset(axioms)
    unrelabel = d.unrelabel_masks
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

    def listing(k: int, accepted: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Base k's orbit members and, per member, each accepted S relabelled."""
        members = _orbit(d, k)
        if cut is not None:
            members = members[members <= cut[0]]  # no deviation past the cut is listed
        return members, unrelabel[d.canonical(members)[1][:, None], accepted]

    if mode == "orbit":
        for k, accepted in found.items():
            members, table = listing(k, accepted)
            per = max(1, _RUN_PROFILES // len(members))
            for j in range(0, len(accepted), per):
                sets = table[:, j:j + per].T
                yield np.broadcast_to(members, sets.shape), sets
        return
    if not found:
        return
    # one key per deviation, profile << m | S, so one sort orders them by (profile, S)
    keys = np.sort(np.concatenate([(members[:, None] << d.m | table).ravel()
                                   for members, table in itertools.starmap(listing, found.items())]))
    if cut is not None:
        keys = keys[keys <= cut[0] << d.m | cut[1]]
    for j in range(0, len(keys), _RUN_PROFILES):
        run = keys[j:j + _RUN_PROFILES, None]
        yield run >> d.m, run & (1 << d.m) - 1


def run_deviations(d: DomainIndex, ks: np.ndarray, sets: np.ndarray) -> list[Deviation]:
    """The deviations of one run of :func:`deviation_runs`."""
    texts, size = d.profile_texts(ks), ks.shape[1]
    labels = [d.universe.mask_labels(s) for s in range(1 << d.m)]
    return [Deviation(tuple(texts[at:at + size]), tuple(labels[s] for s in row))
            for at, row in zip(range(0, len(texts), size), sets.tolist())]


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
    return [dev for ks, sets in deviation_runs(d, axioms, mode=mode, budget=budget)
            for dev in run_deviations(d, ks, sets)]
