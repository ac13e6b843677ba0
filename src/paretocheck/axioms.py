"""Exhaustive axiom checkers.

Each checker covers the whole profile domain and returns a deterministic
:class:`AxiomReport`: a pass/fail verdict plus, on failure, the canonical
minimal witness.  Canonical means the violation at the smallest profile
index, breaking ties by smallest individual and then smallest alternative
indices; the same witness is produced for any worker count.

The sweep runs on one edge layer over a rule's choice sets.  Each move
axiom is a move family plus an elementwise predicate on the choice sets at
the two ends of a move.  There are four families: the one-individual
adjacent swap (monotonicity, weak monotonicity and strong stability), the
two-individual transposition (balancedness), the swap of two individuals
(anonymity) and the swap of two labels (neutrality).  Each is described
once, as moves on the digit grid of :meth:`DomainIndex.blocks`, and two
evaluators read the descriptions.  The dense one gathers along the axes of
one block of a rule's whole-domain value table at a time.  The sparse one
follows the moves out of given profiles, on the rule's fold evaluated at
them and their moves' targets alone.  It serves the perturbation search,
which runs the predicates both ways, and the sweeps of a rule whose default
is anonymous and neutral: one candidate profile per orbit of relabellings
and reorderings, then the profiles its overrides touch.

An independent object-level oracle keeps the edge layer honest about what a
violation is.  It is one table, ``_ORACLE``, giving each axiom a listing of
the sites it constrains at a profile and a verdict on one site.  The witness
at the sweep's offending profile, the reference check
:func:`check_axiom_reference` (one-step or, with ``wide``, the wider
listings) and :func:`replay_witness` all read violations off that table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import core
from .core import (
    MAX_ALTERNATIVES,
    DomainIndex,
    Profile,
    apply_alternative_permutation,
    apply_individual_permutation,
    apply_transposition,
    lower_one,
    pareto_dominates,
    permute_mask,
    raise_one,
    transposition_sites,
)
from .rules import RULE_CATALOG, Correspondence

AXIOMS: tuple[str, ...] = (
    "pareto",             # no chosen alternative is Pareto-dominated
    "tops-in",            # every individual's top alternative is chosen
    "balancedness",       # i has x just above y, j has y just above x; both swap: same set
    "monotonicity",       # raising a chosen x keeps x chosen and admits nothing new
    "weak-monotonicity",  # raising a chosen x keeps x chosen
    "strong-stability",   # lowering a chosen x just below y: at most one of drop x, add y
    "anonymity",          # permuting the individuals: same set
    "neutrality",         # relabelling the alternatives relabels the set
)

#: Axiom list per characterization level, keyed by theorem number.
THEOREM_AXIOMS: dict[int, tuple[str, ...]] = {
    1: ("pareto", "tops-in"),
    2: ("pareto", "tops-in", "balancedness"),
    3: ("pareto", "tops-in", "balancedness", "monotonicity"),
    4: ("pareto", "tops-in", "balancedness", "weak-monotonicity", "strong-stability"),
}

#: The range of m each level concerns; the CLI's default m is its lower end.
THEOREM_M: dict[int, tuple[int, int]] = {1: (2, 2), 2: (3, 3), 3: (4, 4), 4: (5, 8)}

#: The theorem harness's verdicts (see :func:`verify_theorem`).
CONSISTENT_EQUAL = "consistent-equal"
CONSISTENT_COUNTEREXAMPLE = "consistent-counterexample"
THEOREM_CONTRADICTION = "THEOREM-CONTRADICTION"


@dataclass(frozen=True)
class Witness:
    """A recorded violation: profiles as text, individuals 1-based, and the
    observed versus allowed choice sets."""

    profiles: tuple[str, ...]
    individuals: tuple[int, ...]
    alternatives: tuple[str, ...]
    observed: tuple[str, ...]
    expected: str

    def to_json(self) -> dict:
        return {
            "profiles": list(self.profiles),
            "individuals": list(self.individuals),
            "alternatives": list(self.alternatives),
            "observed": list(self.observed),
            "expected": self.expected,
        }


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str  # "pass" | "fail"
    witness: Witness | None
    profiles_scanned: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "profiles_scanned": self.profiles_scanned,
        }

    def summary(self) -> str:
        if self.passed:
            return f"{self.axiom}: pass ({self.profiles_scanned} profiles)"
        w = self.witness
        assert w is not None
        parts = [f"{self.axiom}: FAIL at {w.profiles[0]}"]
        if w.individuals:
            parts.append("individuals " + ",".join(f"#{i}" for i in w.individuals))
        if w.alternatives:
            parts.append("alternatives " + ",".join(w.alternatives))
        parts.append(f"observed {'/'.join(w.observed)}; expected {w.expected}")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Edge layer.  A move axiom is a move family plus an elementwise predicate
# ``bad(gu, gv, a, b)`` on the choice sets at a move's source u and target v,
# where ``a`` sits immediately above ``b`` at u for the individual(s) that move
# (the symmetry moves give the two swapped individuals or labels).  Each family
# is an involution taking the edge (u, v, a, b) to (v, u, b, a), written once as
# ``_Move`` descriptions that ``_block_violations`` (dense, one block of the
# grid) and ``_moves_at`` (sparse, at any profile indices) both evaluate.


class _Move(NamedTuple):
    """One move on the digit grid.  Individual t's ordering o becomes
    ``perms[t][o]``, after individuals ``exchange`` and ``exchange + 1`` trade
    orderings when ``exchange`` is set.  With ``meet = ((i, p), (j, q))`` the
    move exists only where column ``p`` at i's ordering equals column ``q`` at
    j's.  ``a`` and ``b`` are alternatives or, when ``on`` is set, per-ordering
    columns read at individual ``on``'s ordering."""

    perms: dict[int, np.ndarray]
    meet: tuple[tuple[int, np.ndarray], ...]
    exchange: int | None
    a: object
    b: object
    on: int | None = None


def _adjacent_swaps(d: DomainIndex) -> list[_Move]:
    """One individual swaps the alternatives at ranks p and p+1."""
    # one contiguous row per rank, as at[p][o] gathers faster than table[o, p]
    at = np.ascontiguousarray(d.ordering_table.T).view(np.uint8)
    swp = np.ascontiguousarray(d.swap_table.T)
    return [_Move({i: swp[p]}, (), None, at[p], at[p + 1], i)
            for i in range(d.n) for p in range(d.m - 1)]


def _transpositions(d: DomainIndex) -> list[_Move]:
    """Individuals i < j swap alternatives x and y, with x just above y for i
    and y just above x for j: i lowers x one rank and j raises it one rank.
    So the move exists where the alternative just below x for i is the one
    just above x for j."""
    m, rows = d.m, np.arange(d.order_count)
    # the alternatives at ranks -1..m, with m+1 above the top and m below the bottom
    padded = np.pad(d.ordering_table.view(np.uint8), ((0, 0), (1, 1)),
                    constant_values=((0, 0), (m + 1, m)))
    moves = []
    for x in range(m):
        r = d.rank_table[:, x].astype(np.intp)
        lower = d.swap_table[rows, np.minimum(r, m - 2)]  # where x is last: unused
        raise_ = d.swap_table[rows, np.maximum(r - 1, 0)]  # where x is first: unused
        above, below = padded[rows, r], padded[rows, r + 2]
        top = np.full(d.order_count, x, dtype=np.uint8)
        moves += [_Move({i: lower, j: raise_}, ((i, below), (j, above)), None, top, below, i)
                  for i, j in itertools.combinations(range(d.n), 2)]
    return moves


def _individual_swaps(d: DomainIndex) -> list[_Move]:
    """Individuals g and g+1 exchange orderings."""
    return [_Move({}, (), g, g, g + 1) for g in range(d.n - 1)]


def _adjacent_relabels(d: DomainIndex) -> list[_Move]:
    """Alternatives g and g+1 exchange labels in every ordering."""
    relabel = d.adjacent_relabel_table
    return [_Move(dict.fromkeys(range(d.n), relabel[g]), (), None, g, g + 1)
            for g in range(d.m - 1)]


def _has(s: np.ndarray, x) -> np.ndarray:
    return ((s >> x) & 1).astype(bool)


def _raise_breaks_monotonicity(gu, gv, a, b):
    """Raising b at u gives v: b must stay chosen and nothing may be added."""
    return _has(gu, b) & (~_has(gv, b) | ((gv & ~gu) != 0))


def _raise_drops(gu, gv, a, b):
    """Raising b at u gives v: b must stay chosen."""
    return _has(gu, b) & ~_has(gv, b)


def _lower_unstable(gu, gv, a, b):
    """Lowering a at u gives v: the choice set may only stay, drop a, or,
    when b was unchosen, gain b."""
    one = np.uint8(1)
    allowed = (gv == gu) | (gv == (gu & ~(one << a)))
    allowed |= ~_has(gu, b) & (gv == (gu | (one << b)))
    return _has(gu, a) & ~allowed


def _relabel_mismatch(gu, gv, a, b):
    """Swapping labels a and b at u gives v: the choice set follows."""
    flip = ((gu >> a) ^ (gu >> b)) & 1
    return gv != gu ^ ((flip << a) | (flip << b))


def _changed(gu, gv, a, b):
    return gv != gu


_EDGES: dict[str, tuple[Callable, Callable]] = {
    "balancedness": (_transpositions, _changed),
    "monotonicity": (_adjacent_swaps, _raise_breaks_monotonicity),
    "weak-monotonicity": (_adjacent_swaps, _raise_drops),
    "strong-stability": (_adjacent_swaps, _lower_unstable),
    "anonymity": (_individual_swaps, _changed),
    "neutrality": (_adjacent_relabels, _relabel_mismatch),
}


#: The unary conditions: a fold giving sets per profile, and a predicate
#: ``bad(gu, sets)`` on the choice sets there.  A choice set must lie within
#: the undominated set and contain the tops.  ``equals-pareto``, the theorems'
#: closing comparison, is no axiom: it is kept out of ``AXIOMS``.
_UNARY: dict[str, tuple[Callable[[DomainIndex], core.Fold], Callable]] = {
    "pareto": (core.undominated, lambda gu, sets: gu & ~sets != 0),
    "tops-in": (core.top_choices, lambda gu, sets: sets & ~gu != 0),
    "equals-pareto": (core.undominated, lambda gu, sets: gu != sets),
}


def _moves_at(d: DomainIndex, moves: Sequence[_Move], ks: np.ndarray) -> Iterator[tuple]:
    """The sparse evaluator: the moves out of the profiles ``ks``, one move at
    a time, as ``(rows, v, a, b)``.  ``rows`` picks the rows of ``ks`` where
    the move exists (a slice of all of them, or an index array) and ``v``
    holds their targets."""
    digits = [d.digit(t, ks) for t in range(d.n)]
    for mv in moves:
        rows, v = slice(None), ks
        if mv.meet:
            (i, p), (j, q) = mv.meet
            rows = np.flatnonzero(p[digits[i]] == q[digits[j]])
            v = ks[rows]
        at = [o[rows] for o in digits]
        for t, perm in mv.perms.items():
            v = v + (perm[at[t]] - at[t]) * d.places[t]
        if mv.exchange is not None:
            g = mv.exchange
            v = v + (at[g + 1] - at[g]) * (d.places[g] - d.places[g + 1])
        a, b = mv.a, mv.b
        if mv.on is not None:
            a, b = a[at[mv.on]], b[at[mv.on]]
        yield rows, v, a, b


def violation_mask(d: DomainIndex, axiom: str, ks: np.ndarray, gu: np.ndarray,
                   value_at: Callable[[np.ndarray | slice, np.ndarray], np.ndarray], *,
                   both_ways: bool = False) -> np.ndarray:
    """Per row of ``ks`` (choice sets ``gu``), whether ``axiom`` is violated
    there; ``value_at(rows, v)`` gives the choice sets at the targets ``v`` of
    the moves out of the rows ``rows`` of ``ks`` (an index array or a slice).

    Forward, a row is flagged when a constraint from u to a neighbour fails.
    ``both_ways`` also flags constraints from a neighbour back to u, which,
    as every move family is an involution, are all constraints touching u.
    """
    if axiom in _UNARY:
        fold, bad = _UNARY[axiom]
        return bad(gu, d.evaluate(fold(d), ks))
    family, bad = _EDGES[axiom]
    viol = np.zeros(len(ks), dtype=bool)
    for rows, v, a, b in _moves_at(d, d.memo(family), ks):
        g, gv = gu[rows], value_at(rows, v)
        hit = bad(g, gv, a, b)
        if both_ways:
            hit |= bad(gv, g, b, a)
        viol[rows] |= hit
    return viol


def local_violations(d: DomainIndex, axioms: Iterable[str], ks: np.ndarray, gu: np.ndarray,
                     value_at: Callable[[np.ndarray | slice, np.ndarray], np.ndarray]) -> np.ndarray:
    """Per row of ``ks`` (choice sets ``gu``), whether a constraint of one of
    ``axioms`` touching that profile fails: a unary condition there, or a
    move into or out of it (:func:`violation_mask` both ways)."""
    out = np.zeros(len(ks), dtype=bool)
    for axiom in axioms:
        out |= violation_mask(d, axiom, ks, gu, value_at, both_ways=True)
    return out


def _block_violations(d: DomainIndex, axiom: str, moves: Sequence[_Move],
                      grid: np.ndarray, index: tuple) -> np.ndarray:
    """The grid evaluator: the forward violation mask of the block
    ``grid[index]`` of a rule's value table ``grid``, viewed as the digit grid
    (see :meth:`DomainIndex.blocks`).  Each move is a gather along the axes of
    the individuals it moves, and the targets of a fixed or partly covered
    individual's moves are read from the whole table."""
    gu = grid[index]
    bad = _EDGES[axiom][1]
    viol = np.zeros(gu.shape, dtype=bool)
    for mv in moves:
        source = grid if mv.exchange is None else grid.swapaxes(mv.exchange, mv.exchange + 1)
        gv = source[tuple(slice(None) if t in mv.perms else s for t, s in enumerate(index))]
        for t, perm in mv.perms.items():
            # a fancy index gathers the targets alone; take would first copy gv whole
            gv = gv[(slice(None),) * t + (perm[index[t]] if t < len(index) else perm,)]
        a, b = mv.a, mv.b
        if mv.on is not None:
            a, b = d.on_axis(index, mv.on, a), d.on_axis(index, mv.on, b)
        hit = bad(gu, gv, a, b)
        if mv.meet:
            (i, p), (j, q) = mv.meet
            hit &= d.on_axis(index, i, p) == d.on_axis(index, j, q)
        viol |= hit
    return viol


def _first_hit(chunks: Iterable, first: Callable[[object], int], workers: int) -> int:
    """The first chunk's hit, or -1: ``first`` gives a chunk's smallest
    flagged profile index, or -1.  Chunks come in ascending profile order and
    their results are read in that order, so the hit is the smallest flagged
    profile for any worker count.  Two chunks per worker are submitted ahead
    of the one read, so after a hit the chunks not yet started are cancelled
    and the rest never submitted.  One worker maps in this thread, with no
    pool."""
    if workers == 1:
        return next((hit for hit in map(first, chunks) if hit >= 0), -1)
    from concurrent.futures import ThreadPoolExecutor  # only a pooled sweep pays for the import

    chunks = iter(chunks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = [pool.submit(first, c) for c in itertools.islice(chunks, 2 * workers)]
        while window:
            hit = window.pop(0).result()
            if hit >= 0:
                pool.shutdown(cancel_futures=True)
                return hit
            window += [pool.submit(first, c) for c in itertools.islice(chunks, 1)]
    return -1


# ---------------------------------------------------------------------------
# Sparse sweeps.  Relabelling the alternatives or reordering the individuals
# maps every move of every family above to a move of the same family, and
# every predicate follows the relabelling.  So for an anonymous and neutral
# rule each axiom's set of flagged profiles is a union of S_m x S_n orbits,
# and its smallest member is the smallest profile of its orbit: individual 1
# at ordering 0 (a relabelling takes any ordering there) and the other
# individuals' orderings non-decreasing (reordering them sorts the digits).
# The first flagged profile among those candidates is the sweep's hit.
#
# A table rule is such a default rule D plus overrides O.  When D passes,
# every violated constraint has an end in O, so the profiles flagged are
# among O and the targets of O's moves (each family being an involution,
# these are every profile with a move into O).


def _orbit_minimum_candidates(d: DomainIndex) -> np.ndarray:
    """Ascending indices of the profiles with individual 1 at ordering 0 and
    a non-decreasing tail of orderings, C(m!+n-2, n-1) of them."""
    ks = np.zeros(1, dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for i in range(1, d.n):
        # each row extends by every ordering from its last one up, in order
        reps = d.order_count - last
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        last = np.repeat(last, reps) + np.arange(len(starts)) - starts
        ks = np.repeat(ks, reps) + last * d.places[i]
    return ks


def _symmetric_default(G: Correspondence) -> Correspondence | None:
    """``G``'s default rule alone, when its catalog entry claims anonymity
    and neutrality, and None otherwise."""
    entry = RULE_CATALOG.get(G.default)
    if entry is None or not {"anonymity", "neutrality"} <= entry.expected_axioms:
        return None
    return Correspondence(G.universe, G.n, G.default) if G.overrides else G


def _sparse_hit(d: DomainIndex, axiom: str, G: Correspondence, ks: np.ndarray,
                workers: int) -> int:
    """The smallest of the ascending profiles ``ks`` flagged for ``axiom``
    under ``G``, or -1; ``G`` is evaluated at ``ks`` and their moves' targets
    alone, in runs of ``_CHUNK`` profiles (read at call time)."""
    def first(ks: np.ndarray) -> int:
        viol = violation_mask(d, axiom, ks, G.values_at(d, ks), lambda rows, v: G.values_at(d, v))
        return int(ks[viol.argmax()]) if viol.any() else -1
    runs = (ks[lo:lo + core._CHUNK] for lo in range(0, len(ks), core._CHUNK))
    return _first_hit(runs, first, workers)


def _default_hits(d: DomainIndex) -> dict[tuple[str, str], int]:
    """``(default name, axiom) -> hit`` of the symmetric defaults swept on
    ``d``, kept with the domain so the tables over one default share it."""
    return {}


def _sweep(axiom: str, G: Correspondence, d: DomainIndex, workers: int) -> tuple[str, int]:
    """The smallest profile flagged for ``axiom`` under ``G``, or -1, and the
    path that found it: ``quotient`` (a symmetric rule on the orbit-minimum
    candidates), ``overrides`` (a passing symmetric default, then the
    profiles its overrides touch) or ``dense`` (every profile, block by
    block).  ``axiom`` is a row of ``_EDGES`` or ``_UNARY``, so also
    ``equals-pareto``: -1 then says that ``G`` chooses the undominated set at
    every profile.  A dense ``_UNARY`` row reads each block's values alone
    (:meth:`Correspondence.block_values`), so it builds no whole-domain
    table; an ``_EDGES`` row's moves reach other blocks, so it sweeps the
    rule's value table."""
    # the move family is memoised here, before the threads read it
    moves = d.memo(_EDGES[axiom][0]) if axiom in _EDGES else ()
    D = None if axiom in ("anonymity", "neutrality") else _symmetric_default(G)
    if D is not None:
        candidates = d.memo(_orbit_minimum_candidates)
        if D is G:
            return "quotient", _sparse_hit(d, axiom, G, candidates, workers)
        # the default's verdict holds for every table over it on this domain
        hits = d.memo(_default_hits)
        key = (G.default, axiom)
        if key not in hits:
            hits[key] = _sparse_hit(d, axiom, D, candidates, workers)
        if hits[key] < 0:
            keys = G.override_index(d)[0]
            touched = np.sort(np.concatenate([keys, *(v for _, v, _, _ in _moves_at(d, moves, keys))]))
            touched = touched[np.diff(touched, prepend=-1) != 0]  # np.unique would import numpy.ma
            return "overrides", _sparse_hit(d, axiom, G, touched, workers)
    if axiom in _UNARY:
        # a unary condition reads the block's own values alone: no whole-domain table
        fold, bad = _UNARY[axiom]
        sets = d.memo(fold)

        def violations(lo: int, index: tuple) -> np.ndarray:
            return bad(G.block_values(d, lo, index), sets(d.block_fold(index)))
    else:
        grid = G.value_table(d).reshape((d.order_count,) * d.n)

        def violations(lo: int, index: tuple) -> np.ndarray:
            return _block_violations(d, axiom, moves, grid, index)

    def first(block: tuple[int, tuple]) -> int:
        viol = violations(*block).ravel()
        return block[0] + int(viol.argmax()) if viol.any() else -1
    return "dense", _first_hit(d.blocks(), first, workers)


# ---------------------------------------------------------------------------
# Object-level oracle.  It walks the moves of ``core`` on Profile objects and
# never touches the edge layer above, so the two stay independent.  Each axiom
# is a site listing plus a verdict.  ``sites(d, u)`` yields, in canonical order,
# ``(v, individuals, alternatives, theta)`` for every move the axiom constrains
# at u: ``v`` is the moved profile (None for pareto and tops-in), individuals
# are 1-based, alternatives are indices, and ``theta`` is a neutrality site's
# relabeling.  ``verdict(d, gu, gv, alternatives, theta)`` returns the
# witness's ``expected`` text when the site is violated, and None otherwise.


def _fmt(d: DomainIndex, mask: int) -> str:
    return d.universe.mask_text(mask)


def _sites_dominated(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    """Every pair with x Pareto-dominating y."""
    for x in range(d.m):
        for y in range(d.m):
            if x != y and pareto_dominates(u, x, y):
                yield None, (), (x, y), None


def _sites_tops(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    for i in range(d.n):
        yield None, (i + 1,), (u.top(i),), None


def _sites_transpositions(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    for s in transposition_sites(u):
        yield apply_transposition(u, s), (s.i + 1, s.j + 1), (s.x, s.y), None


def _sites_raises(d: DomainIndex, u: Profile, reach: int = MAX_ALTERNATIVES) -> Iterator[tuple]:
    """Individual i raises x by 1 to ``reach`` ranks, nearest first."""
    for i in range(d.n):
        for x in range(d.m):
            v = u
            for _ in range(min(reach, u.orderings[i].index(x))):
                v = raise_one(v, i, x)
                yield v, (i + 1,), (x,), None


def _sites_lowerings(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    """Individual i lowers x just below y, the alternative under it."""
    for i in range(d.n):
        r = u.orderings[i]
        for x in range(d.m):
            p = r.index(x)
            if p < d.m - 1:
                yield lower_one(u, i, x), (i + 1,), (x, r[p + 1]), None


def _sites_adjacent_reorderings(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    for g in range(d.n - 1):
        rho = list(range(d.n))
        rho[g], rho[g + 1] = g + 1, g
        yield apply_individual_permutation(u, rho), (g + 1, g + 2), (), None


def _sites_reorderings(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    """Every permutation rho but the identity, recorded as rho itself."""
    for rho in itertools.islice(itertools.permutations(range(d.n)), 1, None):
        yield apply_individual_permutation(u, rho), tuple(i + 1 for i in rho), (), None


def _sites_adjacent_relabelings(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    for g in range(d.m - 1):
        theta = list(range(d.m))
        theta[g], theta[g + 1] = g + 1, g
        yield apply_alternative_permutation(u, theta), (), (g, g + 1), theta


def _sites_relabelings(d: DomainIndex, u: Profile) -> Iterator[tuple]:
    """Every relabeling theta but the identity, recorded as theta itself."""
    for theta in itertools.islice(itertools.permutations(range(d.m)), 1, None):
        yield apply_alternative_permutation(u, theta), (), theta, theta


def _expect_excluded(d, gu, gv, alternatives, theta):
    y = alternatives[1]
    return f"a choice set excluding {d.universe.label(y)}" if gu >> y & 1 else None


def _expect_top(d, gu, gv, alternatives, theta):
    t = alternatives[0]
    return None if gu >> t & 1 else f"a choice set containing {d.universe.label(t)}"


def _expect_unchanged(d, gu, gv, alternatives, theta):
    return None if gv == gu else f"the unchanged choice set {_fmt(d, gu)}"


def _expect_monotone(d, gu, gv, alternatives, theta):
    x = alternatives[0]
    if gu >> x & 1 and not (gv >> x & 1 and gv & ~gu == 0):
        return f"a subset of {_fmt(d, gu)} containing {d.universe.label(x)}"
    return None


def _expect_kept(d, gu, gv, alternatives, theta):
    x = alternatives[0]
    if gu >> x & 1 and not gv >> x & 1:
        return f"a choice set containing {d.universe.label(x)}"
    return None


def _expect_stable(d, gu, gv, alternatives, theta):
    x, y = alternatives
    if not gu >> x & 1:
        return None
    allowed = [gu]
    if gu & ~(1 << x):
        allowed.append(gu & ~(1 << x))
    if not gu >> y & 1:
        allowed.append(gu | (1 << y))
    return None if gv in allowed else "one of: " + ", ".join(_fmt(d, a) for a in allowed)


def _expect_relabeled(d, gu, gv, alternatives, theta):
    want = permute_mask(gu, theta)
    return None if gv == want else f"the relabeled choice set {_fmt(d, want)}"


_ORACLE: dict[str, tuple[Callable, Callable]] = {
    "pareto": (_sites_dominated, _expect_excluded),
    "tops-in": (_sites_tops, _expect_top),
    "balancedness": (_sites_transpositions, _expect_unchanged),
    "monotonicity": (partial(_sites_raises, reach=1), _expect_monotone),
    "weak-monotonicity": (partial(_sites_raises, reach=1), _expect_kept),
    "strong-stability": (_sites_lowerings, _expect_stable),
    "anonymity": (_sites_adjacent_reorderings, _expect_unchanged),
    "neutrality": (_sites_adjacent_relabelings, _expect_relabeled),
}

# The reference listings: raises of any distance, and the whole permutation
# groups, which the one-step sites generate.
_WIDE_SITES: dict[str, Callable] = {
    "monotonicity": _sites_raises,
    "weak-monotonicity": _sites_raises,
    "anonymity": _sites_reorderings,
    "neutrality": _sites_relabelings,
}


def _violations(axiom: str, G: Correspondence, d: DomainIndex, u: Profile,
                *, wide: bool = False) -> Iterator[Witness]:
    """Every violation of ``axiom`` at ``u`` in canonical order, over the
    one-step sites or, with ``wide``, the reference listing."""
    sites, verdict = _ORACLE[axiom]
    if wide:
        sites = _WIDE_SITES.get(axiom, sites)
    gu = G.choose_mask(u)
    for v, individuals, alternatives, theta in sites(d, u):
        gv = None if v is None else G.choose_mask(v)
        expected = verdict(d, gu, gv, alternatives, theta)
        if expected is not None:
            ends = [(u, gu)] if v is None else [(u, gu), (v, gv)]
            yield Witness(
                profiles=tuple(str(p) for p, _ in ends),
                individuals=individuals,
                alternatives=tuple(d.universe.label(a) for a in alternatives),
                observed=tuple(_fmt(d, g) for _, g in ends),
                expected=expected,
            )


# ---------------------------------------------------------------------------
# Public checkers


def _require_axiom(axiom: str) -> None:
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r} (choose from {', '.join(AXIOMS)})")


def check_axiom(axiom: str, G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """Check one axiom over the whole domain.

    The witness is the oracle's first violation at the smallest violating
    profile.  On failure ``profiles_scanned`` counts the profiles up to and
    including that profile; on a pass it is the domain size.

    Axioms other than anonymity and neutrality take a sparse path when the
    rule's default D is in the catalog with claims of both.  D is checked on
    one candidate profile per orbit of relabellings and reorderings, on its
    fold evaluated there; without overrides that is the report.  When D
    passes, the overrides are checked at their own profiles and at their
    moves' targets, where every violation then lies.  Every other check
    sweeps the whole domain, block by block: pareto and tops-in on each
    block's own values, folded there unless the rule's value table is
    already built, and the move axioms on the whole-domain value table,
    since their moves leave the block.  All paths
    find the same smallest violating profile, and all run their chunks on
    ``workers`` threads, so the report is the same for any worker count.

    ``G`` must be a rule over ``d``'s labels and individuals; otherwise the
    ValueError names ``G``.  :func:`check_axiom_reference` is the
    object-level reference for every axiom, with the same reports.
    """
    _require_axiom(axiom)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    G._check_domain(d)
    hit = _sweep(axiom, G, d, workers)[1]
    if hit < 0:
        return AxiomReport(axiom, "pass", None, d.total)
    witness = next(_violations(axiom, G, d, d.profile(hit)), None)
    if witness is None:  # pragma: no cover - kernel/object disagreement is a bug
        raise AssertionError(f"sweep flagged profile {hit} but no {axiom} violation was found there")
    return AxiomReport(axiom, "fail", witness, hit + 1)


def check_axioms(G: Correspondence, d: DomainIndex, axioms: Sequence[str] = AXIOMS,
                 *, workers: int = 1) -> list[AxiomReport]:
    """Check ``axioms`` in order.  When one of them sweeps ``G``'s value table
    whole (anonymity and neutrality always do), the table is built first, so
    the sparse checks before that one read it too."""
    if not {"anonymity", "neutrality"}.isdisjoint(axioms):
        G.value_table(d)
    return [check_axiom(a, G, d, workers=workers) for a in axioms]


# ---------------------------------------------------------------------------
# Theorem harness


@dataclass(frozen=True)
class TheoremResult:
    theorem: int
    rule: str
    m: int
    n: int
    verdict: str
    failing_axiom: str | None
    reports: tuple[AxiomReport, ...]
    matches_pareto: bool | None

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "failing_axiom": self.failing_axiom,
            "deviations": [],
            "rule": self.rule,
            "m": self.m,
            "n": self.n,
        }


def verify_theorem(k: int, G: Correspondence, d: DomainIndex, *, workers: int = 1) -> TheoremResult:
    """Check one characterization level empirically on a full domain.

    Runs the level's axiom list against ``G`` and then compares ``G`` to the
    undominated-set rule pointwise.  Possible verdicts: the axioms hold and
    the rules coincide (consistent-equal); some axiom fails
    (consistent-counterexample); or the axioms hold yet the rules differ,
    which the characterization says must never happen (THEOREM-CONTRADICTION).
    The comparison is one more sweep condition, ``equals-pareto``, so it
    takes the checks' paths and runs on ``workers`` threads like them.
    """
    if k not in THEOREM_AXIOMS:
        raise ValueError(f"unknown theorem {k} (supported: 1..4)")
    m_lo, m_hi = THEOREM_M[k]
    if not m_lo <= d.m <= m_hi:
        raise ValueError(f"theorem {k} concerns m in [{m_lo}, {m_hi}], got m={d.m}")
    reports: list[AxiomReport] = []
    for axiom in THEOREM_AXIOMS[k]:
        rep = check_axiom(axiom, G, d, workers=workers)
        reports.append(rep)
        if not rep.passed:
            return TheoremResult(k, G.name, d.m, d.n, CONSISTENT_COUNTEREXAMPLE,
                                 axiom, tuple(reports), None)
    equal = _sweep("equals-pareto", G, d, workers)[1] < 0
    verdict = CONSISTENT_EQUAL if equal else THEOREM_CONTRADICTION
    return TheoremResult(k, G.name, d.m, d.n, verdict, None, tuple(reports), equal)


@dataclass(frozen=True)
class MatrixResult:
    m: int
    n: int
    rules: tuple[str, ...]
    axioms: tuple[str, ...]
    reports: dict[str, dict[str, AxiomReport]]

    def report(self, rule: str, axiom: str) -> AxiomReport:
        return self.reports[rule][axiom]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for row in self.reports.values() for r in row.values())

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "rules": list(self.rules),
            "axioms": list(self.axioms),
            "cells": {
                rule: {axiom: rep.to_json() for axiom, rep in row.items()}
                for rule, row in self.reports.items()
            },
        }


def axiom_matrix(rules: Sequence[Correspondence], axioms: Sequence[str],
                 d: DomainIndex, *, workers: int = 1) -> MatrixResult:
    """Every requested axiom checked against every rule, in a fixed order.
    A rule over other labels than ``d``'s, an example stated over its own,
    is checked on the domain of ``d``'s sizes over its labels."""
    domains = {d.universe.labels: d}
    reports = {}
    for G in rules:
        labels = G.universe.labels
        if labels not in domains:
            domains[labels] = DomainIndex(d.m, d.n, labels)
        reports[G.name] = dict(zip(axioms, check_axioms(G, domains[labels], axioms,
                                                        workers=workers)))
    return MatrixResult(d.m, d.n, tuple(G.name for G in rules), tuple(axioms), reports)


# ---------------------------------------------------------------------------
# Slow reference paths


def check_axiom_reference(axiom: str, G: Correspondence, d: DomainIndex,
                          *, wide: bool = False) -> AxiomReport:
    """Object-level re-implementation of :func:`check_axiom`: a plain loop
    over profiles in index order with no vectorization.  Small domains only.

    By default it lists the sweep's one-step sites, so its report equals
    :func:`check_axiom`'s field for field.  ``wide`` lists the reference
    sites instead: raises of any distance for monotonicity and weak
    monotonicity, and every permutation of the individuals or of the labels
    for anonymity and neutrality.  The one-step sites generate those, so the
    verdict is the same either way.
    """
    _require_axiom(axiom)
    for k in range(d.total):
        for witness in _violations(axiom, G, d, d.profile(k), wide=wide):
            return AxiomReport(axiom, "fail", witness, k + 1)
    return AxiomReport(axiom, "pass", None, d.total)


def replay_witness(G: Correspondence, d: DomainIndex, report: AxiomReport) -> bool:
    """Re-check a failure report against the correspondence from scratch.

    Reparses the witness's first profile, lists every violation of the axiom
    there with the object-level oracle (the one-step sites, then the wider
    reference listing), and accepts the witness only when it is one of them,
    observed and expected fields included.  So a witness replays when some
    checker in this package records it.  A rewritten witness does not, such
    as a swap pair in reverse order, a move that does not exist, or a first
    profile that is missing or not one of the domain's.
    """
    w = report.witness
    if report.passed or w is None:
        return report.passed and w is None
    _require_axiom(report.axiom)
    try:
        u = d.parse(w.profiles[0])
    except (IndexError, ValueError):  # no profile, or not one of this domain's
        return False
    return any(w in _violations(report.axiom, G, d, u, wide=wide) for wide in (False, True))
