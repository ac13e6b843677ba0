"""The edge layer: each axiom's moves and predicate, written once for the
sweeps of ``axioms`` and for the search.

Every axiom but pareto and tops-in is a move family plus an elementwise
predicate ``bad(gu, gv, a, b)`` on the choice sets at a move's source u and
target v, where ``a`` sits immediately above ``b`` at u for the
individual(s) that move (the symmetry moves give the two swapped
individuals or labels).  There are four families: the one-individual
adjacent swap (monotonicity, weak monotonicity and strong stability), the
two-individual transposition (balancedness), the swap of two individuals
(anonymity) and the swap of two labels (neutrality).  Each family is an
involution taking the edge (u, v, a, b) to (v, u, b, a), written once as
``_Move`` descriptions on the digit grid of :meth:`DomainIndex.blocks`.
``axioms._block_violations`` evaluates them densely, one block of a rule's
value table at a time, and :func:`_moves_at` sparsely, at any profile
indices.  Pareto and tops-in are ``_UNARY`` rows: a fold and a predicate on
the choice sets at one profile.

This module imports only ``core``, so the search runs on it without the
checkers.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import core
from .core import DomainIndex


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
#: closing comparison, is no axiom: the axiom list of ``core`` leaves it out.
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
        return bad(gu, d.evaluate(d.memo(fold), ks))
    family, bad = _EDGES[axiom]
    viol = np.zeros(len(ks), dtype=bool)
    for rows, v, a, b in _moves_at(d, d.memo(family), ks):
        g, gv = gu[rows], value_at(rows, v)
        hit = bad(g, gv, a, b)
        if both_ways:
            hit |= bad(gv, g, b, a)
        viol[rows] |= hit
    return viol
