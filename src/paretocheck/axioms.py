"""Exhaustive axiom checkers.

Each checker sweeps the whole profile domain and returns a deterministic
:class:`AxiomReport`: a pass/fail verdict plus, on failure, the canonical
minimal witness.  Canonical means the violation at the smallest profile
index, breaking ties by smallest individual and then smallest alternative
indices; the same witness is produced for any worker count.

The sweep runs on one edge layer over a rule's whole-domain value table.
Each move axiom is a move generator plus an elementwise predicate on the
choice sets at the two ends of a move.  There are four generators: the
one-individual adjacent swap (monotonicity, weak monotonicity and strong
stability), the two-individual transposition (balancedness), the swap of
two individuals (anonymity) and the swap of two labels (neutrality).  The
perturbation search runs the same predicates, both ways, on the profiles it
overrides.

An independent object-level oracle keeps the edge layer honest about what a
violation is.  It is one table, ``_ORACLE``, giving each axiom a listing of
the sites it constrains at a profile and a verdict on one site.  The witness
at the sweep's offending profile, the reference checks
(:func:`check_axiom_reference`, ``multi_step`` and ``exhaustive``) and
:func:`replay_witness` all read violations off that table.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    MAX_ALTERNATIVES,
    DomainIndex,
    Profile,
    apply_alternative_permutation,
    apply_individual_permutation,
    apply_transposition,
    index_chunks,
    lower_one,
    pareto_dominates,
    permute_mask,
    raise_one,
    transposition_sites,
)
from .rules import Correspondence

AXIOMS: tuple[str, ...] = (
    "pareto",
    "tops-in",
    "balancedness",
    "monotonicity",
    "weak-monotonicity",
    "strong-stability",
    "anonymity",
    "neutrality",
)


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
# Edge layer.  Every axiom but pareto and tops-in relates two profiles one move
# apart.  A move generator takes an array ``ks`` of profile indices u and
# yields, one move at a time, ``(rows, v, a, b)``: ``rows`` indexes the rows of
# ``ks`` where the move exists (None: all rows), ``v`` holds their target
# indices, and ``a`` sits immediately above ``b`` at u for the individual(s)
# that move (the symmetry moves give the two swapped individuals or labels).
# Each family is an involution taking the edge (u, v, a, b) to (v, u, b, a).
# An axiom is one generator plus an elementwise predicate ``bad(gu, gv, a, b)``.


def _by_rank(d: DomainIndex) -> tuple[np.ndarray, np.ndarray]:
    """Ordering and swap tables with one contiguous row per rank, as
    ``at[p][o]`` gathers faster than ``table[o, p]``."""
    return (np.ascontiguousarray(d.ordering_table.T).view(np.uint8),
            np.ascontiguousarray(d.swap_table.T))


def _adjacent_swaps(d: DomainIndex, ks: np.ndarray) -> Iterator[tuple]:
    """One individual swaps the alternatives at ranks p and p+1."""
    at, swp = _by_rank(d)
    for i in range(d.n):
        oi = d.digit(i, ks)
        for p in range(d.m - 1):
            yield None, ks + (swp[p][oi] - oi) * d.places[i], at[p][oi], at[p + 1][oi]


def _transpositions(d: DomainIndex, ks: np.ndarray) -> Iterator[tuple]:
    """Individuals i < j swap an adjacent pair they rank in opposite orders.

    The pair (x above y) is coded x*m+y, below 64 as m <= 8, and each ordering
    keeps the set of its reversed adjacent pairs as one mask of m*m bits, so
    the rows where i's ranks p and p+1 are reversed for j come from one AND.
    """
    digits = [d.digit(i, ks) for i in range(d.n)]
    at, swp = _by_rank(d)
    m = d.m
    wide = at.astype(np.min_scalar_type((1 << m * m) - 1))
    one = wide.dtype.type(1)
    bit = [one << (wide[p] * m + wide[p + 1]) for p in range(m - 1)]
    reversed_pairs = reduce(np.bitwise_or, (one << (wide[p + 1] * m + wide[p])
                                            for p in range(m - 1)))
    reversed_at = {j: reversed_pairs[digits[j]] for j in range(1, d.n)}
    rank, swap = d.rank_table.ravel(), d.swap_table.ravel()
    for i in range(d.n - 1):
        oi = digits[i]
        for p in range(m - 1):
            pair = bit[p][oi]
            for j in range(i + 1, d.n):
                rows = np.flatnonzero(pair & reversed_at[j])
                if not len(rows):
                    continue
                ri, rj = oi[rows], digits[j][rows]
                x, y = at[p][ri], at[p + 1][ri]
                q = rank[rj * m + y]  # y's rank for j, with x just below it
                v = (ks[rows]
                     + (swp[p][ri] - ri) * d.places[i]
                     + (swap[rj * (m - 1) + q] - rj) * d.places[j])
                yield rows, v, x, y


def _individual_swaps(d: DomainIndex, ks: np.ndarray) -> Iterator[tuple]:
    """Individuals g and g+1 exchange orderings."""
    digits = [d.digit(i, ks) for i in range(d.n)]
    for g in range(d.n - 1):
        oa, ob = digits[g], digits[g + 1]
        yield None, ks + (ob - oa) * d.places[g] + (oa - ob) * d.places[g + 1], g, g + 1


def _adjacent_relabels(d: DomainIndex, ks: np.ndarray) -> Iterator[tuple]:
    """Alternatives g and g+1 exchange labels in every ordering."""
    digits = [d.digit(i, ks) for i in range(d.n)]
    relabel = d.adjacent_relabel_table
    for g in range(d.m - 1):
        v = np.zeros(len(ks), dtype=np.int64)
        for i in range(d.n):
            v += relabel[g, digits[i]].astype(np.int64) * d.places[i]
        yield None, v, g, g + 1


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


def violation_mask(d: DomainIndex, axiom: str, ks: np.ndarray, gu: np.ndarray,
                   value_at: Callable[[np.ndarray | None, np.ndarray], np.ndarray], *,
                   both_ways: bool = False) -> np.ndarray:
    """Per row of ``ks`` (choice sets ``gu``), whether ``axiom`` is violated
    there; ``value_at(rows, v)`` gives the choice sets at the targets ``v`` of
    the moves out of those rows of ``ks`` (None: every row).

    Forward, a row is flagged when a constraint from u to a neighbour fails.
    ``both_ways`` also flags constraints from a neighbour back to u, which,
    as every move family is an involution, are all constraints touching u.
    """
    if axiom == "pareto":
        return (gu & ~d.pareto_table[ks]) != 0
    if axiom == "tops-in":
        return (d.tops_table[ks] & ~gu) != 0
    moves, bad = _EDGES[axiom]
    viol = np.zeros(len(ks), dtype=bool)
    for rows, v, a, b in moves(d, ks):
        g = gu if rows is None else gu[rows]
        gv = value_at(rows, v)
        hit = bad(g, gv, a, b)
        if both_ways:
            hit |= bad(gv, g, b, a)
        if rows is None:
            viol |= hit
        else:
            viol[rows] |= hit
        del rows, v, a, b, g, gv, hit  # hold none of them while the next move is built
    return viol


def _scan_domain(d: DomainIndex, values: np.ndarray, axiom: str, workers: int) -> int:
    """Smallest violating profile index over the whole domain, or -1.

    Chunks are swept in ascending order; with several workers they run in
    fixed waves and the wave minimum is taken, so the result (and everything
    derived from it) is identical for any worker count.
    """
    def first_hit(chunk: tuple[int, int]) -> int:
        lo, hi = chunk
        viol = violation_mask(d, axiom, np.arange(lo, hi), values[lo:hi],
                              lambda rows, v: values[v])
        idx = int(viol.argmax())
        return lo + idx if viol[idx] else -1

    chunks = list(index_chunks(d.total))
    if workers <= 1:
        for chunk in chunks:
            hit = first_hit(chunk)
            if hit >= 0:
                return hit
        return -1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for wave_start in range(0, len(chunks), workers):
            hits = [h for h in pool.map(first_hit, chunks[wave_start:wave_start + workers])
                    if h >= 0]
            if hits:
                return min(hits)
    return -1


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


def _first_violation(axiom: str, G: Correspondence, d: DomainIndex,
                     *, wide: bool = False) -> AxiomReport:
    """The oracle's report: a plain loop over profiles in index order."""
    for k in range(d.total):
        for witness in _violations(axiom, G, d, d.profile(k), wide=wide):
            return AxiomReport(axiom, "fail", witness, k + 1)
    return AxiomReport(axiom, "pass", None, d.total)


# ---------------------------------------------------------------------------
# Public checkers


def check_axiom(axiom: str, G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """Sweep the whole domain for violations of one axiom.

    On failure ``profiles_scanned`` counts the profiles confirmed up to and
    including the witness; on a pass it is the domain size.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r} (choose from {', '.join(AXIOMS)})")
    values = G.value_table(d)
    hit = _scan_domain(d, values, axiom, workers)
    if hit < 0:
        return AxiomReport(axiom, "pass", None, d.total)
    witness = next(_violations(axiom, G, d, d.profile(hit)), None)
    if witness is None:  # pragma: no cover - kernel/object disagreement is a bug
        raise AssertionError(f"sweep flagged profile {hit} but no {axiom} violation was found there")
    return AxiomReport(axiom, "fail", witness, hit + 1)


def check_pareto_condition(G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """No choice set may contain a dominated alternative."""
    return check_axiom("pareto", G, d, workers=workers)


def check_tops_in(G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """Every individual's top choice is chosen."""
    return check_axiom("tops-in", G, d, workers=workers)


def check_balancedness(G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """Transposing an inverted adjacent pair for both individuals leaves the
    choice set unchanged."""
    return check_axiom("balancedness", G, d, workers=workers)


def check_monotonicity(G: Correspondence, d: DomainIndex, *, workers: int = 1,
                       multi_step: bool = False) -> AxiomReport:
    """Raising a chosen alternative keeps it chosen and admits nothing new.

    One-step raises are checked by default; a raise of any distance is a
    composition of one-step raises, so the verdicts agree.  ``multi_step``
    switches to the explicit all-distances check (slow, small domains only).
    """
    if not multi_step:
        return check_axiom("monotonicity", G, d, workers=workers)
    return _first_violation("monotonicity", G, d, wide=True)


def check_weak_monotonicity(G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """Raising a chosen alternative keeps it chosen."""
    return check_axiom("weak-monotonicity", G, d, workers=workers)


def check_strong_stability(G: Correspondence, d: DomainIndex, *, workers: int = 1) -> AxiomReport:
    """Lowering a chosen alternative just below its neighbour changes the
    choice set by at most dropping it or adding the neighbour, never both."""
    return check_axiom("strong-stability", G, d, workers=workers)


def check_anonymity(G: Correspondence, d: DomainIndex, *, workers: int = 1,
                    exhaustive: bool = False) -> AxiomReport:
    """Choice sets are unchanged under permutations of the individuals.

    The default sweep checks the adjacent-swap generators at every profile,
    which is equivalent to invariance under the whole permutation group;
    ``exhaustive`` checks every permutation explicitly (slow path, used to
    cross-validate the generator argument).
    """
    if not exhaustive:
        return check_axiom("anonymity", G, d, workers=workers)
    return _first_violation("anonymity", G, d, wide=True)


def check_neutrality(G: Correspondence, d: DomainIndex, *, workers: int = 1,
                     exhaustive: bool = False) -> AxiomReport:
    """Choice sets follow relabelings of the alternatives."""
    if not exhaustive:
        return check_axiom("neutrality", G, d, workers=workers)
    return _first_violation("neutrality", G, d, wide=True)


def check_axioms(G: Correspondence, d: DomainIndex, axioms: Sequence[str] = AXIOMS,
                 *, workers: int = 1) -> list[AxiomReport]:
    return [check_axiom(a, G, d, workers=workers) for a in axioms]


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
    """Every requested axiom checked against every rule, in a fixed order."""
    reports: dict[str, dict[str, AxiomReport]] = {}
    for G in rules:
        reports[G.name] = {a: check_axiom(a, G, d, workers=workers) for a in axioms}
    return MatrixResult(d.m, d.n, tuple(G.name for G in rules), tuple(axioms), reports)


# ---------------------------------------------------------------------------
# Slow reference paths


def check_axiom_reference(axiom: str, G: Correspondence, d: DomainIndex) -> AxiomReport:
    """Object-level re-implementation of :func:`check_axiom`: a plain loop
    over profiles with no vectorization.  Small domains only."""
    return _first_violation(axiom, G, d)


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
    if report.axiom not in _ORACLE:
        raise ValueError(f"unknown axiom {report.axiom!r}")
    try:
        u = d.parse(w.profiles[0])
    except (IndexError, ValueError):  # no profile, or not one of this domain's
        return False
    return any(w in _violations(report.axiom, G, d, u, wide=wide) for wide in (False, True))
