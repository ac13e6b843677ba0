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
overrides.  The witness is then rebuilt at the single offending profile with
the plain object-level ``_violation_*`` functions, an independent oracle
that keeps the two layers honest about what a violation is.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    DomainIndex,
    Profile,
    apply_alternative_permutation,
    apply_individual_permutation,
    apply_transposition,
    index_chunks,
    lower_one,
    parse_profile,
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
# yields, one move at a time, ``(ok, v, a, b)``: ``v`` holds the target
# indices, ``ok`` masks the rows where the move exists (None: all rows), and
# ``a`` sits immediately above ``b`` at u for the individual(s) that move (the
# symmetry moves give the two swapped individuals or labels).  Each family is an
# involution taking the edge (u, v, a, b) to (v, u, b, a).  An axiom is one
# generator plus an elementwise predicate ``bad(gu, gv, a, b)``.


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
    """Individuals i < j swap an adjacent pair they rank in opposite orders."""
    digits = [d.digit(i, ks) for i in range(d.n)]
    at, swp = _by_rank(d)
    pos = d.rank_table
    for i in range(d.n - 1):
        oi = digits[i]
        for j in range(i + 1, d.n):
            oj = digits[j]
            for p in range(d.m - 1):
                x = at[p][oi]
                y = at[p + 1][oi]
                pjy = pos[oj, y]
                ok = pos[oj, x] == pjy + 1  # y immediately above x for j
                if not ok.any():
                    continue
                pjy_safe = np.where(ok, pjy, 0)
                v = (ks
                     + (swp[p][oi] - oi) * d.places[i]
                     + (d.swap_table[oj, pjy_safe] - oj) * d.places[j])
                yield ok, v, x, y


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
                   value_at: Callable[[np.ndarray], np.ndarray], *,
                   both_ways: bool = False) -> np.ndarray:
    """Per row of ``ks`` (choice sets ``gu``), whether ``axiom`` is violated
    there; ``value_at`` gives the choice sets at move targets.

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
    for ok, v, a, b in moves(d, ks):
        gv = value_at(v)
        hit = bad(gu, gv, a, b)
        if both_ways:
            hit |= bad(gv, gu, b, a)
        if ok is not None:
            hit &= ok
        viol |= hit
        del ok, v, a, b, gv, hit  # hold none of them while the next move is built
    return viol


def _scan_domain(d: DomainIndex, values: np.ndarray, axiom: str, workers: int) -> int:
    """Smallest violating profile index over the whole domain, or -1.

    Chunks are swept in ascending order; with several workers they run in
    fixed waves and the wave minimum is taken, so the result (and everything
    derived from it) is identical for any worker count.
    """
    def first_hit(chunk: tuple[int, int]) -> int:
        lo, hi = chunk
        viol = violation_mask(d, axiom, np.arange(lo, hi), values[lo:hi], values.__getitem__)
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
# Witness construction (object level, canonical sub-order within a profile)


def _fmt(d: DomainIndex, mask: int) -> str:
    return d.universe.mask_text(mask)


def _violation_pareto(G: Correspondence, d: DomainIndex, u: Profile) -> Witness | None:
    gu = G.choose_mask(u)
    for x in range(d.m):
        for y in range(d.m):
            if x != y and gu >> y & 1 and pareto_dominates(u, x, y):
                return Witness(
                    profiles=(str(u),),
                    individuals=(),
                    alternatives=(d.universe.label(x), d.universe.label(y)),
                    observed=(_fmt(d, gu),),
                    expected=f"a choice set excluding {d.universe.label(y)}",
                )
    return None


def _violation_tops_in(G: Correspondence, d: DomainIndex, u: Profile) -> Witness | None:
    gu = G.choose_mask(u)
    for i in range(d.n):
        t = u.top(i)
        if not gu >> t & 1:
            return Witness(
                profiles=(str(u),),
                individuals=(i + 1,),
                alternatives=(d.universe.label(t),),
                observed=(_fmt(d, gu),),
                expected=f"a choice set containing {d.universe.label(t)}",
            )
    return None


def _violation_balancedness(G: Correspondence, d: DomainIndex, u: Profile) -> Witness | None:
    gu = G.choose_mask(u)
    for site in transposition_sites(u):
        v = apply_transposition(u, site)
        gv = G.choose_mask(v)
        if gv != gu:
            return Witness(
                profiles=(str(u), str(v)),
                individuals=(site.i + 1, site.j + 1),
                alternatives=(d.universe.label(site.x), d.universe.label(site.y)),
                observed=(_fmt(d, gu), _fmt(d, gv)),
                expected=f"the unchanged choice set {_fmt(d, gu)}",
            )
    return None


def _violation_monotonicity(G: Correspondence, d: DomainIndex, u: Profile,
                            *, weak: bool) -> Witness | None:
    gu = G.choose_mask(u)
    for i in range(d.n):
        r = u.orderings[i]
        for x in range(d.m):
            if not gu >> x & 1 or r[0] == x:
                continue
            v = raise_one(u, i, x)
            gv = G.choose_mask(v)
            ok = bool(gv >> x & 1) and (weak or (gv & ~gu) == 0)
            if not ok:
                lbl = d.universe.label(x)
                expected = (f"a choice set containing {lbl}" if weak
                            else f"a subset of {_fmt(d, gu)} containing {lbl}")
                return Witness(
                    profiles=(str(u), str(v)),
                    individuals=(i + 1,),
                    alternatives=(lbl,),
                    observed=(_fmt(d, gu), _fmt(d, gv)),
                    expected=expected,
                )
    return None


def _violation_strong_stability(G: Correspondence, d: DomainIndex, u: Profile) -> Witness | None:
    gu = G.choose_mask(u)
    for i in range(d.n):
        r = u.orderings[i]
        for x in range(d.m):
            if not gu >> x & 1 or r[-1] == x:
                continue
            y = r[r.index(x) + 1]
            v = lower_one(u, i, x)
            gv = G.choose_mask(v)
            allowed = [gu]
            if gu & ~(1 << x):
                allowed.append(gu & ~(1 << x))
            if not gu >> y & 1:
                allowed.append(gu | (1 << y))
            if gv not in allowed:
                return Witness(
                    profiles=(str(u), str(v)),
                    individuals=(i + 1,),
                    alternatives=(d.universe.label(x), d.universe.label(y)),
                    observed=(_fmt(d, gu), _fmt(d, gv)),
                    expected="one of: " + ", ".join(_fmt(d, a) for a in allowed),
                )
    return None


def _violation_anonymity(G: Correspondence, d: DomainIndex, u: Profile) -> Witness | None:
    gu = G.choose_mask(u)
    for g in range(d.n - 1):
        rho = list(range(d.n))
        rho[g], rho[g + 1] = rho[g + 1], rho[g]
        v = apply_individual_permutation(u, rho)
        gv = G.choose_mask(v)
        if gv != gu:
            return Witness(
                profiles=(str(u), str(v)),
                individuals=(g + 1, g + 2),
                alternatives=(),
                observed=(_fmt(d, gu), _fmt(d, gv)),
                expected=f"the unchanged choice set {_fmt(d, gu)}",
            )
    return None


def _violation_neutrality(G: Correspondence, d: DomainIndex, u: Profile) -> Witness | None:
    gu = G.choose_mask(u)
    for g in range(d.m - 1):
        theta = list(range(d.m))
        theta[g], theta[g + 1] = theta[g + 1], theta[g]
        v = apply_alternative_permutation(u, theta)
        gv = G.choose_mask(v)
        want = permute_mask(gu, theta)
        if gv != want:
            return Witness(
                profiles=(str(u), str(v)),
                individuals=(),
                alternatives=(d.universe.label(g), d.universe.label(g + 1)),
                observed=(_fmt(d, gu), _fmt(d, gv)),
                expected=f"the relabeled choice set {_fmt(d, want)}",
            )
    return None


_VIOLATIONS: dict[str, Callable[[Correspondence, DomainIndex, Profile], Witness | None]] = {
    "pareto": _violation_pareto,
    "tops-in": _violation_tops_in,
    "balancedness": _violation_balancedness,
    "monotonicity": lambda G, d, u: _violation_monotonicity(G, d, u, weak=False),
    "weak-monotonicity": lambda G, d, u: _violation_monotonicity(G, d, u, weak=True),
    "strong-stability": _violation_strong_stability,
    "anonymity": _violation_anonymity,
    "neutrality": _violation_neutrality,
}


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
    witness = _VIOLATIONS[axiom](G, d, d.profile(hit))
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
    return _check_monotonicity_multistep(G, d)


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
    return _check_anonymity_exhaustive(G, d)


def check_neutrality(G: Correspondence, d: DomainIndex, *, workers: int = 1,
                     exhaustive: bool = False) -> AxiomReport:
    """Choice sets follow relabelings of the alternatives."""
    if not exhaustive:
        return check_axiom("neutrality", G, d, workers=workers)
    return _check_neutrality_exhaustive(G, d)


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
    find = _VIOLATIONS[axiom]
    for k in range(d.total):
        witness = find(G, d, d.profile(k))
        if witness is not None:
            return AxiomReport(axiom, "fail", witness, k + 1)
    return AxiomReport(axiom, "pass", None, d.total)


def _check_anonymity_exhaustive(G: Correspondence, d: DomainIndex) -> AxiomReport:
    for k in range(d.total):
        u = d.profile(k)
        gu = G.choose_mask(u)
        for rho in itertools.permutations(range(d.n)):
            if rho == tuple(range(d.n)):
                continue
            v = apply_individual_permutation(u, rho)
            gv = G.choose_mask(v)
            if gv != gu:
                witness = Witness(
                    profiles=(str(u), str(v)),
                    individuals=tuple(i + 1 for i in rho),
                    alternatives=(),
                    observed=(_fmt(d, gu), _fmt(d, gv)),
                    expected=f"the unchanged choice set {_fmt(d, gu)}",
                )
                return AxiomReport("anonymity", "fail", witness, k + 1)
    return AxiomReport("anonymity", "pass", None, d.total)


def _check_neutrality_exhaustive(G: Correspondence, d: DomainIndex) -> AxiomReport:
    for k in range(d.total):
        u = d.profile(k)
        gu = G.choose_mask(u)
        for theta in itertools.permutations(range(d.m)):
            if theta == tuple(range(d.m)):
                continue
            v = apply_alternative_permutation(u, theta)
            gv = G.choose_mask(v)
            want = permute_mask(gu, theta)
            if gv != want:
                witness = Witness(
                    profiles=(str(u), str(v)),
                    individuals=(),
                    alternatives=tuple(d.universe.label(a) for a in theta),
                    observed=(_fmt(d, gu), _fmt(d, gv)),
                    expected=f"the relabeled choice set {_fmt(d, want)}",
                )
                return AxiomReport("neutrality", "fail", witness, k + 1)
    return AxiomReport("neutrality", "pass", None, d.total)


def _check_monotonicity_multistep(G: Correspondence, d: DomainIndex) -> AxiomReport:
    for k in range(d.total):
        u = d.profile(k)
        gu = G.choose_mask(u)
        for i in range(d.n):
            for x in range(d.m):
                if not gu >> x & 1:
                    continue
                v = u
                while v.orderings[i][0] != x:
                    v = raise_one(v, i, x)
                    gv = G.choose_mask(v)
                    if not (gv >> x & 1 and (gv & ~gu) == 0):
                        witness = Witness(
                            profiles=(str(u), str(v)),
                            individuals=(i + 1,),
                            alternatives=(d.universe.label(x),),
                            observed=(_fmt(d, gu), _fmt(d, gv)),
                            expected=(f"a subset of {_fmt(d, gu)} containing "
                                      f"{d.universe.label(x)}"),
                        )
                        return AxiomReport("monotonicity", "fail", witness, k + 1)
    return AxiomReport("monotonicity", "pass", None, d.total)


# ---------------------------------------------------------------------------
# Witness replay


def replay_witness(G: Correspondence, d: DomainIndex, report: AxiomReport) -> bool:
    """Re-check a failure report against the correspondence from scratch.

    Reparses the recorded profiles, rebuilds the recorded move, and confirms
    both the observed choice sets and the violation itself.  A witness whose
    move does not exist at its first profile does not replay.
    """
    w = report.witness
    if report.passed or w is None:
        return report.passed and w is None
    if not all(1 <= i <= d.n for i in w.individuals):
        return False
    uni = d.universe
    u = parse_profile(w.profiles[0], uni)
    gu = G.choose_mask(u)
    if _fmt(d, gu) != w.observed[0]:
        return False
    axiom = report.axiom

    if axiom == "pareto":
        x, y = (uni.index(a) for a in w.alternatives)
        return pareto_dominates(u, x, y) and bool(gu >> y & 1)

    if axiom == "tops-in":
        t = uni.index(w.alternatives[0])
        i = w.individuals[0] - 1
        return u.top(i) == t and not gu >> t & 1

    # Remaining axioms record a second profile produced by a specific move.
    v = parse_profile(w.profiles[1], uni)
    gv = G.choose_mask(v)
    if _fmt(d, gv) != w.observed[1]:
        return False

    if axiom == "balancedness":
        from .core import TranspositionSite

        x, y = (uni.index(a) for a in w.alternatives)
        i, j = (k - 1 for k in w.individuals)
        try:
            moved = apply_transposition(u, TranspositionSite(x, y, i, j))
        except ValueError:  # no such transposition at u
            return False
        return moved == v and gv != gu

    if axiom in ("monotonicity", "weak-monotonicity"):
        x = uni.index(w.alternatives[0])
        i = w.individuals[0] - 1
        raised = [u]  # v is x raised t >= 1 ranks (t > 1 from the multi-step check)
        while raised[-1].orderings[i][0] != x:
            raised.append(raise_one(raised[-1], i, x))
        if v not in raised[1:] or not gu >> x & 1:
            return False
        ok = bool(gv >> x & 1) and (axiom == "weak-monotonicity" or (gv & ~gu) == 0)
        return not ok

    if axiom == "strong-stability":
        x, y = (uni.index(a) for a in w.alternatives)
        i = w.individuals[0] - 1
        r = u.orderings[i]
        p = r.index(x)
        if not gu >> x & 1 or p == d.m - 1 or r[p + 1] != y or lower_one(u, i, x) != v:
            return False
        allowed = {gu}
        if gu & ~(1 << x):
            allowed.add(gu & ~(1 << x))
        if not gu >> y & 1:
            allowed.add(gu | (1 << y))
        return gv not in allowed

    if axiom == "anonymity":
        rho = list(range(d.n))
        if len(w.individuals) == 2:
            a, b = (k - 1 for k in w.individuals)
            rho[a], rho[b] = rho[b], rho[a]
        else:
            rho = [k - 1 for k in w.individuals]
        return (sorted(rho) == list(range(d.n))
                and apply_individual_permutation(u, rho) == v and gv != gu)

    if axiom == "neutrality":
        if len(w.alternatives) == 2:
            theta = list(range(d.m))
            a, b = (uni.index(c) for c in w.alternatives)
            theta[a], theta[b] = theta[b], theta[a]
        else:
            theta = [uni.index(c) for c in w.alternatives]
        return (sorted(theta) == list(range(d.m))
                and apply_alternative_permutation(u, theta) == v
                and gv != permute_mask(gu, theta))

    raise ValueError(f"unknown axiom {axiom!r}")
