"""Diagnostics and harnesses built on the checkers: the height and gap
measurements used by the characterization arguments, and exact
reproduction of the catalog examples.  The empirical theorem harness,
:func:`verify_theorem`, and its verdicts live in ``axioms``, and the
perturbation search, :func:`perturbation_search`, lives in ``search``.
Both are importable from here as well, where the benchmark calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator

import numpy as np

from .core import (
    AXIOMS,
    DomainIndex,
    Profile,
    Record,
    TranspositionSite,
    apply_transposition,
    lower_one,
    parse_profile,
    raise_one,
    top_choices,
    undominated,
)
from .rules import EXAMPLES, Correspondence, RuleCatalogEntry, make_rule, pareto_mask
from .axioms import check_axiom, replay_witness
# benchmarks/workloads.py calls verify_theorem and perturbation_search from here
from .axioms import verify_theorem
from .search import perturbation_search

# ---------------------------------------------------------------------------
# Height


@dataclass(frozen=True)
class HeightWitness(Record):
    profile: str
    rank: int          # h(v) for this profile
    individual: int    # 1-based; smallest individual holding the rank
    alternative: str   # the unchosen undominated alternative at that rank


@dataclass(frozen=True)
class HeightResult(Record):
    """Minimum, over all profiles with an unchosen undominated alternative,
    of the best rank such an alternative reaches.  ``height`` is absent when
    no profile has one (the rule then chooses every undominated alternative).
    """

    height: int | None
    profiles_with_unchosen: int
    witnesses: tuple[HeightWitness, ...]


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
class ExampleCheck(Record):
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExampleReport(Record):
    example: int
    ok: bool
    checks: tuple[ExampleCheck, ...]


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
