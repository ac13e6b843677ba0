"""Social choice correspondences: the Pareto rule, the comparison rules, and
the paper's example rules, all behind one evaluation interface.  One catalog
holds each named rule and each example with its sizes, its definition and
the axioms it is claimed to pass and to fail.

A :class:`Correspondence` maps every profile of its ``(m, n)`` domain to a
non-empty choice set.  It is either a named rule or a table: a default named
rule plus a finite map of per-profile overrides.  Named rules evaluate one
profile at a time through :meth:`Correspondence.choose`.  For the sweep
checkers each is also one fold over the orderings' columns, which gives
either its whole-domain value table (one uint8 mask per profile index) or
its masks at an array of profile indices alone.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    AXIOMS,
    DomainIndex,
    Fold,
    Ordering,
    ParseError,
    Profile,
    Universe,
    apply_alternative_permutation,
    apply_individual_permutation,
    parse_profile,
    top_choices,
    undominated,
)

# ---------------------------------------------------------------------------
# Single-profile rule evaluation (mask level)


def _above_masks(u: Profile) -> list[list[int]]:
    """Per individual, the mask of alternatives ranked above each alternative."""
    out = []
    for r in u.orderings:
        above = [0] * u.m
        cum = 0
        for a in r:
            above[a] = cum
            cum |= 1 << a
        out.append(above)
    return out


def pareto_mask(u: Profile) -> int:
    """Mask of undominated alternatives at ``u`` (pairwise dominance scan)."""
    above = _above_masks(u)
    mask = 0
    for y in range(u.m):
        common = above[0][y]
        for i in range(1, u.n):
            common &= above[i][y]
        if common == 0:
            mask |= 1 << y
    return mask


def tops_mask(u: Profile) -> int:
    mask = 0
    for r in u.orderings:
        mask |= 1 << r[0]
    return mask


def _argmax_mask(scores: Sequence[int]) -> int:
    best = max(scores)
    mask = 0
    for x, s in enumerate(scores):
        if s == best:
            mask |= 1 << x
    return mask


def borda_mask(u: Profile) -> int:
    scores = [0] * u.m
    for r in u.orderings:
        for p, a in enumerate(r):
            scores[a] += u.m - 1 - p
    return _argmax_mask(scores)


def plurality_mask(u: Profile) -> int:
    counts = [0] * u.m
    for r in u.orderings:
        counts[r[0]] += 1
    return _argmax_mask(counts)


def copeland_mask(u: Profile) -> int:
    """Maximizers of pairwise-majority wins minus losses (ties count 0)."""
    m, n = u.m, u.n
    prefer = [[0] * m for _ in range(m)]
    for r in u.orderings:
        for p in range(m):
            for q in range(p + 1, m):
                prefer[r[p]][r[q]] += 1
    scores = [0] * m
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            if 2 * prefer[x][y] > n:
                scores[x] += 1
            elif 2 * prefer[x][y] < n:
                scores[x] -= 1
    return _argmax_mask(scores)


def _drop_one_mask(u: Profile, t: int) -> int:
    base = pareto_mask(u)
    if base == 1 << t:
        return base
    return base & ~(1 << t) if base & (1 << t) else base


def pareto_set_by_elimination(u: Profile) -> int:
    """Independent route to the undominated set: repeatedly discard any
    alternative dominated by a still-standing alternative until none is;
    the mask of those left."""
    alive = set(range(u.m))
    changed = True
    while changed:
        changed = False
        for y in sorted(alive):
            for x in sorted(alive):
                if x != y and all(r.index(x) < r.index(y) for r in u.orderings):
                    alive.discard(y)
                    changed = True
                    break
    mask = 0
    for x in alive:
        mask |= 1 << x
    return mask


# ---------------------------------------------------------------------------
# Rules as folds over the orderings' columns (see ``core.Fold``); the Pareto
# and tops folds are ``core.undominated`` and ``core.top_choices``.


def _fold_all(d: DomainIndex) -> Fold:
    full = np.uint8(d.universe.full_mask)
    return lambda fold: full


def _fold_dictator(d: DomainIndex, i: int) -> Fold:
    bits = np.uint8(1) << d.top_table.view(np.uint8)
    return lambda fold: fold(np.bitwise_or, bits, (i,))


def _maximizers(scores: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the alternatives whose score is largest; ``scores[x]`` holds
    alternative x's."""
    best = reduce(np.maximum, scores)
    mask = np.uint8(0)
    for x, s in enumerate(scores):
        mask = mask | ((s == best).view(np.uint8) << np.uint8(x))
    return mask


def _fold_borda(d: DomainIndex) -> Fold:
    points = (d.m - 1 - d.rank_table).astype(np.int16)  # (m!, m)
    return lambda fold: _maximizers([fold(np.add, points[:, x]) for x in range(d.m)])


def _fold_plurality(d: DomainIndex) -> Fold:
    firsts = [(d.top_table == x).astype(np.int16) for x in range(d.m)]
    return lambda fold: _maximizers([fold(np.add, first) for first in firsts])


def _fold_copeland(d: DomainIndex) -> Fold:
    pairs = [(x, y, (d.rank_table[:, x] < d.rank_table[:, y]).astype(np.int16))
             for x, y in itertools.combinations(range(d.m), 2)]

    def scores(fold: Callable[..., np.ndarray]) -> np.ndarray:
        net: list = [0] * d.m
        for x, y, ahead in pairs:
            margin = np.sign(2 * fold(np.add, ahead) - d.n)  # +1: x beats y, -1: y beats x
            net[x] = net[x] + margin
            net[y] = net[y] - margin
        return _maximizers(net)
    return scores


def _fold_drop_one(d: DomainIndex, t: int) -> Fold:
    """The undominated set without t, unless t is all of it."""
    pareto, keep = undominated(d), np.uint8(~(1 << t) & 0xFF)

    def masks(fold: Callable[..., np.ndarray]) -> np.ndarray:
        base = pareto(fold)
        dropped = base & keep
        return np.where(dropped != 0, dropped, base)
    return masks


# ---------------------------------------------------------------------------
# Correspondences

_DICTATOR_RE = re.compile(r"dictator:(0|[1-9][0-9]*)")  # one spelling per index: no leading zero
_DROP_RE = re.compile(r"drop:(.)")


@dataclass(frozen=True)
class RuleCatalogEntry:
    """A catalog rule with the axioms it is claimed to pass and to fail on
    the ``claim_size`` domain, ``(m, n)``.

    A named rule (:data:`RULE_CATALOG`) is its own ``default``.  An example
    (:data:`EXAMPLES`) is ``default``, where ``{drop}`` stands for its last
    label, plus the overrides that ``overrides(universe, n)`` builds, over
    the alternatives ``labels`` (a, b, ... when None).  Its sizes are those
    of ``claim_size`` except the ones in ``free``, which default to 3 and
    take any value from ``least`` up.  ``deviation`` says where it differs
    from the undominated-set rule: at every override (``exact``), wherever
    its ``drop:`` default removes an alternative (``drop``), at the
    overrides where the tops are not the undominated set (``tops-diff``), or
    nowhere in particular (``none``).
    """

    name: str
    expected_axioms: frozenset[str]       # claimed to hold
    expected_failures: frozenset[str]     # claimed to fail
    default: str
    claim_size: tuple[int, int] = (3, 3)
    free: str = "mn"
    least: tuple[int, int] = (0, 0)
    labels: str | None = None
    overrides: Callable[[Universe, int], dict[tuple[Ordering, ...], int]] | None = None
    deviation: str = "none"


def _entry(name: str, passes: str, fails: str, default: str | None = None,
           **fields) -> RuleCatalogEntry:
    """A catalog entry with its claims as space-separated axiom names."""
    return RuleCatalogEntry(name, frozenset(passes.split()), frozenset(fails.split()),
                            default or name, **fields)


_ALL_BUT_PARETO = " ".join(AXIOMS[1:])

RULE_CATALOG: dict[str, RuleCatalogEntry] = {e.name: e for e in (
    _entry("pareto", "pareto " + _ALL_BUT_PARETO, ""),
    _entry("tops", "pareto tops-in monotonicity weak-monotonicity anonymity neutrality",
           "balancedness strong-stability"),
    _entry("borda", "pareto balancedness monotonicity weak-monotonicity anonymity neutrality",
           "tops-in strong-stability"),
    _entry("plurality", "pareto monotonicity weak-monotonicity anonymity neutrality",
           "tops-in balancedness strong-stability"),
    _entry("copeland", "pareto balancedness anonymity neutrality", "strong-stability"),
    _entry("dictator:1", "pareto neutrality", "strong-stability anonymity"),
    _entry("all", _ALL_BUT_PARETO, "pareto"),
)}


class Correspondence:
    """A total map from the profiles of one ``(m, n)`` domain to choice sets.

    ``default`` names a rule from the catalog; ``overrides`` maps specific
    profiles (as ordering tuples) to fixed choice-set masks.  When ``default``
    names an example, the example's overrides apply under these ones.
    Evaluation is pure and instances are immutable, so a correspondence can
    be shared freely between workers.
    """

    def __init__(self, universe: Universe, n: int, default: str = "pareto",
                 overrides: Mapping[tuple[Ordering, ...], int] | None = None,
                 name: str | None = None):
        self.universe = universe
        self.n = n
        self.default = default
        self._choose_base, self._fold, below = _resolve_base(default, universe, n)
        self.overrides: dict[tuple[Ordering, ...], int] = {}
        for key, value in (overrides or {}).items():
            if len(key) != n:
                raise ValueError(f"override profile has {len(key)} individuals, expected {n}")
            try:
                mask = operator.index(value)  # an int, a bool or a numpy integer, as an int
            except TypeError:
                mask = 0  # refused below
            if not 0 < mask <= universe.full_mask:
                raise ValueError(f"override value must be a non-empty subset mask, got {value}")
            self.overrides[key] = mask
        self.name = name or (default if not self.overrides else f"table({default})")
        self._overrides = below | self.overrides if below else self.overrides
        self._table: np.ndarray | None = None
        self._override_at: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def m(self) -> int:
        return self.universe.m

    def _check_profile(self, u: Profile) -> None:
        if u.universe != self.universe or u.n != self.n:
            raise ValueError(
                f"profile over {u.universe.labels!r} with n={u.n} does not match rule "
                f"{self.name!r} over {self.universe.labels!r} with n={self.n}"
            )

    def choose_mask(self, u: Profile) -> int:
        self._check_profile(u)
        hit = self._overrides.get(u.orderings)
        if hit is not None:
            return hit
        return self._choose_base(u)

    def choose(self, u: Profile) -> str:
        """The labels chosen at ``u``, e.g. ``'xz'``."""
        return self.universe.mask_text(self.choose_mask(u))

    def _check_domain(self, d: DomainIndex) -> None:
        if d.universe != self.universe or d.n != self.n:
            raise ValueError(
                f"domain {d!r} does not match rule {self.name!r} "
                f"over {self.universe.labels!r} with n={self.n}"
            )

    def value_table(self, d: DomainIndex) -> np.ndarray:
        """(total,) uint8 mask per profile index; cached."""
        self._check_domain(d)
        if self._table is None:
            table = d.tabulate(d.memo(self._fold))
            if self._overrides:
                ks, masks = self.override_index(d)
                table[ks] = masks
            table.flags.writeable = False
            self._table = table
        return self._table

    def values_at(self, d: DomainIndex, ks: np.ndarray) -> np.ndarray:
        """(len(ks),) uint8 masks at the profile indices ``ks``: read from the
        value table once it is built, and otherwise the default rule's fold
        evaluated at ``ks`` alone, with the overrides looked up among their
        sorted indices."""
        self._check_domain(d)
        if self._table is not None:
            return self._table[ks]
        out = d.evaluate(d.memo(self._fold), ks)
        if self._overrides:
            keys, masks = self.override_index(d)
            at = np.minimum(np.searchsorted(keys, ks), len(keys) - 1)
            hit = keys[at] == ks
            out[hit] = masks[at[hit]]
        return out

    def block_values(self, d: DomainIndex, lo: int, index: tuple[slice, ...]) -> np.ndarray:
        """uint8 masks of the block ``grid[index]`` of :meth:`DomainIndex.blocks`
        whose first profile is ``lo``, shaped like the block: read from the
        value table once it is built, and otherwise the default rule's fold
        over the block alone (kept with the domain), with the overrides in the
        block's run of profile indices patched in."""
        self._check_domain(d)
        if self._table is not None:
            return self._table.reshape((d.order_count,) * d.n)[index]
        out = np.empty([s.stop - s.start for s in index], dtype=np.uint8)
        out[...] = d.memo(self._fold)(d.block_fold(index))
        if self._overrides:
            keys, masks = self.override_index(d)
            start, stop = np.searchsorted(keys, (lo, lo + out.size))
            out.reshape(-1)[keys[start:stop] - lo] = masks[start:stop]
        return out

    def override_index(self, d: DomainIndex) -> tuple[np.ndarray, np.ndarray]:
        """The overridden profiles' indices on ``d``, ascending, and their
        masks, an example default's included; cached."""
        self._check_domain(d)
        if self._override_at is None:
            ks = np.array([d.index_orderings(o) for o in self._overrides], dtype=np.int64)
            order = np.argsort(ks)
            masks = np.array(list(self._overrides.values()), dtype=np.uint8)
            self._override_at = ks[order], masks[order]
        return self._override_at

    def table_json(self) -> dict:
        """JSON form of a table correspondence (see README for the schema)."""
        lbl = self.universe.labels
        return {
            "m": self.m,
            "n": self.n,
            "labels": lbl,
            "default": self.default,
            "overrides": {
                "|".join("".join(lbl[a] for a in r) for r in key): list(self.universe.mask_labels(mask))
                for key, mask in sorted(self.overrides.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Correspondence({self.name!r}, m={self.m}, n={self.n})"


def _resolve_base(name: str, universe: Universe, n: int) -> tuple[
        Callable[[Profile], int], Callable[[DomainIndex], Fold], dict]:
    """A default rule: its mask at one profile, its fold on a domain, and its
    overrides: an example's own, and none otherwise."""
    simple: dict[str, tuple[Callable[[Profile], int], Callable[[DomainIndex], Fold]]] = {
        "pareto": (pareto_mask, undominated),
        "tops": (tops_mask, top_choices),
        "borda": (borda_mask, _fold_borda),
        "plurality": (plurality_mask, _fold_plurality),
        "copeland": (copeland_mask, _fold_copeland),
        "all": (lambda u: u.universe.full_mask, _fold_all),
    }
    if name in simple:
        return (*simple[name], {})
    match = _DICTATOR_RE.fullmatch(name)
    if match:
        i = int(match.group(1)) - 1
        if not 0 <= i < n:
            raise ValueError(f"rule {name!r} needs an individual in 1..{n}")
        return (lambda u: 1 << u.orderings[i][0]), (lambda d: _fold_dictator(d, i)), {}
    match = _DROP_RE.fullmatch(name)
    if match:
        t = universe.index(match.group(1))
        return (lambda u: _drop_one_mask(u, t)), (lambda d: _fold_drop_one(d, t)), {}
    if name.startswith("example:"):
        inner = make_rule(name, universe.m, n)
        if inner.universe != universe:
            raise ValueError(f"rule {name!r} uses universe {inner.universe.labels!r}, "
                             f"not {universe.labels!r}")
        return inner._choose_base, inner._fold, inner._overrides
    raise ValueError(f"unknown rule {name!r}")


def make_rule(name: str, m: int | None = None, n: int | None = None,
              labels: str | None = None) -> Correspondence:
    """Build a catalog rule by name for an ``(m, n)`` domain.

    Examples, ``example:k`` or ``example:k-variant`` (their :data:`EXAMPLES`
    keys), carry their own default sizes, so ``m`` and ``n`` may be omitted
    for them; plain catalog rules require both.
    """
    entry = None
    if name.startswith("example:"):
        entry = EXAMPLES.get(name)
        k, _, variant = name.removeprefix("example:").partition("-")
        if entry is None:
            if not k.isdecimal():
                raise ValueError(f"unknown rule {name!r}")
            example_entries(k)  # refuses an unknown k
            raise ValueError(f"example {k} has no {variant!r} variant")
        sizes = []
        for axis, claim, given, least in zip("mn", entry.claim_size, (m, n), entry.least):
            size = given if given is not None else (3 if axis in entry.free else claim)
            if axis not in entry.free and size != claim:
                raise ValueError(f"example {k} is defined for {axis}={claim}, got {axis}={size}")
            if size < least:
                raise ValueError(f"example {k} needs {axis} >= {least}, got {axis}={size}")
            sizes.append(size)
        m, n = sizes
        labels = entry.labels if labels is None else labels
    elif m is None or n is None:
        raise ValueError(f"rule {name!r} needs explicit sizes m and n")
    universe = Universe.of_size(m, labels)
    if entry is None:
        return Correspondence(universe, n, default=name, name=name)
    try:
        overrides = entry.overrides(universe, n) if entry.overrides else None
    except ParseError:  # the overrides name the entry's own labels
        raise ValueError(f"example {k} is stated over the labels {entry.labels!r}, "
                         f"got {universe.labels!r}") from None
    return Correspondence(universe, n, default=entry.default.format(drop=universe.labels[-1]),
                          overrides=overrides, name=name)


# ---------------------------------------------------------------------------
# Example rules


def symmetry_orbit(universe: Universe, orderings: tuple[Ordering, ...]) -> tuple[tuple[Ordering, ...], ...]:
    """Closure of one profile under all alternative relabelings and all
    individual permutations, deduplicated, in deterministic order."""
    n = len(orderings)
    base = Profile(universe, orderings)
    seen: set[tuple[Ordering, ...]] = set()
    for theta in itertools.permutations(range(universe.m)):
        relabeled = apply_alternative_permutation(base, theta)
        for rho in itertools.permutations(range(n)):
            seen.add(apply_individual_permutation(relabeled, rho).orderings)
    return tuple(sorted(seen))


def tail_orderings_for_anchored_pair(universe: Universe) -> tuple[Ordering, ...]:
    """The six orderings of x, y, z, t with x above y and z above t, and w
    appended at the bottom (universe 'xyzwt')."""
    x, y, z, w, t = range(5)
    return tuple(perm + (w,) for perm in itertools.permutations((x, y, z, t))
                 if perm.index(x) < perm.index(y) and perm.index(z) < perm.index(t))


def _anchored_pool(universe: Universe) -> tuple[Ordering, ...]:
    """Example 9's eight orderings: the two anchors, then the six tail orderings."""
    return (parse_profile("xywzt|ztwxy", universe).orderings
            + tail_orderings_for_anchored_pair(universe))


def restricted_pair_profiles(universe: Universe, n: int) -> tuple[tuple[Ordering, ...], ...]:
    """The profiles of the anchored pool, sorted, in which each of the two
    anchors occurs exactly once and every other slot holds a tail ordering."""
    anchor1, anchor2, *_ = pool = _anchored_pool(universe)
    return tuple(sorted(u for u in itertools.product(pool, repeat=n)
                        if u.count(anchor1) == u.count(anchor2) == 1))


def _on(profiles: Callable[[Universe, int], Iterable[tuple[Ordering, ...]]],
        chosen: str | None = None) -> Callable[[Universe, int], dict]:
    """An example's override builder: ``build(universe, n)`` maps each
    profile of ``profiles(universe, n)``, an ordering tuple, to the mask of
    the labels ``chosen``, or of the profile's tops when None."""
    def build(universe: Universe, n: int) -> dict[tuple[Ordering, ...], int]:
        keys = profiles(universe, n)  # parsed first: a label not in the universe is a ParseError
        mask = universe.mask_from_labels(chosen) if chosen else None
        return {key: mask or tops_mask(Profile(universe, key)) for key in keys}
    return build


def _listed(*texts: str) -> Callable[[Universe, int], list]:
    """The profiles ``texts``."""
    return lambda universe, n: [parse_profile(text, universe).orderings for text in texts]


def _orbit(text: str) -> Callable[[Universe, int], tuple]:
    """The symmetry orbit of the profile ``text``."""
    return lambda universe, n: symmetry_orbit(universe, parse_profile(text, universe).orderings)


def _top_two_when_unanimous(universe: Universe, n: int) -> dict[tuple[Ordering, ...], int]:
    return {(r,) * n: (1 << r[0]) | (1 << r[1]) for r in itertools.permutations(range(universe.m))}


#: The paper's examples 1..11 and their variants, keyed by rule name.
EXAMPLES: dict[str, RuleCatalogEntry] = {e.name: e for e in (
    _entry("example:1", _ALL_BUT_PARETO, "pareto", "all"),
    _entry("example:2", "pareto", "tops-in", "plurality", claim_size=(2, 3), free="",
           labels="xy"),
    _entry("example:3", "pareto tops-in monotonicity weak-monotonicity anonymity neutrality",
           "balancedness strong-stability", "tops", least=(3, 0)),
    _entry("example:4", "pareto balancedness", "tops-in", "pareto", free="", labels="xyz",
           overrides=_on(_listed("xyz|yzx|zxy"), "x"), deviation="exact"),
    _entry("example:5", "pareto tops-in balancedness", "monotonicity", "pareto",
           claim_size=(4, 3), free="", labels="xyzw",
           overrides=_on(_listed("xyzw|ywxz|zwxy")), deviation="exact"),
    _entry("example:5-orbit", "pareto tops-in balancedness anonymity neutrality",
           "monotonicity", "pareto", claim_size=(4, 3), free="", labels="xyzw",
           overrides=_on(_orbit("xyzw|ywxz|zwxy")), deviation="exact"),
    _entry("example:6", "pareto balancedness monotonicity", "tops-in", "drop:{drop}",
           claim_size=(4, 3), free="n", labels="xyzw", deviation="drop"),
    _entry("example:7", "pareto tops-in monotonicity", "balancedness", "tops",
           claim_size=(4, 3), free="n", labels="xyzw"),
    _entry("example:8",
           "pareto tops-in balancedness monotonicity weak-monotonicity anonymity",
           "strong-stability neutrality", "pareto", claim_size=(5, 2), free="",
           labels="xyzwt", overrides=_on(_listed("xywzt|ztwxy", "ztwxy|xywzt"), "xz"),
           deviation="exact"),
    _entry("example:8-neutral", "pareto tops-in balancedness monotonicity "
           "weak-monotonicity anonymity neutrality", "strong-stability", "pareto",
           claim_size=(5, 2), free="", labels="xyzwt",
           overrides=_on(_orbit("xywzt|ztwxy")), deviation="exact"),
    _entry("example:9",
           "pareto tops-in balancedness monotonicity weak-monotonicity anonymity",
           "strong-stability", "pareto", claim_size=(5, 3), free="n", least=(0, 3),
           labels="xyzwt", overrides=_on(restricted_pair_profiles, "xz"), deviation="exact"),
    _entry("example:9-unrestricted", "pareto tops-in", "monotonicity", "pareto",
           claim_size=(5, 3), free="n", least=(0, 3), labels="xyzwt",
           overrides=_on(lambda universe, n: itertools.product(_anchored_pool(universe), repeat=n)),
           deviation="tops-diff"),
    _entry("example:10", "pareto tops-in monotonicity weak-monotonicity strong-stability",
           "balancedness", "pareto", free="", labels="abc",
           overrides=_on(_listed("cba|acb|abc", "cba|cab|abc"), "ac"), deviation="exact"),
    _entry("example:11", _ALL_BUT_PARETO, "pareto", "pareto", claim_size=(3, 2),
           overrides=_top_two_when_unanimous, deviation="exact"),
)}


def example_entries(k: int | str) -> list[RuleCatalogEntry]:
    """Example k's catalog entries, ``example:k`` and its variants
    ``example:k-…``, in catalog order; an unknown k is refused."""
    entries = [e for name, e in EXAMPLES.items()
               if name == f"example:{k}" or name.startswith(f"example:{k}-")]
    if not entries:
        raise ValueError(f"unknown example {k} (supported: 1..11)")
    return entries


# ---------------------------------------------------------------------------
# Table-correspondence files


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refusing a key given twice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"the key {key!r} is repeated in one object of the table file")
        data[key] = value
    return data


def load_table(source: str | dict) -> Correspondence:
    """Build a table correspondence from its JSON form.

    Schema: ``{"m": int, "n": int, "default": rule-name,
    "overrides": {"<profile>": ["x", "z"], ...}, "labels": "xyzw"?}``, each
    profile named once.  ``labels`` is optional; absent, labels come from
    the first override profile's order of appearance, or default to 'a',
    'b', ... .
    """
    data = json.loads(source, object_pairs_hook=_unique_keys) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise ValueError(f"a table file holds a JSON object, got {type(data).__name__}")
    try:
        m, n, default = data["m"], data["n"], data["default"]
    except KeyError as exc:
        raise ValueError(f"table file is missing the {exc.args[0]!r} field") from None
    if type(m) is not int or type(n) is not int:  # not a float, a string or a bool
        raise ValueError("the 'm' and 'n' fields are integers")
    raw, labels = data.get("overrides", {}), data.get("labels")
    for field, value, kind, what in (("default", default, str, "a rule name"),
                                     ("labels", labels, (str, type(None)), "a string"),
                                     ("overrides", raw, dict, "a map of profiles to choice sets")):
        if not isinstance(value, kind):
            raise ValueError(f"the {field!r} field is {what}, got {type(value).__name__}")
    if labels is None and raw:
        labels = "".join(dict.fromkeys(c for c in next(iter(raw)) if c not in "| \t"))
    universe = Universe.of_size(m, labels)
    overrides, keys = {}, {}
    for text, chosen in raw.items():
        if not (isinstance(chosen, str)
                or isinstance(chosen, list) and all(isinstance(c, str) for c in chosen)):
            raise ValueError(f"override {text!r}: a choice set is a list or string of "
                             f"labels, got {chosen!r}")
        profile = parse_profile(text, universe)
        if profile.n != n:
            raise ValueError(f"override profile {text!r} has {profile.n} individuals, expected {n}")
        first = keys.setdefault(profile.orderings, text)
        if first != text:
            raise ValueError(f"override keys {first!r} and {text!r} name one profile")
        overrides[profile.orderings] = universe.mask_from_labels("".join(chosen))
    return Correspondence(universe, n, default=default, overrides=overrides, name="table")
