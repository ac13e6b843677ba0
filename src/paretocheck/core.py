"""Core types for strict-preference domains: alternatives, orderings,
profiles, profile moves, and dense indexing of the full profile domain;
and the axiom and theorem lists that every module works in.

Alternatives are integers ``0..m-1`` with single-character display labels.
An ordering is a tuple of alternatives from top (rank 1) to bottom (rank m);
a profile is one ordering per individual.  A choice set is an m-bit mask
over alternatives; :meth:`Universe.mask_text` spells it out as labels.

The full domain over m alternatives and n individuals has ``(m!)**n``
profiles.  :class:`DomainIndex` fixes the canonical enumeration: orderings
are sorted lexicographically by their rank sequence, and a profile's index
is the base-m! number whose digits are the per-individual ordering indices,
individual 1 most significant.  Every sweep, witness, and search result is
reported in this order, which makes output reproducible across runs and
worker counts.

All operations here are pure functions on immutable values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property, reduce
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

MAX_ALTERNATIVES = 8
MAX_INDIVIDUALS = 6

_LABEL_POOL = "abcdefgh"

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

#: An ordering is a tuple of alternative indices, rank 1 first.
Ordering = tuple[int, ...]

#: A rule as a fold: ``f(fold)`` gives its choice-set masks from reductions
#: of per-ordering columns, the same for `DomainIndex.tabulate` over
#: the whole domain and `DomainIndex.evaluate` at some profiles.
Fold = Callable[[Callable[..., np.ndarray]], np.ndarray]


class Record:
    """A result record: a dataclass whose JSON is its fields in declaration
    order, a nested record as an object and a tuple as a list."""

    def to_json(self) -> dict:
        return {f.name: _json(getattr(self, f.name)) for f in fields(self)}


def _json(value: object) -> object:
    if isinstance(value, Record):
        return value.to_json()
    if not isinstance(value, tuple):
        return value
    if value and isinstance(value[0], Record):
        return [v.to_json() for v in value]
    if value and isinstance(value[0], tuple):
        return list(map(list, value))  # one call per member would slow a large search's JSON
    return list(value)


@dataclass(frozen=True)
class Universe:
    """The alternative set; position in ``labels`` is the alternative index."""

    labels: str

    def __post_init__(self) -> None:
        if not 2 <= len(self.labels) <= MAX_ALTERNATIVES:
            raise ValueError(
                f"supported sizes are 2..{MAX_ALTERNATIVES} alternatives, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"alternative labels must be distinct: {self.labels!r}")

    @classmethod
    def of_size(cls, m: int, labels: str | None = None) -> "Universe":
        """The universe of m alternatives, held to the bound, over ``labels``,
        which must be m labels long, or over the default labels when None:
        'a' for alternative 0, 'b' for 1, and so on."""
        if not 2 <= m <= MAX_ALTERNATIVES:
            raise ValueError(f"supported sizes are 2..{MAX_ALTERNATIVES} alternatives, got {m}")
        if labels is not None and len(labels) != m:
            raise ValueError(f"labels {labels!r} do not match m={m}")
        return cls(_LABEL_POOL[:m] if labels is None else labels)

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def index(self, label: str) -> int:
        """Index of a single-character label; anything else raises ValueError."""
        if len(label) != 1 or label not in self.labels:
            raise ValueError(f"unknown alternative {label!r} (universe {self.labels!r})")
        return self.labels.index(label)

    def label(self, x: int) -> str:
        return self.labels[x]

    def mask_members(self, mask: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.m) if mask >> x & 1)

    def mask_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[x] for x in self.mask_members(mask))

    def mask_text(self, mask: int) -> str:
        return "".join(self.mask_labels(mask))

    def mask_from_labels(self, text: str) -> int:
        mask = 0
        for c in text:
            mask |= 1 << self.index(c)
        return mask


@dataclass(frozen=True)
class Profile:
    """One strict ordering per individual, all over the same universe."""

    universe: Universe
    orderings: tuple[Ordering, ...]

    def __post_init__(self) -> None:
        if len(self.orderings) < 2:
            raise ValueError("profiles need at least 2 individuals")
        expected = tuple(range(self.universe.m))
        for i, r in enumerate(self.orderings):
            if tuple(sorted(r)) != expected:
                raise ValueError(f"ordering {i + 1} is not a permutation of the universe: {r}")

    @property
    def m(self) -> int:
        return self.universe.m

    @property
    def n(self) -> int:
        return len(self.orderings)

    def top(self, i: int) -> int:
        return self.orderings[i][0]

    def __str__(self) -> str:
        lbl = self.universe.labels
        return "|".join("".join(lbl[x] for x in r) for r in self.orderings)


class ParseError(ValueError):
    """Profile text did not parse; ``position`` is the offending character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_profile(text: str, universe: Universe | None = None) -> Profile:
    """Parse ``"xyz|yzx|zxy"`` into a Profile.

    Individuals are separated by ``|``; each ordering is written top to
    bottom as concatenated single-character labels.  Whitespace around ``|``
    is ignored.  When no universe is given, one is inferred with alternative
    indices assigned by order of first appearance in the text.
    """
    if universe is None:
        seen: dict[str, int] = {}
        for c in text:
            if c not in "| \t" and c not in seen:
                seen[c] = len(seen)
        try:
            universe = Universe("".join(seen))
        except ValueError as exc:
            raise ParseError(str(exc), 0) from None

    orderings: list[Ordering] = []
    current: list[int] = []
    used: set[int] = set()

    def close(end: int) -> None:
        if len(current) != universe.m:
            raise ParseError(f"ordering has {len(current)} of {universe.m} alternatives", end)
        orderings.append(tuple(current))
        current.clear()
        used.clear()

    for pos, c in enumerate(text):
        if c in " \t":
            continue
        if c == "|":
            close(pos)
            continue
        idx = universe.labels.find(c)
        if idx < 0:
            raise ParseError(f"unknown alternative {c!r} (universe {universe.labels!r})", pos)
        if idx in used:
            raise ParseError(f"alternative {c!r} repeated within one ordering", pos)
        used.add(idx)
        current.append(idx)
    close(len(text))

    if len(orderings) < 2:
        raise ParseError("profiles need at least 2 individuals", len(text))
    return Profile(universe, tuple(orderings))


# ---------------------------------------------------------------------------
# Dominance


def pareto_dominates(u: Profile, x: int, y: int) -> bool:
    """True iff every individual ranks ``x`` above ``y`` at ``u``."""
    if x == y:
        raise ValueError("dominance is defined for distinct alternatives")
    return all(r.index(x) < r.index(y) for r in u.orderings)


# ---------------------------------------------------------------------------
# One-profile moves


class TranspositionSite(NamedTuple):
    """An adjacent pair inverted between two individuals.

    ``x`` is immediately above ``y`` for individual ``i`` and ``y`` is
    immediately above ``x`` for individual ``j`` (0-based individuals).
    """

    x: int
    y: int
    i: int
    j: int


def _swap_adjacent(r: Ordering, p: int) -> Ordering:
    return r[:p] + (r[p + 1], r[p]) + r[p + 2 :]


def transposition_sites(u: Profile) -> tuple[TranspositionSite, ...]:
    """All transposition sites of ``u``, one per unordered individual pair per
    unordered alternative pair.

    The orientation is canonical: ``x`` is the alternative ranked higher by
    the first-listed individual.  Sites are emitted in a deterministic order:
    by individual pair ``(i, j)`` with ``i < j``, then by the position of
    ``x`` in ``u(i)``.
    """
    sites: list[TranspositionSite] = []
    positions = []
    for r in u.orderings:
        pos = [0] * u.m
        for p, a in enumerate(r):
            pos[a] = p
        positions.append(pos)
    for i in range(u.n - 1):
        ri = u.orderings[i]
        for j in range(i + 1, u.n):
            pj = positions[j]
            for p in range(u.m - 1):
                x, y = ri[p], ri[p + 1]
                if pj[x] == pj[y] + 1:  # y immediately above x for j
                    sites.append(TranspositionSite(x, y, i, j))
    return tuple(sites)


def apply_transposition(u: Profile, s: TranspositionSite) -> Profile:
    """Swap the adjacent pair ``(x, y)`` in both individuals of the site."""
    x, y, i, j = s
    if i == j or not (0 <= i < u.n and 0 <= j < u.n):
        raise ValueError(f"invalid site individuals ({i}, {j})")
    ri, rj = u.orderings[i], u.orderings[j]
    p, q = ri.index(x), rj.index(y)
    if p + 1 >= u.m or ri[p + 1] != y:
        raise ValueError(f"site invalid: {u.universe.label(x)} is not immediately above "
                         f"{u.universe.label(y)} for individual {i + 1}")
    if q + 1 >= u.m or rj[q + 1] != x:
        raise ValueError(f"site invalid: {u.universe.label(y)} is not immediately above "
                         f"{u.universe.label(x)} for individual {j + 1}")
    new = list(u.orderings)
    new[i] = _swap_adjacent(ri, p)
    new[j] = _swap_adjacent(rj, q)
    return Profile(u.universe, tuple(new))


def raise_one(u: Profile, i: int, x: int) -> Profile:
    """Raise ``x`` one rank in individual ``i``'s ordering."""
    r = u.orderings[i]
    p = r.index(x)
    if p == 0:
        raise ValueError(f"{u.universe.label(x)} is already at the top for individual {i + 1}")
    return lower_one(u, i, r[p - 1])


def lower_one(u: Profile, i: int, x: int) -> Profile:
    """Lower ``x`` one rank in individual ``i``'s ordering."""
    r = u.orderings[i]
    p = r.index(x)
    if p == u.m - 1:
        raise ValueError(f"{u.universe.label(x)} is already at the bottom for individual {i + 1}")
    new = list(u.orderings)
    new[i] = _swap_adjacent(r, p)
    return Profile(u.universe, tuple(new))


# ---------------------------------------------------------------------------
# Symmetries


def _check_permutation(perm: Sequence[int], size: int, what: str) -> None:
    if tuple(sorted(perm)) != tuple(range(size)):
        raise ValueError(f"{what} permutation must rearrange 0..{size - 1}, got {tuple(perm)}")


def apply_alternative_permutation(u: Profile, theta: Sequence[int]) -> Profile:
    """Relabel alternatives: alternative ``a`` becomes ``theta[a]`` everywhere."""
    _check_permutation(theta, u.m, "alternative")
    return Profile(u.universe, tuple(tuple(theta[a] for a in r) for r in u.orderings))


def apply_individual_permutation(u: Profile, rho: Sequence[int]) -> Profile:
    """Reorder individuals: position ``i`` receives ``u(rho[i])``."""
    _check_permutation(rho, u.n, "individual")
    return Profile(u.universe, tuple(u.orderings[rho[i]] for i in range(u.n)))


def permute_mask(mask: int, theta: Sequence[int]) -> int:
    """Apply an alternative relabeling to a choice-set mask."""
    out = 0
    for a, b in enumerate(theta):
        if mask >> a & 1:
            out |= 1 << b
    return out


# ---------------------------------------------------------------------------
# Domain enumeration


def enumerate_orderings(m: int) -> tuple[Ordering, ...]:
    """All m! orderings of ``m`` alternatives, lexicographic by rank sequence."""
    Universe.of_size(m)  # holds m to the bound
    return tuple(itertools.permutations(range(m)))


_CHUNK = 1 << 18


class DomainIndex:
    """Canonical enumeration of every profile over ``m`` alternatives and
    ``n`` individuals, plus the precomputed lookup tables used by sweeps.

    The heavy tables are built lazily and cached; instances are meant to be
    shared.  All tables are read-only after construction, so a DomainIndex
    can be used concurrently from any number of workers.
    """

    def __init__(self, m: int, n: int, labels: str | None = None):
        self.universe = Universe.of_size(m, labels)
        if not 2 <= n <= MAX_INDIVIDUALS:
            raise ValueError(f"supported sizes are 2..{MAX_INDIVIDUALS} individuals, got {n}")
        self.m = m
        self.n = n
        self.order_count = math.factorial(m)
        self.total = self.order_count ** n
        if self.total > np.iinfo(np.int64).max:
            raise ValueError(f"the ({m},{n}) domain has {self.total} profiles, "
                             "and profile indices overflow int64")
        #: place value of individual i's digit (individual 1 most significant)
        self.places = tuple(self.order_count ** (n - 1 - i) for i in range(n))

    def __repr__(self) -> str:  # pragma: no cover
        return f"DomainIndex(m={self.m}, n={self.n}, labels={self.universe.labels!r})"

    # -- ordering tables ---------------------------------------------------

    @cached_property
    def orderings(self) -> tuple[Ordering, ...]:
        return enumerate_orderings(self.m)

    @cached_property
    def _ordering_index(self) -> dict[Ordering, int]:
        return {r: o for o, r in enumerate(self.orderings)}

    @cached_property
    def ordering_table(self) -> np.ndarray:
        """(m!, m) int8: alternative at each rank of each ordering."""
        return np.array(self.orderings, dtype=np.int8)

    @cached_property
    def rank_table(self) -> np.ndarray:
        """(m!, m) int8: 0-based rank position of each alternative."""
        tbl = self.ordering_table
        out = np.empty_like(tbl)
        rows = np.arange(tbl.shape[0])[:, None]
        out[rows, tbl] = np.arange(self.m, dtype=np.int8)[None, :]
        return out

    @cached_property
    def above_table(self) -> np.ndarray:
        """(m!, m) uint8: mask of alternatives ranked above each alternative
        (m <= 8, so a mask fits)."""
        tbl = self.ordering_table.view(np.uint8)
        count = tbl.shape[0]
        out = np.zeros((count, self.m), dtype=np.uint8)
        rows = np.arange(count)
        cum = np.zeros(count, dtype=np.uint8)
        for p in range(self.m):
            col = tbl[:, p]
            out[rows, col] = cum
            cum = cum | (np.uint8(1) << col)
        return out

    @cached_property
    def swap_table(self) -> np.ndarray:
        """(m!, m-1) int32: ordering index after swapping ranks p and p+1."""
        identity = tuple(range(self.m))
        # row p: the rank that each rank of the swapped ordering is read from
        ranks = np.array([_swap_adjacent(identity, p) for p in range(self.m - 1)])
        return self.sequence_index(lambda r: self.ordering_table[:, ranks[:, r]]).astype(np.int32)

    @cached_property
    def top_table(self) -> np.ndarray:
        """(m!,) int8: top-ranked alternative of each ordering."""
        return self.ordering_table[:, 0].copy()

    @cached_property
    def adjacent_relabel_table(self) -> np.ndarray:
        """(m-1, m!) int32: ordering index after relabeling a <-> a+1."""
        identity = tuple(range(self.m))
        return np.stack([self.relabel_action(_swap_adjacent(identity, g))
                         for g in range(self.m - 1)])

    @cached_property
    def unrelabel_masks(self) -> np.ndarray:
        """(m!, 2**m) uint8: each choice-set mask under the inverse of the
        relabelling ``rank_table[o]``, which takes alternative a to ordering
        o's alternative at rank a."""
        masks, orders = np.arange(1 << self.m), self.ordering_table.view(np.uint8)
        return reduce(np.bitwise_or, (((masks >> a) & 1).astype(np.uint8) << orders[:, a, None]
                                      for a in range(self.m)))

    @cached_property
    def adjacent_relabel_masks(self) -> np.ndarray:
        """(m-1, 2**m) uint8: choice-set mask after relabeling a <-> a+1, an
        involution named by ordering ``swap_table[0, a]``."""
        return self.unrelabel_masks[self.swap_table[0]]

    def memo(self, build: Callable[["DomainIndex"], object]) -> object:
        """``build(self)``, computed on first use and kept with the domain
        like the tables above: a fold or a move family, never a verdict."""
        kept = self.__dict__.setdefault("_memo", {})
        if build not in kept:
            kept[build] = build(self)
        return kept[build]

    def relabel_action(self, theta: Sequence[int] | np.ndarray) -> np.ndarray:
        """(m!,) int32: ordering index under an alternative relabeling, where
        alternative ``a`` becomes ``theta[a]``.  A (k, m) stack of relabelings
        gives their actions as a (k, m!) stack."""
        thetas = np.asarray(theta, dtype=np.intp)
        for t in thetas.reshape(-1, thetas.shape[-1]).tolist():
            _check_permutation(t, self.m, "alternative")
        return self.sequence_index(lambda p: thetas[..., self.ordering_table[:, p]]).astype(np.int32)

    @cached_property
    def _sequence_lookup(self) -> np.ndarray:
        """(m**(m-1),) uint16: each ordering's index, at its first m-1
        alternatives read as a base-m number (4.2 MB at m = 8)."""
        out = np.zeros(self.m ** (self.m - 1), dtype=np.uint16)
        key = np.ravel_multi_index(tuple(self.ordering_table.T[:-1]), (self.m,) * (self.m - 1))
        out[key] = np.arange(self.order_count)
        return out

    def sequence_index(self, at: Callable[[int], np.ndarray]) -> np.ndarray:
        """uint16 ordering indices of rank sequences given rank by rank:
        ``at(p)``, an array of any shape, holds each sequence's alternative at
        rank p for p < m-1, and the alternative left is at the bottom."""
        key = np.ravel_multi_index([at(p) for p in range(self.m - 1)], (self.m,) * (self.m - 1))
        return self._sequence_lookup[key]

    # -- profile indexing ---------------------------------------------------

    def ordering_index(self, r: Ordering) -> int:
        try:
            return self._ordering_index[tuple(r)]
        except KeyError:
            raise ValueError(f"not an ordering of this universe: {r}") from None

    def index_orderings(self, orderings: Sequence[Ordering]) -> int:
        if len(orderings) != self.n:
            raise ValueError(f"expected {self.n} orderings, got {len(orderings)}")
        k = 0
        for r in orderings:
            k = k * self.order_count + self.ordering_index(r)
        return k

    def index(self, u: Profile) -> int:
        if u.universe != self.universe:
            raise ValueError(f"profile universe {u.universe.labels!r} does not match "
                             f"domain universe {self.universe.labels!r}")
        return self.index_orderings(u.orderings)

    def profile(self, k: int) -> Profile:
        if not 0 <= k < self.total:
            raise ValueError(f"profile index {k} out of range [0, {self.total})")
        return Profile(self.universe, tuple(self.orderings[k // size % self.order_count]
                                            for size in self.places))

    @cached_property
    def _ordering_text(self) -> tuple[str, ...]:
        labels = self.universe.labels
        return tuple("".join(labels[x] for x in r) for r in self.orderings)

    def profile_text(self, k: int) -> str:
        """``str(self.profile(k))``, read off one label string per ordering."""
        if not 0 <= k < self.total:
            raise ValueError(f"profile index {k} out of range [0, {self.total})")
        text = self._ordering_text
        return "|".join(text[(k // size) % self.order_count] for size in self.places)

    def parse(self, text: str) -> Profile:
        u = parse_profile(text, self.universe)
        if u.n != self.n:
            raise ValueError(f"expected {self.n} individuals, got {u.n}")
        return u

    def digit(self, i: int, ks: np.ndarray) -> np.ndarray:
        """Ordering indices of individual ``i`` for an array of profile indices."""
        return (ks // self.places[i]) % self.order_count

    # -- orbit minima ----------------------------------------------------------

    def pivot_images(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each pivot individual i and each profile of ``ks``: the
        profile relabelled by theta_i, the relabelling that takes i's ordering
        to ordering 0, with its orderings sorted into ascending index order;
        and i's ordering o, which names theta_i as ``rank_table[o]``.  Both
        are (n, len(ks)).

        A relabelling fixes an orbit minimum up to a reordering of its
        individuals exactly when it is the theta_i of a pivot i whose image
        is the minimum itself."""
        digits = np.stack([self.digit(i, ks) for i in range(self.n)])
        ranks, starts = self.rank_table.ravel(), digits * self.m  # theta_i's row, flat
        # [j][i, k]: individual j's ordering at profile k, relabelled by theta_i
        rows = list(self.sequence_index(
            lambda p: ranks[starts + self.ordering_table[digits, p][:, None]]).astype(np.int64))
        for r in range(self.n):  # sort over j: odd-even transposition
            for j in range(r % 2, self.n - 1, 2):
                rows[j], rows[j + 1] = np.minimum(rows[j], rows[j + 1]), np.maximum(rows[j], rows[j + 1])
        return sum(row * place for row, place in zip(rows, self.places)), digits

    def canonical(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The smallest profile index in each S_m x S_n orbit of ``ks``, with
        the relabelling theta that takes each profile there, given as the
        ordering o with ``theta = rank_table[o]``.

        The minimum holds ordering 0, so its theta takes some individual's
        ordering to ordering 0, and its orderings ascend: it is the smallest
        of the :meth:`pivot_images`.  O(n**2 log n) per profile, with no
        enumeration of the group."""
        images, orders = self.pivot_images(ks)
        best, at = images.argmin(axis=0), np.arange(images.shape[1])
        return images[best, at], orders[best, at]

    @cached_property
    def orbit_minima(self) -> np.ndarray:
        """Ascending indices of the smallest profile of each S_m x S_n orbit.

        A minimum has individual 1 at ordering 0 (a relabelling takes any
        ordering there) and the other individuals' orderings non-decreasing
        (reordering them sorts the digits); of these C(m!+n-2, n-1)
        candidates, pivot 0's image is the candidate itself, so it is a
        minimum when no other pivot's image is smaller.  The candidates are
        filtered in runs of a few thousand."""
        ks = np.zeros(1, dtype=np.int64)
        last = np.zeros(1, dtype=np.int64)
        for i in range(1, self.n):
            # each row extends by every ordering from its last one up, in order
            reps = self.order_count - last
            starts = np.repeat(np.cumsum(reps) - reps, reps)
            last = np.repeat(last, reps) + np.arange(len(starts)) - starts
            ks = np.repeat(ks, reps) + last * self.places[i]
        return np.concatenate([run[~(self.pivot_images(run)[0][1:] < run).any(axis=0)]
                               for run in np.split(ks, range(4096, len(ks), 4096))])

    # -- whole-domain tables -------------------------------------------------

    def blocks(self) -> Iterator[tuple[int, tuple[slice, ...]]]:
        """The digit grid in blocks of about ``_CHUNK`` profiles, in profile
        order.

        A profile index is a base-m! number, so the domain is the grid
        ``(m!,) * n`` with individual 1 on the first axis.  A block fixes the
        orderings of the individuals before some individual k, takes a run of
        k's orderings and lets every later individual range freely; k is the
        first individual one of whose orderings covers at most ``_CHUNK``
        profiles (read at call time), so a run of several of them fills a
        block.  Yields ``(lo, index)``: ``index`` holds one slice per
        individual, the later ones ``slice(0, m!)``, so ``grid[index]`` is
        the block, and ``lo`` is its first profile.
        """
        count, places = self.order_count, self.places
        k = next(i for i, size in enumerate(places) if size <= _CHUNK or i == self.n - 1)
        step = max(1, _CHUNK // places[k])
        free = (slice(0, count),) * (self.n - 1 - k)
        for prefix in itertools.product(range(count), repeat=k):
            base = sum(o * size for o, size in zip(prefix, places))
            fixed = tuple(slice(o, o + 1) for o in prefix)
            for a in range(0, count, step):
                yield base + a * places[k], fixed + (slice(a, min(a + step, count)),) + free

    def on_axis(self, index: tuple[slice, ...], i: int, column: np.ndarray) -> np.ndarray:
        """Individual ``i``'s per-ordering ``column`` over the block at
        ``index``, shaped to broadcast along i's axis."""
        shape = [1] * self.n
        shape[i] = -1
        return column[index[i]].reshape(shape)

    def block_fold(self, index: tuple[slice, ...]) -> Callable[..., np.ndarray]:
        """The ``fold`` of :meth:`tabulate` over the block at ``index``."""
        def fold(op: np.ufunc, column: np.ndarray,
                 individuals: Sequence[int] = range(self.n)) -> np.ndarray:
            return reduce(op, (self.on_axis(index, i, column) for i in individuals))
        return fold

    def tabulate(self, f: Fold) -> np.ndarray:
        """(total,) uint8 whole-domain table, built as folds over the digit grid.

        The table is filled one block of :meth:`blocks` at a time.  ``f(fold)``
        returns a block's masks (any array broadcasting to the block);
        ``fold(op, column, individuals)`` reduces, with the ufunc ``op``, the
        per-ordering ``column`` of each individual in ``individuals`` (all by
        default), each broadcast along its individual's axis.  So no profile
        index or digit is computed, and nothing is gathered per profile.

        Raises ValueError when the table cannot be allocated.
        """
        try:
            out = np.empty(self.total, dtype=np.uint8)
        except MemoryError:
            raise ValueError(f"the ({self.m},{self.n}) domain has {self.total} profiles; "
                             f"a whole-domain table needs {self.total} bytes, "
                             "more than can be allocated") from None
        grid = out.reshape((self.order_count,) * self.n)
        for _, index in self.blocks():
            grid[index] = f(self.block_fold(index))
        return out

    def evaluate(self, f: Fold, ks: np.ndarray) -> np.ndarray:
        """(len(ks),) uint8: the masks of :meth:`tabulate`'s ``f`` at the
        profile indices ``ks`` alone.  Here ``fold`` reduces each individual's
        column gathered at its orderings in ``ks``."""
        digits = [self.digit(i, ks) for i in range(self.n)]

        def fold(op: np.ufunc, column: np.ndarray,
                 individuals: Sequence[int] = range(self.n)) -> np.ndarray:
            return reduce(op, (column[digits[i]] for i in individuals))
        out = np.empty(len(ks), dtype=np.uint8)
        out[...] = f(fold)
        return out

    @cached_property
    def pareto_table(self) -> np.ndarray:
        """(total,) uint8: mask of undominated alternatives at every profile."""
        table = self.tabulate(undominated(self))
        table.flags.writeable = False
        return table

    @cached_property
    def tops_table(self) -> np.ndarray:
        """(total,) uint8: mask of top-ranked alternatives at every profile."""
        table = self.tabulate(top_choices(self))
        table.flags.writeable = False
        return table


def undominated(d: DomainIndex) -> Fold:
    """The undominated alternatives: y is dominated where the alternatives
    every individual ranks above it meet."""
    above, full = d.above_table, np.uint8(d.universe.full_mask)

    def masks(fold: Callable[..., np.ndarray]) -> np.ndarray:
        mask = full
        for x in range(d.m):
            dominated = fold(np.bitwise_and, above[:, x]) != 0
            mask = mask ^ (dominated.view(np.uint8) << np.uint8(x))
        return mask
    return masks


def top_choices(d: DomainIndex) -> Fold:
    """The alternatives some individual ranks first."""
    bits = np.uint8(1) << d.top_table.view(np.uint8)
    return lambda fold: fold(np.bitwise_or, bits)
