"""Placement configurations: construction, enumeration, search.

A placement assigns each of N servers a subset of the K datasets under
a cache size M; generated and searched placements fill every cache with
exactly M datasets.  The two deterministic generators are the cyclic
baseline (circularly shifted index windows) and the aligned placement
(one monomial support per server, padded to M); the search is exact
only.  Every scan over placements goes through :class:`PlacementSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .anf import (
    BooleanFunctionANF,
    ParseError,
    dump_object,
    indices_from_mask,
    load_object,
    mask_from_indices,
)
from .influence import InfluenceValue, joint_influence_exact

# Steps one placement search may take; ordered rows one corollary scan may read.
ENUMERATION_BUDGET = 10**7

# The benchmark's tracer (bench/tracing.py) reads this name.
SEARCH_EXHAUSTIVE = "exhaustive"


class EnumerationBudgetError(RuntimeError):
    """A placement search or scan needs more work than its budget allows."""


def subset_label(mask: int) -> str:
    """A subset of datasets as its 1-based indices, e.g. "{1,4,7}"."""
    return "{" + ",".join(map(str, indices_from_mask(mask))) + "}"


@dataclass(frozen=True)
class PlacementConstraints:
    """Problem-size parameters for placement generation and search."""

    num_datasets: int
    num_servers: int
    cache_size: int

    def __post_init__(self) -> None:
        for name in ("num_datasets", "num_servers", "cache_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.cache_size > self.num_datasets:
            raise ValueError(
                f"cache size {self.cache_size} exceeds dataset count {self.num_datasets}"
            )


@dataclass(frozen=True)
class PlacementConfig:
    """The ordered server subsets of one placement, as bitmasks."""

    num_servers: int
    cache_size: int
    subset_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_servers != len(self.subset_masks):
            raise ValueError(
                f"{len(self.subset_masks)} subsets for {self.num_servers} servers"
            )
        for m in self.subset_masks:
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"bad subset mask {m!r}")

    @classmethod
    def from_indices(
        cls, cache_size: int, subsets: Sequence[Sequence[int]]
    ) -> "PlacementConfig":
        masks = tuple(mask_from_indices(s) for s in subsets)
        return cls(len(masks), cache_size, masks)

    def subsets_as_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(indices_from_mask(m) for m in self.subset_masks)

    def __str__(self) -> str:
        return "; ".join(map(subset_label, self.subset_masks))


def parse_placement(text: str) -> PlacementConfig:
    """Parse the JSON placement format: {"N": int, "M": int, "subsets": [[int,...],...]}."""
    obj = load_object(text, "placement", ("N", "M", "subsets"))
    n, m, subsets = obj["N"], obj["M"], obj["subsets"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"N" must be a positive integer, got {n!r}')
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParseError(f'"M" must be a positive integer, got {m!r}')
    if not isinstance(subsets, list) or any(not isinstance(s, list) for s in subsets):
        raise ParseError('"subsets" must be an array of arrays of indices')
    if len(subsets) != n:
        raise ParseError(f'"subsets" has {len(subsets)} entries for N={n}')
    masks = tuple(mask_from_indices(s) for s in subsets)
    for server, mask in enumerate(masks, 1):
        if mask.bit_count() > m:
            raise ParseError(
                f"server {server} holds {mask.bit_count()} datasets, more than M={m}"
            )
    return PlacementConfig(n, m, masks)


def placement_to_json(p: PlacementConfig) -> str:
    """Canonical serialization; subsets listed in server order, indices ascending."""
    obj = {
        "N": p.num_servers,
        "M": p.cache_size,
        "subsets": [list(s) for s in p.subsets_as_indices()],
    }
    return dump_object(obj)


def cyclic_placement(c: PlacementConstraints) -> PlacementConfig:
    """Baseline placement: server n holds an M-wide index window shifted by
    ceil(K/N) per server (the shift rule also covers K != N*M)."""
    k, n, m = c.num_datasets, c.num_servers, c.cache_size
    shift = -(-k // n)
    masks = []
    for server in range(n):
        start = server * shift
        masks.append(mask_from_indices([(start + j) % k + 1 for j in range(m)]))
    return PlacementConfig(n, m, tuple(masks))


def _padded(mask: int, target_size: int, prefer_mask: int, num_datasets: int) -> int:
    """Pad a subset up to target_size, preferred datasets first, then lowest index."""
    for pool in (prefer_mask & ~mask, ~mask):
        k = 1
        while mask.bit_count() < target_size and k <= num_datasets:
            bit = 1 << (k - 1)
            if pool & bit and not mask & bit:
                mask |= bit
            k += 1
    return mask


def aligned_placement(
    f: BooleanFunctionANF, c: PlacementConstraints
) -> PlacementConfig:
    """Support-aligned placement: server n caches the variables of monomial n.

    Non-constant monomials are taken in canonical order; the constant
    term needs no server.  Short subsets are padded to M, preferring
    datasets that appear in no monomial (padding with those never
    changes the subset's influence); only when none remain does padding
    fall back to the lowest-index datasets missing from the subset.
    Servers beyond the monomial count get padding-only subsets.
    """
    k, n, m = c.num_datasets, c.num_servers, c.cache_size
    monomials = f.non_constant_monomials
    if len(monomials) > n:
        raise ValueError(
            f"{len(monomials)} monomials cannot be aligned onto {n} servers"
        )
    unused = ((1 << k) - 1) & ~f.support_mask
    masks = []
    for server in range(n):
        mask = monomials[server] if server < len(monomials) else 0
        if mask.bit_count() > m:
            raise ValueError(
                f"monomial {indices_from_mask(mask)} has degree {mask.bit_count()} > M={m}"
            )
        masks.append(_padded(mask, m, unused, k))
    return PlacementConfig(n, m, tuple(masks))


def count_placements(c: PlacementConstraints) -> int:
    return comb(c.num_datasets, c.cache_size) ** c.num_servers


def twin_classes(f: BooleanFunctionANF) -> list[int]:
    """f's datasets grouped by the set of monomials they lie in, as masks.

    Swapping two datasets of one class (twins) maps every monomial to
    itself, so it leaves f unchanged.  The classes of datasets that lie
    in some monomial come first, by lowest dataset; the datasets in no
    monomial form the last class, which may be empty.
    """
    groups: dict[tuple[int, ...], int] = {}
    for b in range(f.num_datasets):
        key = tuple(i for i, mono in enumerate(f.monomials) if mono >> b & 1)
        groups[key] = groups.get(key, 0) | 1 << b
    free = groups.pop((), 0)
    return [*groups.values(), free]


class Budget:
    """The steps one placement search may take."""

    def __init__(self, limit: int):
        self.limit = limit
        self.steps = 0

    def charge(self, steps: int = 1, what: str = "placement search steps") -> None:
        """Spend ``steps``; past the limit, :class:`EnumerationBudgetError`."""
        self.steps += steps
        if self.steps > self.limit:
            raise EnumerationBudgetError(f"{what} exceed the enumeration budget {self.limit}")


class PlacementSpace:
    """Every strict placement of one grid, and f's influence over its subsets.

    Size-M subsets are numbered in lexicographic order of their index
    tuples, so a placement is a tuple of subset numbers whose
    lexicographic order is the placements' own.  Subset masks are built
    on first use: scanning the first rows of a huge grid costs only
    those rows.

    A subset's *type* is the number of datasets it takes from each twin
    class of f (:func:`twin_classes`).  Two subsets of one type differ by
    a permutation inside the classes, which leaves f unchanged, so they
    have the same influence: it is counted once per type, on the first
    subset of that type asked for.

    Types, and what a set of servers still needs of each class, are
    packed into one integer, ``width`` bits a class, class 0 lowest.  The
    top bit of each field is a guard that no count reaches (counts are at
    most K), so :meth:`take` is a few integer operations, and as
    2^width - 1 exceeds K, a packed count's remainder modulo 2^width - 1
    is its sum (:meth:`size`).
    """

    def __init__(self, c: PlacementConstraints, f: BooleanFunctionANF | None = None):
        self.constraints = c
        self.function = f
        self.num_subsets = comb(c.num_datasets, c.cache_size)
        # Combinations of the datasets' bits, in the order of their indices.
        self._combos = combinations([1 << b for b in range(c.num_datasets)], c.cache_size)
        self._masks: list[int] = []
        self.classes = [] if f is None else twin_classes(f)
        self._counts: dict[int, int] = {}  # influence count per type
        self._prefix: Sequence[int] | None = None
        self._prefix_missing = 0
        self._width = c.num_datasets.bit_length() + 1
        self._fold = (1 << self._width) - 1
        self._guards = sum(1 << (self._width * (cls + 1) - 1) for cls in range(len(self.classes)))
        # Per dataset bit, the packed type of that one dataset: :meth:`kind`
        # sums them.  A dataset in no class of f (past its K) counts nowhere.
        self._units = dict.fromkeys([1 << b for b in range(c.num_datasets)], 0)
        for i, cls in enumerate(self.classes):
            for b in indices_from_mask(cls):
                self._units[1 << (b - 1)] = 1 << (self._width * i)

    @property
    def size_text(self) -> str:
        """The ordered-placement count as "C(K,M)^N", too long to print as an integer."""
        c = self.constraints
        return f"C({c.num_datasets},{c.cache_size})^{c.num_servers}"

    def mask(self, i: int) -> int:
        masks = self._masks
        while len(masks) <= i:
            masks.append(sum(next(self._combos)))
        return masks[i]

    def kind(self, mask: int) -> int:
        """How many datasets of ``mask`` lie in each twin class of f, packed:
        a subset's type."""
        units, kind = self._units, 0
        while mask:
            low = mask & -mask
            kind += units[low]
            mask ^= low
        return kind

    def count(self, kind: int, cls: int) -> int:
        """The count of class ``cls`` in a packed type or need."""
        return kind >> (self._width * cls) & self._fold

    def first_class(self, left: int) -> int:
        """The first class with a nonzero count in a nonzero packed need."""
        return ((left & -left).bit_length() - 1) // self._width

    def size(self, left: int) -> int:
        """The sum of a packed need's counts."""
        return left % self._fold

    def take(self, left: int, kinds: Sequence[int]) -> list[int]:
        """Per type in ``kinds``, what the packed need ``left`` still needs
        once a subset of that type holds what it can of it.  Subtracting a
        type from (left | guards) clears a field's guard exactly where the
        type holds more than is needed: those fields become 0."""
        top, guards, shift = left | self._guards, self._guards, self._width - 1
        rests = []
        for kind in kinds:
            kept = (top - kind) & guards
            rests.append((top - kind) & (kept - (kept >> shift)))
        return rests

    def influence(self, i: int) -> int:
        """Exact joint influence of subset ``i`` as a count over 2^K inputs."""
        kind = self.kind(self.mask(i))
        if kind not in self._counts:
            self._counts[kind] = joint_influence_exact(self.function, self.mask(i)).count
        return self._counts[kind]

    def first_of_each_type(self, budget: Budget) -> dict[int, int]:
        """Each subset type and the number of its first subset, in that order.

        Listing the subsets costs ``budget`` C(K,M) steps, charged before
        any mask is built.
        """
        budget.charge(
            self.num_subsets, f"{self.num_subsets} subsets of size {self.constraints.cache_size}"
        )
        first: dict[int, int] = {}
        for i in range(self.num_subsets):
            first.setdefault(self.kind(self.mask(i)), i)
        return first

    def computable(self, combo: Sequence[int]) -> bool:
        """Every dataset of f is held by some server of the placement.

        Keeps what ``combo[:-1]`` leaves uncovered for the next call,
        since :meth:`ordered` mostly changes only the last server.
        """
        prefix = combo[:-1]
        if prefix != self._prefix:
            missing = self.function.support_mask
            for i in prefix:
                missing &= ~self.mask(i)
            self._prefix, self._prefix_missing = prefix, missing
        return not self._prefix_missing & ~self.mask(combo[-1])

    def config(self, combo: Sequence[int]) -> PlacementConfig:
        c = self.constraints
        return PlacementConfig(c.num_servers, c.cache_size, tuple(self.mask(i) for i in combo))

    def ordered(self) -> Iterator[tuple[int, ...]]:
        """Every ordered placement once, lexicographic, generated lazily.

        A hand-written odometer: ``itertools.product`` copies its input
        into a tuple first, which for ``range(C(K,M))`` costs O(C(K,M))
        memory before the first row, or fails outright.
        """
        n, last = self.constraints.num_servers, self.num_subsets - 1
        combo = [0] * n
        while True:
            yield tuple(combo)
            pos = n - 1
            while combo[pos] == last:
                combo[pos] = 0
                pos -= 1
                if pos < 0:
                    return
            combo[pos] += 1


def enumerate_placements(c: PlacementConstraints) -> Iterator[PlacementConfig]:
    """Every ordered N-tuple of size-M subsets of [K], lexicographic, once, lazily."""
    space = PlacementSpace(c)
    return map(space.config, space.ordered())


def search_min_as(
    f: BooleanFunctionANF, c: PlacementConstraints, *, budget: int = ENUMERATION_BUDGET
) -> tuple[PlacementConfig, InfluenceValue]:
    """Find a placement minimizing the summed joint influence, exactly.

    Returns the lexicographically first strict placement of least summed
    influence among those that can compute f.  Summed influence and
    coverage depend only on each server's subset type, and on how many
    datasets of each twin class f still needs (:class:`PlacementSpace`),
    so the search runs over types in two exact phases:

    1. The least sum v* comes from a memoised search over (servers left,
       datasets each class still needs).  It uses only the types that
       leave at most (N-1)*M of f's datasets to the other servers.  Some
       server must hold the first class still needed, and it may as well
       come first, so a state tries only the types that hold some of
       that class, cheapest first.  It skips a type that leaves the same
       need as a cheaper one, and stops once r times the least influence
       cannot beat its best.  Servers left once nothing is needed take
       the cheapest type.  Every level holds a needed dataset, so the
       search recurses at most once per dataset of f, never once per
       server.
    2. The minimiser is built one server at a time.  Each server takes the
       first subset, at or after the previous server's, whose influence
       and the least completion of what is still needed keep the sum at
       v*.  A sorted multiset that attains v* after a smaller choice would
       come before the first minimiser, so every choice is that
       minimiser's.

    The budget counts steps: C(K,M) for listing the subsets' types,
    checked before any mask is built, then one per type tried in phase 1
    and one per subset scanned in phase 2.  Past it,
    :class:`EnumerationBudgetError` is raised.  Influences are exact, so
    a subset whose monomials are too wide raises :class:`ExactLimitError`.
    """
    space = PlacementSpace(c, f)
    n, m = c.num_servers, c.cache_size
    steps = Budget(budget)
    need = f.support_mask
    counts = {
        kind: space.influence(i)
        for kind, i in space.first_of_each_type(steps).items()
        if (need & ~space.mask(i)).bit_count() <= (n - 1) * m
    }
    least = min(counts.values(), default=None)
    kinds = sorted((count, kind) for kind, count in counts.items())
    # Per class, the types that hold some of its datasets, cheapest first.
    holding = [
        [(count, kind) for count, kind in kinds if space.count(kind, cls)]
        for cls in range(len(space.classes))
    ]
    memo: dict[tuple[int, int], int | None] = {}

    def completion(r: int, left: int) -> int | None:
        """Least summed influence of r servers holding the packed need ``left``."""
        if (r, left) in memo:
            return memo[r, left]
        if not left:
            return r * least
        best = None
        if space.size(left) <= r * m:
            types = holding[space.first_class(left)]
            rests = space.take(left, [kind for _, kind in types])
            tried = set()  # a later type that leaves the same need costs no less
            for (count, _), rest in zip(types, rests):
                if best is not None and count + (r - 1) * least >= best:
                    break
                steps.charge()
                if rest in tried:
                    continue
                tried.add(rest)
                after = completion(r - 1, rest)
                if after is not None and (best is None or count + after < best):
                    best = count + after
        memo[r, left] = best
        return best

    value = None if least is None else completion(n, space.kind(need))
    if value is None:
        raise ValueError("no placement can cover the function's datasets")
    combo: list[int] = []
    left, total, j = need, 0, 0
    for r in range(n, 0, -1):
        while True:
            steps.charge()
            count = counts.get(space.kind(space.mask(j)))
            if count is not None and total + count + (r - 1) * least <= value:
                rest = left & ~space.mask(j)
                after = completion(r - 1, space.kind(rest))
                if after is not None and total + count + after == value:
                    break
            j += 1
        combo.append(j)
        left, total = rest, total + count
    return space.config(combo), InfluenceValue.exact_value(value, 1 << c.num_datasets)
