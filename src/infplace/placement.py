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
from itertools import accumulate, combinations, groupby
from math import comb, factorial
from operator import or_
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
    if m > k:
        raise ValueError(f"cache size {m} exceeds dataset count {k}")
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


def orderings(combo: Sequence[int]) -> int:
    """Ordered placements sharing this sorted multiset of subsets: n!/prod(mult!)."""
    out = factorial(len(combo))
    for _, run in groupby(combo):
        out //= factorial(len(list(run)))
    return out


class PlacementSpace:
    """Every strict placement of one grid, and f's influence over its subsets.

    Size-M subsets are numbered in lexicographic order of their index
    tuples, so a placement is a tuple of subset numbers whose
    lexicographic order is the placements' own.  Subset masks and exact
    influence counts are built on first use: scanning the first rows of
    a huge grid costs only those rows.

    Summed influence, computability and the exact piece count do not
    depend on server order, so callers that need only those search the
    sorted server multisets with :meth:`computable_multisets`, a pruned
    depth-first search.  The sorted tuple of any minimiser is also a
    minimiser and comes no later, so the first minimising multiset is
    the first minimising ordered placement.
    """

    def __init__(self, c: PlacementConstraints, f: BooleanFunctionANF | None = None):
        self.constraints = c
        self.function = f
        self.num_subsets = comb(c.num_datasets, c.cache_size)
        # Combinations of the datasets' bits, in the order of their indices.
        self._combos = combinations([1 << b for b in range(c.num_datasets)], c.cache_size)
        self._masks: list[int] = []
        self._counts: dict[int, int] = {}
        self._prefix: Sequence[int] | None = None
        self._prefix_missing = 0

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

    def influence(self, i: int) -> int:
        """Exact joint influence of subset ``i`` as a count over 2^K inputs."""
        if i not in self._counts:
            self._counts[i] = joint_influence_exact(self.function, self.mask(i)).count
        return self._counts[i]

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
        if last < 0:
            return
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

    def computable_multisets(
        self, improving: bool = False, budget: int = ENUMERATION_BUDGET
    ) -> Iterator[tuple[int, ...]]:
        """Server multisets that can compute f, as sorted tuples, lexicographic.

        One depth-first search over sorted tuples, written as a loop so
        that N does not bound it by the recursion limit.  With r servers
        left to fill, a prefix is cut when the subsets it may still use
        do not hold every dataset f still needs, or when more than r*M
        are still needed.  Subsets that leave more than (N-1)*M of f's
        datasets to the other servers are in no computable multiset, so
        the search never considers them.

        With ``improving``, a multiset is yielded only when its summed
        influence is strictly below that of every multiset yielded
        before, so the last one yielded is the lexicographically first
        minimiser.  A prefix is then also cut when its sum plus r times
        the least influence among the subsets it may still use is not
        below the best sum.  Influence is counted only for the subsets
        the search considers.

        The budget counts steps: C(K,M) for filtering the subsets, checked
        before any mask is built, then one per pass of the loop.  Past it,
        :class:`EnumerationBudgetError` is raised.
        """
        n, m = self.constraints.num_servers, self.constraints.cache_size
        over = f"exceed the enumeration budget {budget}"
        steps = self.num_subsets
        if steps > budget:
            raise EnumerationBudgetError(f"{steps} subsets of size {m} {over}")
        need = self.function.support_mask
        cands = [
            i for i in range(self.num_subsets)
            if (need & ~self.mask(i)).bit_count() <= (n - 1) * m
        ]
        masks = [self.mask(i) for i in cands]
        counts = [self.influence(i) for i in cands] if improving else [0] * len(cands)
        # The union and the least count over candidates j, j+1, ...
        reach = [*accumulate(reversed(masks), or_)][::-1] + [0]
        floor = [*accumulate(reversed(counts), min)][::-1]
        best = None
        combo = [0] * n  # candidate positions chosen for the first d servers
        left = [need] + [0] * n  # f's datasets not yet held
        total = [0] * (n + 1)  # summed influence count of the first d servers
        d = j = 0
        while True:
            steps += 1
            if steps > budget:
                raise EnumerationBudgetError(f"placement search steps {over}")
            r = n - d
            if (
                j == len(cands)
                or left[d] & ~reach[j]
                or best is not None and total[d] + r * floor[j] >= best
            ):
                if d == 0:
                    return
                d -= 1
                j = combo[d] + 1
                continue
            rest = left[d] & ~masks[j]
            t = total[d] + counts[j]
            if rest.bit_count() > (r - 1) * m or (
                best is not None and t + (r - 1) * floor[j] >= best
            ):
                j += 1
            elif r > 1:
                combo[d], left[d + 1], total[d + 1] = j, rest, t
                d += 1
            else:
                if improving:
                    best = t
                yield tuple(cands[i] for i in combo[:d] + [j])
                j += 1


def enumerate_placements(c: PlacementConstraints) -> Iterator[PlacementConfig]:
    """Every ordered N-tuple of size-M subsets of [K], lexicographic, once, lazily."""
    space = PlacementSpace(c)
    return map(space.config, space.ordered())


def search_min_as(
    f: BooleanFunctionANF, c: PlacementConstraints, *, budget: int = ENUMERATION_BUDGET
) -> tuple[PlacementConfig, InfluenceValue]:
    """Find a placement minimizing the summed joint influence, exactly.

    A pruned depth-first search over the server multisets of strict
    subsets that can compute f (:meth:`PlacementSpace.computable_multisets`,
    which spends the step ``budget``); ties go to the lexicographically
    first placement.  Influences are exact, so a subset whose monomials
    are too wide raises :class:`ExactLimitError`.
    """
    space = PlacementSpace(c, f)
    best = None
    for best in space.computable_multisets(improving=True, budget=budget):
        pass
    if best is None:
        raise ValueError("no placement can cover the function's datasets")
    total = sum(space.influence(i) for i in best)
    return space.config(best), InfluenceValue.exact_value(total, 1 << c.num_datasets)
