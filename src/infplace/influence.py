"""Joint sensitivity and joint influence of dataset subsets.

Joint sensitivity at one assignment counts how many of the given flip
sets change the function output when flipped together.  Joint influence
is the probability of a change over uniform inputs; the exact path
counts changed assignments on the truth table of the monomials that
meet the flip set, over their variables only, scales the count to all
2^K inputs and stores the result as an integer count over 2^K (lemma
checks need exact equality, floats would not do).  It refuses a flip
set whose monomials span more than the enumeration limit of variables,
whatever K is; a Hoeffding-calibrated Monte Carlo estimator answers at
any width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .anf import (
    BooleanFunctionANF,
    evaluate,
    evaluate_batch,
    flip_assignment,
    truth_table,
    uniform_assignments,
)

if TYPE_CHECKING:
    from .placement import PlacementConfig

# Most variables V' of the monomials that meet a flip set for which the
# exact path builds a table (2^|V'| cells); wider flip sets need Monte Carlo.
EXACT_ENUMERATION_LIMIT = 24
# Samples per RNG block.  Block b draws from its own stream keyed by
# (seed, b), so this size is part of the pinned sample stream: changing
# it changes every Monte Carlo estimate.
MC_BLOCK_SIZE = 8192


class ExactLimitError(RuntimeError):
    """Exact enumeration refused; use the Monte Carlo path instead."""


@dataclass(frozen=True)
class InfluenceValue:
    """An influence (or summed-influence) value, exact or estimated.

    Exact values are ``count / denominator`` with a power-of-two
    denominator.  Estimates carry the sample mean plus a Hoeffding
    half-width; summed estimates lose ``samples``/``seed`` (set to None)
    and add half-widths conservatively.
    """

    kind: str  # "exact" | "estimate"
    count: int | None = None
    denominator: int | None = None
    mean: float | None = None
    half_width: float | None = None
    samples: int | None = None
    seed: int | None = None

    @classmethod
    def exact_value(cls, count: int, denominator: int) -> "InfluenceValue":
        if denominator <= 0 or denominator & (denominator - 1):
            raise ValueError(f"denominator must be a power of two, got {denominator}")
        if count < 0:
            raise ValueError(f"negative count {count}")
        return cls(kind="exact", count=count, denominator=denominator)

    @classmethod
    def estimate_value(
        cls, mean: float, half_width: float, samples: int | None, seed: int | None
    ) -> "InfluenceValue":
        return cls(kind="estimate", mean=mean, half_width=half_width, samples=samples, seed=seed)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def fraction(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("not an exact value")
        return Fraction(self.count, self.denominator)

    @property
    def value(self) -> float:
        return self.count / self.denominator if self.is_exact else self.mean

    def __str__(self) -> str:
        if self.is_exact:
            return f"{self.count}/{self.denominator}"
        return (
            f"{self.mean!r} ± {self.half_width!r}"
            f" (samples={self.samples}, seed={self.seed})"
        )


@dataclass(frozen=True)
class EstimatorConfig:
    """(epsilon, delta) contract for the Monte Carlo estimator.

    The sample count comes from the Hoeffding bound, rounded up, so the
    estimate lands within ``epsilon`` of the true influence with
    probability at least ``1 - delta`` under no distributional
    assumptions.
    """

    epsilon: float
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def sample_count(self) -> int:
        return math.ceil(math.log(2.0 / self.delta) / (2.0 * self.epsilon**2))


def joint_sensitivity(
    f: BooleanFunctionANF, flip_masks: Sequence[int], assignment: int
) -> int:
    """Number of flip sets whose joint flip changes f at this assignment.

    Overlapping or repeated flip sets count independently; an empty
    list yields 0.
    """
    base = evaluate(f, assignment)
    k = f.num_datasets
    total = 0
    for mask in flip_masks:
        flipped = flip_assignment(assignment, mask, k)
        if evaluate(f, flipped) != base:
            total += 1
    return total


def joint_influence_exact(f: BooleanFunctionANF, flip_mask: int) -> InfluenceValue:
    """Exact joint influence: changed assignments counted over all 2^K inputs.

    f(x) xor f(x xor S) cancels every monomial disjoint from S, so the
    count is taken on g, the XOR of the monomials that meet S, over
    their variable union V', and scaled by 2^(K-|V'|).  V' is relabelled
    onto 1..|V'| in order, which keeps g's monomials canonical.  A V'
    wider than the enumeration limit is refused before g is built.
    """
    k = f.num_datasets
    if flip_mask < 0 or flip_mask >> k:
        raise ValueError(f"flip set {flip_mask!r} not within [1, {k}]")
    meeting = [m for m in f.monomials if m & flip_mask]
    if not meeting:
        return InfluenceValue.exact_value(0, 1 << k)
    support = 0
    for m in meeting:
        support |= m
    if support.bit_count() > EXACT_ENUMERATION_LIMIT:
        raise ExactLimitError(
            f"the monomials that meet the flip set span {support.bit_count()} datasets,"
            f" past the exact enumeration limit {EXACT_ENUMERATION_LIMIT};"
            " use joint_influence_mc"
        )
    # One pass over the bits of V' maps them onto 1, 2, 4, ... in order.
    # Reversing a table axis flips its dataset; compact bit i is axis
    # width-1-i, so the index tuple is built last dataset first.
    place = {}
    flip = []
    rest = support
    while rest:
        bit = rest & -rest
        rest ^= bit
        place[bit] = 1 << len(place)
        flip.append(slice(None, None, -1) if flip_mask & bit else slice(None))
    compact = []
    for m in meeting:
        c = 0
        while m:
            bit = m & -m
            m ^= bit
            c |= place[bit]
        compact.append(c)
    width = len(place)
    table = truth_table(BooleanFunctionANF(width, tuple(compact))).reshape((2,) * width)
    changed = int(np.count_nonzero(table[tuple(reversed(flip))] != table))
    return InfluenceValue.exact_value(changed << (k - width), 1 << k)


def _mc_block_mismatches(
    f: BooleanFunctionANF, flip_mask: int, seed: int, block_index: int, block_len: int
) -> int:
    """Mismatch count for one deterministic sample block.

    Each block owns an independent RNG stream keyed by (seed, block
    index).
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    )
    w = uniform_assignments(rng, f.num_datasets, block_len)
    base = evaluate_batch(f, w)
    flipped = evaluate_batch(f, w ^ np.uint64(flip_mask))
    return int(np.count_nonzero(base != flipped))


def joint_influence_mc(
    f: BooleanFunctionANF, flip_mask: int, config: EstimatorConfig
) -> InfluenceValue:
    """Monte Carlo joint influence under the (epsilon, delta) Hoeffding contract.

    Deterministic for a fixed seed: samples are partitioned into fixed
    blocks with per-block RNG streams and the per-block counts are
    summed in block order.
    """
    k = f.num_datasets
    if flip_mask < 0 or flip_mask >> k:
        raise ValueError(f"flip set {flip_mask!r} not within [1, {k}]")
    n = config.sample_count
    mismatches = sum(
        _mc_block_mismatches(
            f, flip_mask, config.seed, b, min(MC_BLOCK_SIZE, n - b * MC_BLOCK_SIZE)
        )
        for b in range((n + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE)
    )
    mean = mismatches / n
    half_width = math.sqrt(math.log(2.0 / config.delta) / (2.0 * n))
    return InfluenceValue.estimate_value(mean, half_width, n, config.seed)


def avg_joint_sensitivity(
    f: BooleanFunctionANF,
    placement: "PlacementConfig",
    estimator: EstimatorConfig | None = None,
) -> InfluenceValue:
    """Sum of the joint influences of the placed subsets.

    Overlapping and repeated subsets count independently.  Without an
    estimator every subset is counted exactly, so a subset whose
    monomials are too wide raises :class:`ExactLimitError`; with one
    every subset is estimated and the half-widths add up.
    """
    k = f.num_datasets
    full = (1 << k) - 1
    for mask in placement.subset_masks:
        if mask < 0 or mask & ~full:
            raise ValueError(
                f"placement subset {mask!r} references datasets outside [1, {k}]"
            )
    masks = placement.subset_masks
    if estimator is None or not masks:
        count = sum(joint_influence_exact(f, mask).count for mask in masks)
        return InfluenceValue.exact_value(count, 1 << k)
    per = [joint_influence_mc(f, mask, estimator) for mask in masks]
    mean = sum(v.mean for v in per)
    half = sum(v.half_width for v in per)
    return InfluenceValue.estimate_value(mean, half, None, None)


def analytic_influence_product(degree: int) -> Fraction:
    """Closed-form joint influence of any nonempty flip set inside one product: 2^(1-d)."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return Fraction(1, 1 << (degree - 1))


def analytic_influence_one_swap(degree: int) -> Fraction:
    """Closed-form influence of a one-swap subset on an XOR of two disjoint
    degree-d products: 2 * 2^(1-d) * (1 - 2^(1-d))."""
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    p = Fraction(1, 1 << (degree - 1))
    return 2 * p * (1 - p)
