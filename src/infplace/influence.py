"""Joint sensitivity and joint influence of dataset subsets.

Joint sensitivity at one assignment counts how many of the given flip
sets change the function output when flipped together.  Joint influence
is the probability of a change over uniform inputs, the weight of the
derivative f(x) xor f(x xor S), which only the monomials that meet the
flip set S carry.  The exact path builds that derivative's truth table
over their variables V' only, with each block of private variables
outside S collapsed to one weighted variable, bit-packed 64 cells to a
word, and counts its set bits with a popcount; a V' of at most 6
variables is one word, built and counted as a Python int without
numpy.  It scales the count to all 2^K inputs and stores the result as
an integer count over 2^K (lemma checks need exact equality, floats
would not do).  It refuses a flip set whose V' spans more than the
enumeration limit of variables, counted before any collapse and
whatever K is; a Hoeffding-calibrated Monte Carlo estimator, which
tests the same derivative on each sample, answers at any width.  It
draws its samples from ``anf.sample_blocks``, block b keyed as
``SeedSequence(seed, spawn_key=(b,))`` would key it but computed
without building one, and tests them in the words' own bit layout,
moving each monomial mask up to the sample's bits instead of moving
every sample down.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .anf import BooleanFunctionANF, evaluate, indices_from_mask, sample_blocks

if TYPE_CHECKING:
    from .placement import PlacementConfig

# Most variables V' of the monomials that meet a flip set for which the
# exact path builds a table; wider flip sets need Monte Carlo.  The limit
# is on |V'| itself, although collapsing private blocks leaves the table
# narrower, so the inputs that are refused do not depend on that layout.
EXACT_ENUMERATION_LIMIT = 24
# Samples per RNG block.  Block b draws from its own stream keyed by
# (seed, b), so this size is part of the pinned sample stream: changing
# it changes every Monte Carlo estimate.
MC_BLOCK_SIZE = 8192
# Variables indexed by bits inside one uint64 word of a packed table, and
# per variable j and value v the word mask of the cells where bit j is v.
_WORD_BITS = 6
_WORD_MASK = (1 << _WORD_BITS) - 1
_ALL_CELLS = (1 << 64) - 1
_CELLS_WITH_BIT = tuple(
    (_ALL_CELLS ^ upper, upper)
    for upper in (sum(1 << x for x in range(64) if x >> j & 1) for j in range(_WORD_BITS))
)


class ExactLimitError(RuntimeError):
    """Exact enumeration refused as too large; influences have a Monte Carlo path."""


@dataclass(frozen=True)
class InfluenceValue:
    """An influence (or summed-influence) value, exact or estimated.

    Exact values are ``count / denominator`` with a power-of-two
    denominator.  Estimates carry the sample mean plus a Hoeffding
    half-width; a summed estimate carries the sample count of each
    subset's estimate and the seed they all drew from, and adds the
    half-widths conservatively.
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
    assumptions.  The seed, an integer at least 0, keys every sample
    stream.
    """

    epsilon: float
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")

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
        if mask < 0 or mask >> k:
            raise ValueError(f"flip set {mask!r} not within [1, {k}]")
        if evaluate(f, assignment ^ mask) != base:
            total += 1
    return total


def joint_influence_exact(f: BooleanFunctionANF, flip_mask: int) -> InfluenceValue:
    """Exact joint influence: changed assignments counted over all 2^K inputs.

    f(x) xor f(x xor S) cancels every monomial disjoint from S, so the
    count is taken on g, the XOR of the monomials that meet S, over
    their variable union V', and scaled by 2^(K-|V'|).  A V' wider than
    the enumeration limit is refused before any table is built.

    g's table is narrower than V'.  The variables outside S that lie in
    only one meeting monomial (its private block) enter g only through
    their product, so a block of t >= 2 of them becomes one variable z:
    z = 1 stands for the one assignment that sets the whole block, z = 0
    for the other 2^t - 1, and cells count with that weight.

    The count is the popcount of the bit-packed table of the derivative
    g(x) xor g(x xor S) (see :func:`_derivative_table`), whose z
    variables take the highest axes, so the words of one z assignment are
    one row of a ``(2^z, -1)`` view.  A word holds the six lowest
    variables; for z to start on a word axis, a block that fits beside
    the other variables below bit 6 stays single, and dummy low variables
    fill what is left.  g ignores them, so their factor 2^pad divides out
    exactly.  A V' of at most 6 datasets collapses no block and pads to
    exactly one word, which :func:`_derivative_word` builds as a Python
    int and ``int.bit_count`` counts.
    """
    k = f.num_datasets
    if flip_mask < 0 or flip_mask >> k:
        raise ValueError(f"flip set {flip_mask!r} not within [1, {k}]")
    meeting = [m for m in f.monomials if m & flip_mask]
    if not meeting:
        return InfluenceValue.exact_value(0, 1 << k)
    support = shared = 0
    for m in meeting:
        shared |= support & m
        support |= m
    if support.bit_count() > EXACT_ENUMERATION_LIMIT:
        raise ExactLimitError(
            f"the monomials that meet the flip set span {support.bit_count()} datasets,"
            f" past the exact enumeration limit {EXACT_ENUMERATION_LIMIT};"
            " use joint_influence_mc"
        )
    private = support & ~shared & ~flip_mask
    candidates = [p for p in (m & private for m in meeting) if p & (p - 1)]
    # Variables below the z axes; a block that fits beside them stays single.
    low = support.bit_count() - sum(map(int.bit_count, candidates))
    blocks = []
    for p in candidates:
        if low + p.bit_count() <= _WORD_BITS:
            low += p.bit_count()
        else:
            blocks.append(p)
    pad = max(_WORD_BITS - low, 0)
    # Table variables from bit pad up: the single variables, then the blocks.
    singles = support & ~sum(blocks)
    position = {1 << (i - 1): r for r, i in enumerate(indices_from_mask(singles), pad)}
    position.update((p, r) for r, p in enumerate(blocks, pad + len(position)))

    def relabel(m: int) -> int:
        c = 1 << position[m & ~singles] if m & ~singles else 0  # m's block
        m &= singles
        while m:
            c |= 1 << position[m & -m]
            m &= m - 1
        return c

    monomials, flip = [relabel(m) for m in meeting], relabel(flip_mask & support)
    width = pad + len(position)
    if width == _WORD_BITS:  # |V'| <= 6: no blocks, the table is one word
        changed = _derivative_word(monomials, flip).bit_count() >> pad
    else:
        table = _derivative_table(monomials, flip, width)
        per_z = np.bitwise_count(table).reshape(1 << len(blocks), -1).sum(axis=1).tolist()
        weights = [1]
        for p in blocks:
            rest = (1 << p.bit_count()) - 1
            weights = [w * rest for w in weights] + weights
        changed = sum(map(operator.mul, per_z, weights)) >> pad
    return InfluenceValue.exact_value(changed << (k - support.bit_count()), 1 << k)


def _cells(m: int, value: int) -> int:
    """The in-word pattern of m's low variables taking their values in
    ``value``: the word mask of the cells x & 63 where they do."""
    pattern = _ALL_CELLS
    low = m & _WORD_MASK
    while low:
        j = (low & -low).bit_length() - 1
        pattern &= _CELLS_WITH_BIT[j][value >> j & 1]
        low &= low - 1
    return pattern


def _derivative_word(monomials: Sequence[int], flip: int) -> int:
    """The one-word table of g(x) xor g(x xor flip) over 6 variables, as
    a Python int: :func:`_derivative_table` at width 6 without numpy."""
    word = 0
    for m in monomials:
        word ^= _cells(m, m) ^ _cells(m, m & ~flip)
    return word


def _derivative_table(monomials: Sequence[int], flip: int, width: int) -> np.ndarray:
    """Bit-packed table of g(x) xor g(x xor flip), g the XOR of
    ``monomials``, over ``width`` >= 6 variables: bit x & 63 of word x >> 6
    holds the value at x.

    A monomial m is 1 at x where x & m == m, and at x xor flip where
    x & m == m & ~flip.  Each of the two is an in-word pattern (per low
    variable of m, the word mask of the cells where it takes the wanted
    value) in the words whose index takes the wanted values on m's high
    variables, a slab of a ``(2,)*(width-6)`` view with the highest
    variable on axis 0.  When flip misses m's high variables both lie in
    one slab, which takes the XOR of the two patterns in one pass.
    """
    axes = width - _WORD_BITS
    table = np.zeros(1 << axes, dtype=np.uint64)
    cube = table.reshape((2,) * axes)
    for m in monomials:
        patterns: dict[int, int] = {}
        for value in (m, m & ~flip):
            high = value >> _WORD_BITS
            patterns[high] = patterns.get(high, 0) ^ _cells(m, value)
        for high, pattern in patterns.items():
            slab = [slice(None)] * axes
            fixed = m >> _WORD_BITS
            while fixed:
                a = (fixed & -fixed).bit_length() - 1
                slab[axes - 1 - a] = high >> a & 1
                fixed &= fixed - 1
            cube[tuple(slab)] ^= np.uint64(pattern)
    return table


def _mc_block_mismatches(
    meeting: Sequence[int], flip_mask: int, words: np.ndarray, shift: int
) -> int:
    """Mismatch count of one block of samples from ``anf.sample_blocks``,
    block b keyed as ``SeedSequence(seed, spawn_key=(b,))`` would key it.

    The words are tested in their own bit layout, each sample in the top
    K bits of its word, so each mask moves up by ``shift`` instead of
    every word moving down.  A meeting monomial m changes under the flip
    exactly when w & m is m or m & ~S, so f changes when an odd number of
    them do.  The masks may be Python ints or scalars of the words' type;
    the estimator passes scalars, so that no operation converts them.
    """
    changed = np.zeros(len(words), dtype=bool)
    for m in meeting:
        t = words & (m << shift)
        changed ^= t == m << shift
        changed ^= t == (m & ~flip_mask) << shift
    return int(np.count_nonzero(changed))


def joint_influence_mc(
    f: BooleanFunctionANF, flip_mask: int, config: EstimatorConfig
) -> InfluenceValue:
    """Monte Carlo joint influence under the (epsilon, delta) Hoeffding contract.

    Deterministic for a fixed seed: samples are partitioned into fixed
    blocks, block b drawn from the stream keyed by (seed, b), and the
    per-block counts are summed in block order.  Each sample is tested on
    the derivative f(w) xor f(w xor S), which only the monomials that
    meet S carry; when S meets none, the mean is 0 and nothing is drawn.
    """
    k = f.num_datasets
    if flip_mask < 0 or flip_mask >> k:
        raise ValueError(f"flip set {flip_mask!r} not within [1, {k}]")
    n = config.sample_count
    meeting = [m for m in f.monomials if m & flip_mask]
    mismatches = 0
    if meeting:
        sizes = [min(MC_BLOCK_SIZE, n - start) for start in range(0, n, MC_BLOCK_SIZE)]
        scalar = None
        for words, shift in sample_blocks(k, sizes, config.seed):
            if scalar is None:  # the masks in the words' type, once per estimate
                scalar = words.dtype.type
                meeting, flip = [scalar(m) for m in meeting], scalar(flip_mask)
            mismatches += _mc_block_mismatches(meeting, flip, words, shift)
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
    every subset is estimated and the half-widths add up.  Every subset
    reads the same (seed, block b) sample streams, so the estimates are
    correlated; the summed half-width is a plain sum, a union bound that
    holds under any correlation and is conservative.
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
    return InfluenceValue.estimate_value(mean, half, estimator.sample_count, estimator.seed)


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
