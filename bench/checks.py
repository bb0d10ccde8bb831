"""Answer checks that share no code with infplace.

Every check recomputes the expected answer by its own method, or tests
a property the answer must have, and raises :class:`WrongAnswer` when
the program's answer disagrees.  Functions and placements arrive here as
plain bitmasks (bit ``k - 1`` is dataset ``k``), so nothing in this
module calls into the package it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np

# Brute-force piece-count search runs only while the number of candidate
# partition tuples stays below this; larger instances get the other checks.
BRUTE_FORCE_TUPLES = 20_000
# The Monte Carlo check uses the Hoeffding half-width at this failure
# probability, so a correct estimator fails it with probability 1e-9.
MC_CHECK_DELTA = 1e-9


class WrongAnswer(AssertionError):
    """The program's answer disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def canonical_monomials(monomials) -> list[int]:
    """XOR-cancel repeated monomials; order by (degree, sorted variables)."""
    parity: dict[int, int] = {}
    for m in monomials:
        parity[m] = parity.get(m, 0) ^ 1
    kept = [m for m, p in parity.items() if p]
    return sorted(kept, key=lambda m: (m.bit_count(), [b for b in range(64) if m >> b & 1]))


def table_from_anf(num_vars: int, monomials) -> np.ndarray:
    """Truth table by the binary Moebius transform of the ANF coefficients.

    Entry x is the XOR of the coefficients of all monomials inside x,
    computed one variable at a time in place (no per-monomial pass).
    """
    table = np.zeros(1 << num_vars, dtype=np.uint8)
    for m in monomials:
        table[m] ^= 1
    for bit in range(num_vars):
        view = table.reshape(-1, 2, 1 << bit)
        view[:, 1, :] ^= view[:, 0, :]
    return table


def flip_count(table: np.ndarray, num_vars: int, flip_mask: int) -> int:
    """Inputs whose value changes when the datasets in flip_mask flip together."""
    axes = tuple(num_vars - 1 - b for b in range(num_vars) if flip_mask >> b & 1)
    if not axes:
        return 0
    cube = table.reshape((2,) * num_vars)
    return int(np.count_nonzero(cube != np.flip(cube, axis=axes)))


def check_exact_count(count: int, denominator: int, expected: int, num_vars: int, label: str) -> None:
    """An exact influence must be expected/2^K, with an even count."""
    got = Fraction(count, denominator)
    want = Fraction(expected, 1 << num_vars)
    require(got == want, f"{label}: influence {count}/{denominator}, expected {expected}/{1 << num_vars}")
    require((got * (1 << num_vars)) % 2 == 0, f"{label}: odd number of changed inputs")


def closed_form_disjoint(degrees, meets) -> Fraction:
    """Joint influence on an XOR of variable-disjoint products.

    ``degrees[c]`` is product c's degree and ``meets[c]`` whether the flip
    set touches it.  Flipping any part of a degree-d product changes it
    with probability 2^(1-d); independent parts combine as
    (1 - prod(1 - 2 I_c)) / 2.
    """
    keep = Fraction(1)
    for d, hit in zip(degrees, meets):
        if hit:
            keep *= 1 - 2 * Fraction(1, 1 << (d - 1))
    return (1 - keep) / 2


def check_mc(mean: float, samples: int, truth: Fraction, label: str) -> None:
    """A Monte Carlo mean must lie within the Hoeffding half-width at MC_CHECK_DELTA."""
    require(samples >= 1, f"{label}: no samples")
    half = math.sqrt(math.log(2.0 / MC_CHECK_DELTA) / (2.0 * samples))
    require(
        abs(mean - float(truth)) <= half,
        f"{label}: mean {mean} is {abs(mean - float(truth)):.3g} from {truth}, beyond {half:.3g}",
    )


# --- schemes -------------------------------------------------------------


def check_scheme(num_vars: int, monomials, subsets, constant: int, pieces, plan, label: str) -> int:
    """Check a transmission scheme against f and the placement; return T.

    ``monomials`` lists f's monomials (the constant-1 term, if any, is
    mask 0); plan rows follow their canonical order.  ``subsets`` the server caches (server n holds
    ``subsets[n - 1]``), ``constant`` the scheme's constant bit, ``pieces``
    a list of (server, vars) pairs and ``plan`` one tuple of piece
    indices per non-constant monomial.
    """
    rows = [m for m in canonical_monomials(monomials) if m]
    require(len(plan) == len(rows), f"{label}: {len(plan)} plan rows for {len(rows)} monomials")
    for server, vars_mask in pieces:
        require(1 <= server <= len(subsets), f"{label}: piece from server {server} of {len(subsets)}")
        require(vars_mask != 0, f"{label}: empty piece")
        require(
            vars_mask & ~subsets[server - 1] == 0,
            f"{label}: server {server} does not cache every variable of piece {vars_mask:#x}",
        )
    decoded = [0] if constant else []
    for row, (refs, monomial) in enumerate(zip(plan, rows)):
        covered = 0
        for r in refs:
            require(0 <= r < len(pieces), f"{label}: plan row {row} names piece {r}")
            v = pieces[r][1]
            require(covered & v == 0, f"{label}: plan row {row} has overlapping pieces")
            covered |= v
        require(covered == monomial, f"{label}: plan row {row} covers {covered:#x}, not {monomial:#x}")
        decoded.append(covered)
    # A product of pieces is the monomial of their union, so the decoded
    # function's ANF is the constant plus one monomial per plan row.
    bad = np.flatnonzero(table_from_anf(num_vars, monomials) != table_from_anf(num_vars, decoded))
    require(bad.size == 0, f"{label}: decodes wrongly at input {int(bad[0]) if bad.size else 0:#x}")
    return len(pieces)


def _partitions(mask: int, coverable) -> list[tuple[int, ...]]:
    """Every partition of mask into coverable blocks (lowest bit first)."""
    if mask == 0:
        return [()]
    low = mask & -mask
    out = []
    sub = mask
    while sub:
        if sub & low and coverable(sub):
            out.extend((sub,) + rest for rest in _partitions(mask & ~sub, coverable))
        sub = (sub - 1) & mask
    return out


def brute_force_min_pieces(monomials, subsets) -> int | None:
    """Fewest distinct blocks over all partitions of the non-constant
    ``monomials`` into blocks that some server caches, or None when the
    instance is too large to enumerate."""

    def coverable(block: int) -> bool:
        return any(block & ~s == 0 for s in subsets)

    choices = []
    tuples = 1
    for m in monomials:
        if m.bit_count() > 8:
            return None
        parts = _partitions(m, coverable)
        tuples *= len(parts)
        if tuples > BRUTE_FORCE_TUPLES:
            return None
        choices.append(parts)
    return min(len(set().union(*combo)) for combo in product(*choices)) if choices else 0


# --- placements ----------------------------------------------------------


def check_strict_placement(num_vars: int, cache_size: int, num_servers: int, subsets, support: int, label: str) -> None:
    """N subsets of exactly M datasets within [K] that together hold the support."""
    require(len(subsets) == num_servers, f"{label}: {len(subsets)} subsets for N={num_servers}")
    union = 0
    for s in subsets:
        require(s.bit_count() == cache_size, f"{label}: subset {s:#x} does not hold M={cache_size}")
        require(s >> num_vars == 0, f"{label}: subset {s:#x} outside [1, {num_vars}]")
        union |= s
    require(support & ~union == 0, f"{label}: placement cannot compute f")


class InfluenceTable:
    """Per-subset influence counts of one function, from its own truth table."""

    def __init__(self, num_vars: int, monomials):
        self.num_vars = num_vars
        self.support = 0
        for m in monomials:
            self.support |= m
        self._table = table_from_anf(num_vars, monomials)
        self._counts: dict[int, int] = {}
        self._minima: dict[tuple[int, int], Fraction] = {}

    def count(self, flip_mask: int) -> int:
        if flip_mask not in self._counts:
            self._counts[flip_mask] = flip_count(self._table, self.num_vars, flip_mask)
        return self._counts[flip_mask]

    def summed(self, subsets) -> Fraction:
        return Fraction(sum(self.count(s) for s in subsets), 1 << self.num_vars)

    def min_over_multisets(self, num_servers: int, cache_size: int) -> Fraction:
        """Least summed influence over strict computable placements.

        Summed influence and computability ignore server order, so server
        multisets cover every ordered placement.
        """
        key = (num_servers, cache_size)
        if key not in self._minima:
            self._minima[key] = self._min_over_multisets(num_servers, cache_size)
        return self._minima[key]

    def _min_over_multisets(self, num_servers: int, cache_size: int) -> Fraction:
        masks = [sum(1 << (i - 1) for i in c) for c in combinations(range(1, self.num_vars + 1), cache_size)]
        counts = [self.count(m) for m in masks]
        best = None
        for combo in combinations_with_replacement(range(len(masks)), num_servers):
            union = 0
            for i in combo:
                union |= masks[i]
            if self.support & ~union:
                continue
            total = sum(counts[i] for i in combo)
            if best is None or total < best:
                best = total
        if best is None:
            raise WrongAnswer("no strict placement can compute f")
        return Fraction(best, 1 << self.num_vars)


def check_min_placement(
    table: InfluenceTable, num_servers: int, cache_size: int, subsets, value: Fraction, label: str
) -> None:
    """A search result must be strict, computable, report its own summed
    influence, and attain the least summed influence over all placements."""
    check_strict_placement(table.num_vars, cache_size, num_servers, subsets, table.support, label)
    own = table.summed(subsets)
    require(value == own, f"{label}: reported {value}, placement sums to {own}")
    best = table.min_over_multisets(num_servers, cache_size)
    require(own == best, f"{label}: summed influence {own} is not the minimum {best}")
