"""Brute-force checks of the closed-form claims, reported case by case.

Each checker builds the smallest function family the claim speaks
about, computes exact influences by enumeration, and compares them as
rationals.  Nothing here trusts the closed forms being tested: the
observed side always comes from truth tables.  The lemma checks count
changed assignments on the full 2^K table themselves, so they do not
test ``joint_influence_exact``'s restriction to the monomials that meet
the flip set with that same restriction.

The placement/transmission relationship study (``corollary_study``) is
deliberately report-only.  It records rank correlation and any ordering
violations between average joint sensitivity and the optimal piece
count, but never fails: that ordering is not something this code base
guarantees.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import Iterable, Sequence

import numpy as np

from .anf import (
    MAX_DATASETS,
    MAX_TRUTH_TABLE_DATASETS,
    BooleanFunctionANF,
    ParseError,
    dump_object,
    indices_from_mask,
    mask_from_indices,
    truth_table,
)
from .influence import (
    ExactLimitError,
    analytic_influence_one_swap,
    analytic_influence_product,
    avg_joint_sensitivity,
    joint_influence_exact,
)
from .placement import (
    ENUMERATION_BUDGET,
    Budget,
    PlacementConfig,
    PlacementConstraints,
    aligned_placement,
    subset_label,
)
from .transmission import TransmissionCount, count_transmissions, synthesis_key, synthesize_exact

LEMMA1_DEGREES = range(1, 9)
LEMMA1_SUBSET_TRIALS = 20
LEMMA2_DEGREES = range(2, 6)
DEGREE_SLACK = 2  # spare datasets beyond the product's support
RECORDED_VIOLATIONS = 10  # ordering violations spelled out in a study summary


@dataclass(frozen=True)
class OracleCase:
    label: str
    expected: str
    observed: str
    passed: bool


@dataclass(frozen=True)
class OracleReport:
    claim: str
    grid: dict[str, str]
    cases: tuple[OracleCase, ...]
    summary: dict[str, str]
    seed: int | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json_text(self) -> str:
        obj = {
            "claim": self.claim,
            "grid": self.grid,
            "cases": [
                {
                    "label": c.label,
                    "expected": c.expected,
                    "observed": c.observed,
                    "pass": c.passed,
                }
                for c in self.cases
            ],
            "summary": self.summary,
            "seed": self.seed,
            "passed": self.passed,
        }
        return dump_object(obj)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "expected", "observed", "pass"])
        for c in self.cases:
            writer.writerow([c.label, c.expected, c.observed, str(c.passed).lower()])
        return buf.getvalue()


def _single_product(degree: int, num_datasets: int) -> BooleanFunctionANF:
    return BooleanFunctionANF.from_indices(num_datasets, [range(1, degree + 1)])


def disjoint_products(num_products: int, degree: int) -> BooleanFunctionANF:
    """XOR of ``num_products`` products on consecutive disjoint supports."""
    k = num_products * degree
    if k > MAX_DATASETS:
        raise ParseError(f"N*M = {k} datasets exceed the {MAX_DATASETS}-dataset limit")
    supports = [
        range(n * degree + 1, (n + 1) * degree + 1) for n in range(num_products)
    ]
    return BooleanFunctionANF.from_indices(k, supports)


def _check_table_cap(k: int) -> None:
    """Refuse a lemma grid whose widest function has no truth table."""
    if k > MAX_TRUTH_TABLE_DATASETS:
        raise ExactLimitError(f"truth table for K={k} exceeds the K<={MAX_TRUTH_TABLE_DATASETS} cap")


def _brute_force_influence(f: BooleanFunctionANF, flip_mask: int) -> Fraction:
    """Share of all 2^K assignments whose joint flip changes f, read off
    f's full truth table."""
    k = f.num_datasets
    # Dataset i is axis K - i, so reversing S's axes maps row x to x xor S.
    table = truth_table(f).reshape((2,) * k)
    flipped = np.flip(table, axis=tuple(k - i for i in indices_from_mask(flip_mask)))
    return Fraction(int(np.count_nonzero(flipped != table)), 1 << k)


def _lemma_report(
    claim: str, degrees: list[int], cases: list[OracleCase], seed: int | None, **grid: str
) -> OracleReport:
    text = ",".join(map(str, degrees))
    failures = sum(not c.passed for c in cases)
    summary = {"degrees": text, "cases": str(len(cases)), "failures": str(failures)}
    return OracleReport(claim, {"d": text, **grid}, tuple(cases), summary, seed)


def check_lemma1(
    d_range: Iterable[int] = LEMMA1_DEGREES,
    subset_trials: int = LEMMA1_SUBSET_TRIALS,
    seed: int = 0,
) -> OracleReport:
    """Every nonempty flip subset inside a degree-d product's support has
    exact influence 2^(1-d).

    Small d: all nonempty subsets.  Larger d: all singletons plus random
    distinct subsets up to ``subset_trials`` total.
    """
    degrees = list(d_range)
    _check_table_cap(max(degrees, default=0) + DEGREE_SLACK)
    rng = random.Random(seed)
    cases = []
    for d in degrees:
        k = d + DEGREE_SLACK
        f = _single_product(d, k)
        expected = analytic_influence_product(d)
        total = (1 << d) - 1
        if total <= subset_trials:
            masks = list(range(1, 1 << d))
        else:
            picked = {1 << i for i in range(d)}
            while len(picked) < subset_trials:
                picked.add(rng.randrange(1, 1 << d))
            masks = sorted(picked)
        for mask in masks:
            observed = _brute_force_influence(f, mask)
            cases.append(
                OracleCase(
                    label=f"d={d} S={subset_label(mask)}",
                    expected=str(expected),
                    observed=str(observed),
                    passed=observed == expected,
                )
            )
    return _lemma_report(
        "single-product influence", degrees, cases, seed, subset_trials=str(subset_trials)
    )


def _swap_subset(degree: int, swaps: int) -> int:
    """The first product's support with ``swaps`` datasets exchanged for
    datasets of the second (disjoint) product."""
    kept = range(swaps + 1, degree + 1)
    taken = range(degree + 1, degree + swaps + 1)
    return mask_from_indices(list(kept) + list(taken))


def check_lemma2(d_range: Iterable[int] = LEMMA2_DEGREES) -> OracleReport:
    """On an XOR of two disjoint degree-d products, swapping s of one
    support's datasets for the other's never lowers the influence.

    The one-swap value must equal 2 * 2^(1-d) * (1 - 2^(1-d)) exactly.
    """
    degrees = list(d_range)
    _check_table_cap(2 * max(degrees, default=0))
    cases = []
    for d in degrees:
        f = disjoint_products(2, d)
        baseline = analytic_influence_product(d)
        closed = analytic_influence_one_swap(d)
        values = []
        for swaps in range(1, d):
            observed = _brute_force_influence(f, _swap_subset(d, swaps))
            values.append(observed)
            cases.append(
                OracleCase(
                    label=f"d={d} swaps={swaps} >= baseline",
                    expected=f">= {baseline}",
                    observed=str(observed),
                    passed=observed >= baseline,
                )
            )
        cases.append(
            OracleCase(
                label=f"d={d} one-swap closed form",
                expected=str(closed),
                observed=str(values[0]),
                passed=values[0] == closed,
            )
        )
        cases.append(
            OracleCase(
                label=f"d={d} monotone in swap count",
                expected="nondecreasing",
                observed=",".join(map(str, values)),
                passed=all(a <= b for a, b in zip(values, values[1:])),
            )
        )
    return _lemma_report("influence increase under support swaps", degrees, cases, None)


def check_theorem(num_servers: int, cache_size: int) -> OracleReport:
    """For the XOR of N disjoint degree-M products on K = N*M datasets:
    the minimum average joint sensitivity over all strict placements is
    N/2^(M-1), the aligned placement attains it, and no placement that
    admits a scheme beats the aligned piece count of N.

    At K = N*M every computable placement is an ordered partition of the
    datasets into blocks of M, so (NM)!/(M!)^N of them are computable.
    Each has an N x N server-by-product count matrix whose rows and
    columns each sum to M.  Permuting the servers, the products, or the
    datasets inside a product maps f to itself and keeps the exact piece
    count T, so T depends only on the matrix up to row and column order.
    Each such orbit holds one or more matrices whose rows and columns are
    both in descending lexicographic order (double-lex: Flener et al.,
    "Breaking row and column symmetries in matrix models", CP 2002), and
    the check lists those matrices, row by row and largest
    first.  Each row is at most the previous one, no column sum passes
    M, what a row still takes fits in what its later columns need, and
    within each run of columns equal so far the new entries do not
    increase.

    The budget is charged one step per entry tried and, as each matrix
    is listed, a fixed per-matrix charge: per server, N plus 2^a - 1 for
    each product it holds a > 0 datasets of.  It once counted the blocks
    a synthesis built before its search; synthesis now builds them
    lazily, and the charge stays so that the same grids are refused,
    before any synthesis.  T is synthesized once per matrix, on its
    member where each server in turn takes the lowest datasets still
    free in each product; ``min_T_placement`` is the member of the first
    matrix of least T.  M times the identity comes first, and its member
    is the aligned placement.
    """
    n, m = num_servers, cache_size
    k = n * m
    f = disjoint_products(n, m)
    constraints = PlacementConstraints(k, n, m)
    total = comb(k, m) ** n
    target_as = Fraction(n, 1 << (m - 1))
    budget = Budget(ENUMERATION_BUDGET)

    matrices: list[tuple[tuple[int, ...], ...]] = []

    def fill(matrix: tuple[tuple[int, ...], ...]) -> None:
        """List every double-lex completion of ``matrix``, largest first."""
        if len(matrix) == n:
            budget.charge(sum(n + sum((1 << a) - 1 for a in row) for row in matrix))
            matrices.append(matrix)
            return
        cols = list(zip(*matrix)) if matrix else [()] * n
        need = [m - sum(col) for col in cols]
        ties = [False] + [a == b for a, b in zip(cols, cols[1:])]  # column j equals j - 1
        prev = matrix[-1] if matrix else (m,) * n
        rows: list[tuple[int, ...]] = []

        def extend(row: tuple[int, ...], left: int, room: int, below: bool) -> None:
            """Add to ``rows`` each next row that starts with ``row``: it
            still takes ``left``, its later columns still need ``room``, and
            ``below`` says it is already less than ``prev``."""
            j = len(row)
            if j == n:
                rows.append(row)
                return
            top = min(left, need[j])
            if not below:
                top = min(top, prev[j])
            if ties[j]:
                top = min(top, row[-1])
            room -= need[j]
            for a in range(top, max(left - room, 0) - 1, -1):
                budget.charge()
                extend(row + (a,), left - a, room, below or a < prev[j])

        extend((), m, sum(need), False)
        for row in rows:
            fill(matrix + (row,))

    def member(matrix: tuple[tuple[int, ...], ...]) -> PlacementConfig:
        free = [indices_from_mask(product) for product in f.monomials]
        subsets = []
        for row in matrix:
            subsets.append([d for ds, a in zip(free, row) for d in ds[:a]])
            free = [ds[a:] for ds, a in zip(free, row)]
        return PlacementConfig.from_indices(m, subsets)

    fill(())
    # A subset's influence depends only on how many datasets it takes from
    # each product: one row of a count matrix.  The least summed influence
    # over every placement, computable or not, puts the least of them on
    # every server.
    types = (tuple(map(c.count, range(n))) for c in combinations_with_replacement(range(n), m))
    least = min(joint_influence_exact(f, member((row,)).subset_masks[0]).count for row in types)
    min_as = Fraction(n * least, 1 << k)
    members = list(map(member, matrices))
    pieces = [count_transmissions(synthesize_exact(f, p)).total for p in members]
    min_t = min(pieces)
    min_t_placement = members[pieces.index(min_t)]
    num_computable = factorial(k) // factorial(m) ** n

    aligned = aligned_placement(f, constraints)
    aligned_as = avg_joint_sensitivity(f, aligned).fraction
    aligned_t = count_transmissions(synthesize_exact(f, aligned)).total

    cases = [
        OracleCase(
            label=f"min as over {total} strict placements",
            expected=str(target_as),
            observed=str(min_as),
            passed=min_as == target_as,
        ),
        OracleCase(
            label="aligned placement attains the minimum",
            expected=str(target_as),
            observed=str(aligned_as),
            passed=aligned_as == target_as,
        ),
        OracleCase(
            label="piece count at the aligned placement",
            expected=str(n),
            observed=str(aligned_t),
            passed=aligned_t == n,
        ),
        OracleCase(
            label=f"min piece count over {num_computable} computable placements",
            expected=f">= {n}",
            observed=str(min_t),
            passed=min_t >= n,
        ),
    ]
    summary = {
        "placements": str(total),
        "computable": str(num_computable),
        "min_as": str(min_as),
        "aligned_as": str(aligned_as),
        "aligned_T": str(aligned_t),
        "min_T": str(min_t),
        "min_T_placement": str(min_t_placement),
    }
    grid = {"N": str(n), "M": str(m), "K": str(k)}
    return OracleReport("optimal placement at desk scale", grid, tuple(cases), summary, None)


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _discordant_count(rows: Sequence[tuple[int, int]]) -> int:
    """How many pairs of rows the two columns order strictly oppositely,
    in O(n log n).

    Sorted by (first, second), a pair is discordant exactly when the
    earlier row has the larger second column: rows with one first value
    come in order of the second, so ties in either column are concordant.
    A Fenwick tree over the second column's ranks counts, for each row,
    the earlier rows above it.
    """
    values = sorted({b for _, b in rows})
    tree = [0] * (len(values) + 1)
    total = 0
    for seen, (_, b) in enumerate(sorted(rows)):
        rank = bisect_right(values, b)
        total += seen  # less the earlier rows whose second column is at most b:
        i = rank
        while i:
            total -= tree[i]
            i &= i - 1
        while rank <= len(values):
            tree[rank] += 1
            rank += rank & -rank
    return total


def _first_discordant(rows: Sequence[tuple[int, int]], wanted: int) -> list[tuple[int, int]]:
    """The first ``wanted`` discordant pairs (i, j), i < j, in (i, j) order.
    The scan stops at the last one, so ``wanted`` should be at most their count."""
    found: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(rows if wanted else ()):
        for j in range(i + 1, len(rows)):
            if (a - rows[j][0]) * (b - rows[j][1]) < 0:
                found.append((i, j))
                if len(found) == wanted:
                    return found
    return found


def corollary_study(
    f: BooleanFunctionANF, placements: Sequence[PlacementConfig]
) -> OracleReport:
    """Record (average joint sensitivity, optimal piece count) per placement
    plus per-server influence and piece breakdowns, then report how well
    the two columns agree in rank.  Report-only: passed is always True.

    Influences are integer counts over 2^K, counted once per distinct
    subset; they are compared and ranked as counts and become fractions
    only in the printed text.  Piece counts are synthesized once per
    :func:`synthesis_key` (each server's datasets of f), which decides the
    scheme.  Ordering violations are counted without listing the pairs.
    """
    denom = 1 << f.num_datasets
    influence: dict[int, int] = {}
    synthesized: dict[tuple[int, ...], TransmissionCount] = {}  # per synthesis_key
    rows = []
    cases = []
    for placement in placements:
        per_inf = []
        for s in placement.subset_masks:
            if s not in influence:
                influence[s] = joint_influence_exact(f, s).count
            per_inf.append(influence[s])
        as_count = sum(per_inf)
        key = synthesis_key(f, placement.subset_masks)
        if key not in synthesized:
            synthesized[key] = count_transmissions(
                synthesize_exact(f, placement), num_servers=placement.num_servers
            )
        counts = synthesized[key]
        rows.append((as_count, counts.total))
        cases.append(
            OracleCase(
                label=str(placement),
                expected="-",
                observed=(
                    f"as={Fraction(as_count, denom)} T={counts.total}"
                    f" inf=[{';'.join(str(Fraction(c, denom)) for c in per_inf)}]"
                    f" pieces={list(counts.per_server)}"
                ),
                passed=True,
            )
        )

    violations = _discordant_count(rows)

    rho = None
    as_col = [a for a, _ in rows]
    t_col = [t for _, t in rows]
    if len(set(as_col)) > 1 and len(set(t_col)) > 1:
        # Spearman's rho: the Pearson correlation of the average ranks.
        ranks = np.column_stack((_average_ranks(as_col), _average_ranks(t_col)))
        rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])

    def point(i: int) -> str:
        return f"#{i}(as={Fraction(rows[i][0], denom)},T={rows[i][1]})"

    examples = _first_discordant(rows, min(violations, RECORDED_VIOLATIONS))
    recorded = "; ".join(f"{point(i)} vs {point(j)}" for i, j in examples)
    summary = {
        "placements": str(len(rows)),
        "spearman_rho": "n/a" if rho is None else repr(rho),
        "ordering_violations": str(violations),
        "violation_examples": recorded or "none",
    }
    grid = {"K": str(f.num_datasets), "placements": str(len(placements))}
    return OracleReport("sensitivity vs piece count (study)", grid, tuple(cases), summary, None)
