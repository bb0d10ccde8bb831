"""Joint sensitivity and joint influence, exact and estimated.

The exact path is checked against a slow reference loop that never
touches numpy, and against hand-derived closed forms for single
products and two-product swaps.
"""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infplace import InfluenceValue, influence
from infplace.anf import (
    BooleanFunctionANF,
    ParseError,
    evaluate,
    indices_from_mask,
    sample_blocks,
    truth_table,
)
from infplace.influence import (
    EstimatorConfig,
    ExactInfluence,
    ExactLimitError,
    InfluenceEstimate,
    analytic_influence_one_swap,
    analytic_influence_product,
    avg_joint_sensitivity,
    joint_influence_exact,
    joint_influence_mc,
    joint_sensitivity,
)
from infplace.placement import PlacementConfig

from conftest import evaluate_batch, numpys_bounded_draws


def slow_influence(f, flip_mask):
    """Reference count of assignments where the joint flip changes f."""
    changed = 0
    for w in range(1 << f.num_datasets):
        if evaluate(f, w) != evaluate(f, w ^ flip_mask):
            changed += 1
    return Fraction(changed, 1 << f.num_datasets)


@st.composite
def function_and_flip(draw, max_k=7):
    k = draw(st.integers(1, max_k))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=4))
    flip = draw(st.integers(0, (1 << k) - 1))
    return BooleanFunctionANF.from_masks(k, masks), flip


@given(function_and_flip())
@settings(max_examples=80)
def test_exact_influence_matches_reference(case):
    f, flip = case
    assert joint_influence_exact(f, flip).fraction == slow_influence(f, flip)


def test_exact_influence_fixture(example_function):
    # Enumerated over all 512 assignments before the fast path existed.
    v = joint_influence_exact(example_function, 0b001001001)
    assert (v.count, v.denominator) == (160, 512)
    assert v.fraction == Fraction(5, 16)


def test_empty_flip_set_has_zero_influence(example_function):
    v = joint_influence_exact(example_function, 0)
    assert v.count == 0 and v.denominator == 512


def test_single_product_closed_form():
    for d in range(1, 7):
        f = BooleanFunctionANF.from_indices(d + 1, [list(range(1, d + 1))])
        expected = analytic_influence_product(d)
        assert expected == Fraction(1, 2 ** (d - 1))
        # every singleton inside the support
        for i in range(d):
            assert joint_influence_exact(f, 1 << i).fraction == expected
        # the full support
        assert joint_influence_exact(f, (1 << d) - 1).fraction == expected


def test_one_swap_closed_form():
    # f = W1..Wd xor W(d+1)..W(2d); swap W1 for W(d+1) in the first support.
    for d in range(2, 6):
        f = BooleanFunctionANF.from_indices(
            2 * d, [list(range(1, d + 1)), list(range(d + 1, 2 * d + 1))]
        )
        swap = (((1 << d) - 2) | (1 << d))
        got = joint_influence_exact(f, swap).fraction
        assert got == analytic_influence_one_swap(d)
        assert got >= analytic_influence_product(d)


def test_influence_flip_mask_validation(example_function):
    with pytest.raises(ValueError):
        joint_influence_exact(example_function, 1 << 9)
    with pytest.raises(ValueError):
        joint_influence_exact(example_function, -1)


def test_exact_limit_enforced(monkeypatch):
    # The monomials that meet S span 25 datasets: refused before any table.
    f = BooleanFunctionANF.from_indices(30, [list(range(1, 14)), list(range(14, 26))])
    built = []
    derivative_table = influence._derivative_table

    def counting_derivative_table(monomials, flip, width):
        built.append(width)
        return derivative_table(monomials, flip, width)

    monkeypatch.setattr(influence, "_derivative_table", counting_derivative_table)
    with pytest.raises(ExactLimitError, match="span 25 datasets"):
        joint_influence_exact(f, 1 | 1 << 13)
    assert built == []
    # The counter sees the tables that are built.
    joint_influence_exact(f, 1)
    assert len(built) == 1


def test_exact_limit_is_on_the_monomials_that_meet_s():
    # 25 variables in all, but S meeting one product sees only its own.
    f = BooleanFunctionANF.from_indices(30, [list(range(1, 14)), list(range(14, 26))])
    v = joint_influence_exact(f, 1 << 13)
    assert (v.count, v.denominator) == (1 << 19, 1 << 30)
    assert v.fraction == analytic_influence_product(12)
    # One variable of a K = 64 function; the range check still comes first.
    g = BooleanFunctionANF.from_indices(64, [[64]])
    assert joint_influence_exact(g, 1 << 63).fraction == Fraction(1)
    with pytest.raises(ValueError):
        joint_influence_exact(g, 1 << 64)


def full_table_count(f, flip_mask):
    """Changed assignments over all 2^K inputs, gathered from a table
    that evaluate_batch builds on every assignment mask."""
    idx = np.arange(1 << f.num_datasets, dtype=np.uint32)
    table = evaluate_batch(f, idx)
    return int(np.count_nonzero(table[idx ^ np.uint32(flip_mask)] != table))


def test_restricted_count_matches_full_table_on_seeded_functions():
    rng = random.Random(2605)
    seen = {"constant": 0, "meets none": 0, "S = all K": 0, "V' = all K": 0}
    for i in range(480):
        k = rng.randint(1, 14)
        full = (1 << k) - 1
        masks = [
            sum(1 << v for v in rng.sample(range(k), rng.randint(1, min(k, 5))))
            for _ in range(rng.randint(0, 6))
        ]
        if i % 3 == 0:
            masks.append(0)
        if i % 5 == 0:
            masks.append(full)
        f = BooleanFunctionANF.from_masks(k, masks)
        outside = full & ~f.support_mask
        if i % 4 == 0:
            flip = full
        elif i % 4 == 1 and outside:
            flip = outside & rng.randint(1, full) or outside
        else:
            flip = rng.randint(0, full)
        meeting = [m for m in f.monomials if m & flip]
        union = 0
        for m in meeting:
            union |= m
        seen["constant"] += f.constant_term
        seen["meets none"] += bool(flip) and not meeting
        seen["S = all K"] += flip == full
        seen["V' = all K"] += union == full
        v = joint_influence_exact(f, flip)
        assert (v.count, v.denominator) == (full_table_count(f, flip), 1 << k), (f, flip)
    assert min(seen.values()) >= 40, seen


def meeting_structure(f, flip_mask):
    """Per-case flags for the monomials that meet S, from index lists."""
    flip = set(indices_from_mask(flip_mask))
    meeting = [set(ix) for ix in map(indices_from_mask, f.monomials) if flip & set(ix)]
    uses = {}
    for ix in meeting:
        for v in ix:
            uses[v] = uses.get(v, 0) + 1
    private = [{v for v in ix if uses[v] == 1} for ix in meeting]
    groups = []
    for ix in meeting:
        touching = [g for g in groups if g & ix]
        merged = set(ix).union(*touching)
        groups = [g for g in groups if not g & ix] + [merged]
    return {
        "private block >= 2": any(len(p - flip) >= 2 for p in private),
        "private block of 1": any(len(p - flip) == 1 for p in private),
        "private in S": any(p & flip for p in private),
        "2+ groups": len(groups) >= 2,
        "constant": f.constant_term == 1,
        "S covers V'": bool(meeting) and set().union(*meeting) <= flip,
    }


def test_narrow_table_count_matches_full_table_on_seeded_functions():
    # The exact count collapses private blocks and pairs rows of a table
    # with S outermost; it must equal the count on every 2^K assignment.
    rng = random.Random(1914)
    seen = dict.fromkeys(meeting_structure(BooleanFunctionANF(1, ()), 1), 0)
    for i in range(480):
        k = rng.randint(2, 14)
        full = (1 << k) - 1
        masks = [
            sum(1 << v for v in rng.sample(range(k), rng.randint(1, min(k, 5))))
            for _ in range(rng.randint(1, 6))
        ]
        if i % 3 == 0:
            masks.append(0)
        f = BooleanFunctionANF.from_masks(k, masks)
        if i % 4 == 0:
            flip = f.support_mask or full
        else:
            flip = rng.randint(1, full)
        for case, hit in meeting_structure(f, flip).items():
            seen[case] += hit
        v = joint_influence_exact(f, flip)
        assert (v.count, v.denominator) == (full_table_count(f, flip), 1 << k), (f, flip)
    assert min(seen.values()) >= 40, seen


def test_narrow_table_count_at_k64_matches_closed_form():
    # S meets four products of 5, 3, 8 and 8 datasets: V' spans 24 of 64,
    # and each product keeps a private block of 2 or more outside S.
    degrees = (5, 3) + (8,) * 7
    blocks, start = [], 1
    for d in degrees:
        blocks.append(list(range(start, start + d)))
        start += d
    f = BooleanFunctionANF.from_indices(64, blocks)
    flip = sum(1 << (i - 1) for i in (2, 4, 7, 40, 57, 64))
    v = joint_influence_exact(f, flip)
    assert (v.count, v.denominator) == (disjoint_product_count(degrees, 64, flip), 1 << 64)


def meeting_span(f, flip_mask):
    """|V'|: the datasets of the monomials that meet S."""
    union = 0
    for m in f.monomials:
        if m & flip_mask:
            union |= m
    return union.bit_count()


def record_tables(monkeypatch):
    """Record every derivative table built, by either route, as (route,
    the variables its monomials and flip set use, the flip set, width,
    bytes): a numpy table, or one word in a Python int (width 6, 8 bytes)."""
    built = []
    derivative_table, derivative_word = influence._derivative_table, influence._derivative_word

    def recording_derivative_table(monomials, flip, width):
        table = derivative_table(monomials, flip, width)
        built.append(("table", reduce(or_, monomials, flip), flip, width, table.nbytes))
        return table

    def recording_derivative_word(monomials, flip):
        word = derivative_word(monomials, flip)
        built.append(("word", reduce(or_, monomials, flip), flip, 6, 8))
        return word

    monkeypatch.setattr(influence, "_derivative_table", recording_derivative_table)
    monkeypatch.setattr(influence, "_derivative_word", recording_derivative_word)
    return built


def test_exact_count_builds_one_narrow_table(monkeypatch, example_function):
    built = record_tables(monkeypatch)
    flips = [0b111, 0b001001001, 0b100100100, 0b110000000]
    counts = [joint_influence_exact(example_function, s).count for s in flips]
    assert len(built) == len(flips)
    routes, _, _, widths, sizes = zip(*built)
    assert counts == [full_table_count(example_function, s) for s in flips]
    # |V'| is 9, 6, 3 and 7: a V' of at most 6 datasets is one word.
    assert routes == ("table", "word", "word", "table")
    # S = {1,2,3} meets all three monomials, so |V'| = 9; the private
    # blocks {5,8} and {6,9} each become one table variable.
    assert widths[0] < 9
    # One bit per cell: never more bytes than a table over V' itself.
    for s, size in zip(flips, sizes):
        span = meeting_span(example_function, s)
        if span >= 6:
            assert size <= (1 << span) // 8, (s, size)


def truth_table_count(f, flip_mask):
    """Changed assignments over all 2^K inputs, on anf.truth_table's
    (2,)*K view, where x -> x xor S reverses the axes of S's datasets
    (dataset i is axis K - i)."""
    k = f.num_datasets
    table = truth_table(f).reshape((2,) * k)
    axes = tuple(k - i for i in indices_from_mask(flip_mask))
    return int(np.count_nonzero(table != np.flip(table, axis=axes)))


def spanning_function(rng, k, flip_mask, count):
    """``count`` monomials over k datasets, each dataset in one of them or
    in two, and each monomial made to meet S: V' is every dataset unless
    two monomials come out equal and cancel."""
    monomials = [0] * count
    for v in range(k):
        shared = rng.random() < 0.25
        for j in rng.sample(range(count), 2 if shared and count > 1 else 1):
            monomials[j] |= 1 << v
    in_s = [1 << i for i in range(k) if flip_mask >> i & 1]
    monomials = [m if m & flip_mask else m | rng.choice(in_s) for m in monomials]
    return BooleanFunctionANF.from_masks(k, monomials + [0] * rng.randint(0, 1))


def test_packed_count_matches_truth_table_on_seeded_functions(monkeypatch):
    # Widths 1-24 of V', against the full truth table of f.  The layout
    # cases are read off the tables built: a padded table leaves its
    # lowest variable unused, and S has a variable inside a word when the
    # compact flip set has a bit below 6.
    rng = random.Random(2622)
    built = record_tables(monkeypatch)
    seen = {"padded": 0, "S inside a word": 0, "S covers V'": 0, "4+ private blocks": 0}
    spans = set()
    for k in range(1, 25):
        for i in range(24 if k <= 16 else 8 if k <= 20 else 4):
            full = (1 << k) - 1
            count = rng.randint(1, min(k, 8))
            if i % 4 == 0:
                flip = full
            elif i % 2:  # few of V' in S, and monomials of 3 or more
                flip = sum(1 << v for v in range(k) if rng.random() < 0.15) or 1 << rng.randrange(k)
                count = max(1, min(8, k // 3))
            else:
                flip = rng.randint(1, full)
            f = spanning_function(rng, k, flip, count)
            v = joint_influence_exact(f, flip)
            assert (v.count, v.denominator) == (truth_table_count(f, flip), 1 << k), (f, flip)
            route, used, compact_flip, _, size = built[-1]
            span = meeting_span(f, flip)
            spans.add(span)
            assert route == ("word" if span <= 6 else "table"), (f, flip)
            if span >= 6:
                assert size <= (1 << span) // 8, (f, flip, size)
            in_s = set(indices_from_mask(flip))
            meeting = [set(ix) for ix in map(indices_from_mask, f.monomials) if set(ix) & in_s]
            uses = Counter(d for ix in meeting for d in ix)
            blocks = sum(len({d for d in ix if uses[d] == 1} - in_s) >= 2 for ix in meeting)
            seen["padded"] += not used & 1
            seen["S inside a word"] += bool(compact_flip & 63)
            seen["S covers V'"] += meeting_structure(f, flip)["S covers V'"]
            seen["4+ private blocks"] += blocks >= 4
    assert set(range(1, 25)) <= spans
    assert min(seen.values()) >= 20, seen


def test_one_word_table_matches_the_numpy_table(monkeypatch):
    # Every V' of 1 to 6 datasets is counted in one Python int: that word
    # must be the one word numpy's table builds at width 6 from the same
    # monomials, and the count the full truth table's.  Every dataset of S
    # in V' lies inside that word.
    rng = random.Random(6406)
    words = []
    derivative_word = influence._derivative_word

    def recording_derivative_word(monomials, flip):
        words.append((monomials, flip))
        return derivative_word(monomials, flip)

    monkeypatch.setattr(influence, "_derivative_word", recording_derivative_word)
    seen = {"padded": 0, "unpadded": 0, "S covers V'": 0, "S inside V'": 0}
    spans = Counter()
    while len(words) < 2000:
        k = rng.randint(1, 16)
        pool = rng.sample(range(k), rng.randint(1, min(k, 6)))
        monomials = [
            sum(1 << v for v in rng.sample(pool, rng.randint(1, len(pool))))
            for _ in range(rng.randint(1, 4))
        ]
        flip = sum(1 << v for v in pool if rng.random() < 0.5) or 1 << pool[0]
        if rng.random() < 0.25:  # S covers V', with datasets outside it too
            flip |= sum(1 << v for v in pool) | rng.randrange(1 << k)
        f = BooleanFunctionANF.from_masks(k, monomials + [0] * rng.randint(0, 1))
        before = len(words)
        v = joint_influence_exact(f, flip)
        assert (v.count, v.denominator) == (truth_table_count(f, flip), 1 << k), (f, flip)
        span = meeting_span(f, flip)
        if span == 0:
            assert len(words) == before
            continue
        spans[span] += 1
        word_monomials, word_flip = words[-1]
        table = influence._derivative_table(word_monomials, word_flip, 6)
        assert table.shape == (1,)
        assert int(table[0]) == derivative_word(word_monomials, word_flip), (f, flip)
        seen["padded" if span < 6 else "unpadded"] += 1
        seen["S covers V'" if meeting_structure(f, flip)["S covers V'"] else "S inside V'"] += 1
    assert sorted(spans) == [1, 2, 3, 4, 5, 6] and min(spans.values()) >= 50, spans
    assert min(seen.values()) >= 100, seen


def test_exact_count_memory_stays_bounded():
    # S is all of V' = 24 datasets, so no block collapses and the table
    # holds 2^24 cells: 2 MB packed, where a bool table took 16 MB.  A
    # later layout that grew the table 8-fold would pass 12 MB.
    f = BooleanFunctionANF.from_indices(24, [list(range(1, 13)), list(range(12, 25))])
    flip = (1 << 24) - 1
    joint_influence_exact(f, flip)
    tracemalloc.start()
    try:
        v = joint_influence_exact(f, flip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # g = y (a xor b) with y = W12, a, b the products of W1..W11 and
    # W13..W24, so g(x) != g(~x) on the 2^23 (2^-11 + 2^-12 - 2^-22)
    # = 6142 inputs with y = 1 and a xor b = 1, and as many with y = 0.
    assert v.count == 2 * 6142
    assert peak < 12 << 20, peak


def disjoint_product_count(degrees, num_datasets, flip_mask):
    """Closed form for variable-disjoint products on consecutive blocks:
    product j changes with probability p_j = 2^(1-d_j) if S meets it, so
    f changes with probability (1 - prod(1 - 2 p_j)) / 2."""
    keep, start = Fraction(1), 0
    for d in degrees:
        if flip_mask >> start & ((1 << d) - 1):
            keep *= 1 - Fraction(2, 1 << (d - 1))
        start += d
    count = (1 - keep) / 2 * (1 << num_datasets)
    assert count.denominator == 1
    return int(count)


@pytest.mark.parametrize(
    "flip_indices",
    [
        [1],
        [7, 12],
        [1, 7, 12, 16, 20],
        [6, 11, 15, 19, 22],
        [3, 23],
        [23, 24],
        list(range(1, 25)),
        [1, 25, 40],
        [26, 33, 34],
        list(range(17, 41)),
        [64],
        [2, 30, 64],
        list(range(41, 65, 3)),
    ],
)
def test_k24_disjoint_products_match_closed_form(flip_indices):
    # Flip sets past dataset 24 run at K = 40 or 64, with degree-8
    # products after the first five: K is past the table cap, while the
    # products that meet S span at most 24 datasets.
    k = next(k for k in (24, 40, 64) if max(flip_indices) <= k)
    degrees = (6, 5, 4, 4, 3) + (8,) * ((k - 24) // 8)
    blocks, start = [], 1
    for d in degrees:
        blocks.append(list(range(start, start + d)))
        start += d
    f = BooleanFunctionANF.from_indices(k, blocks)
    flip = sum(1 << (i - 1) for i in flip_indices)
    v = joint_influence_exact(f, flip)
    assert v.denominator == 1 << k
    assert v.count == disjoint_product_count(degrees, k, flip)


@given(function_and_flip())
@settings(max_examples=40)
def test_complement_invariance(case):
    # XORing in the constant-1 term never changes any influence.
    f, flip = case
    g = BooleanFunctionANF.from_masks(f.num_datasets, f.monomials + (0,))
    assert joint_influence_exact(f, flip) == joint_influence_exact(g, flip)


@given(function_and_flip(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_relabeling_invariance(case, rnd):
    f, flip = case
    k = f.num_datasets
    perm = list(range(1, k + 1))
    rnd.shuffle(perm)

    def relabel(mask):
        out = 0
        for i in range(k):
            if mask >> i & 1:
                out |= 1 << (perm[i] - 1)
        return out

    g = BooleanFunctionANF.from_masks(k, [relabel(m) for m in f.monomials])
    assert (
        joint_influence_exact(f, flip).count
        == joint_influence_exact(g, relabel(flip)).count
    )


def test_joint_sensitivity_by_hand():
    f = BooleanFunctionANF.from_indices(2, [[1, 2]])
    flips = [0b01, 0b10]
    assert joint_sensitivity(f, flips, 0b11) == 2
    assert joint_sensitivity(f, flips, 0b00) == 0
    assert joint_sensitivity(f, flips, 0b01) == 1
    assert joint_sensitivity(f, [], 0b11) == 0
    # repeated flip sets count independently
    assert joint_sensitivity(f, [0b01, 0b01], 0b11) == 2
    with pytest.raises(ValueError, match=r"flip set 4 not within \[1, 2\]"):
        joint_sensitivity(f, [0b01, 0b100], 0b11)


@given(function_and_flip(max_k=6))
@settings(max_examples=30)
def test_influence_equals_mean_sensitivity(case):
    # Def-by-counting vs expectation of the pointwise sensitivity.
    f, flip = case
    k = f.num_datasets
    total = sum(joint_sensitivity(f, [flip], w) for w in range(1 << k))
    assert joint_influence_exact(f, flip).fraction == Fraction(total, 1 << k)


def test_avg_sensitivity_counts_repeats(disjoint_pairs):
    p = PlacementConfig.from_indices(2, [[1, 2], [1, 2]])
    v = avg_joint_sensitivity(disjoint_pairs, p)
    assert v.fraction == Fraction(1)  # 1/2 + 1/2, same subset twice
    assert (v.count, v.denominator) == (64, 64)
    # A placement has at least one server, as a placement file must.
    with pytest.raises(ParseError, match='"N" must be a positive integer, got 0'):
        PlacementConfig(0, 2, ())


def test_empty_flip_set_has_influence_exactly_zero(example_function, monkeypatch):
    def no_samples(*args, **kwargs):
        raise AssertionError("an empty flip set drew samples")

    monkeypatch.setattr(influence, "sample_blocks", no_samples)
    v = joint_influence_exact(example_function, 0)
    assert (v.is_exact, v.count, v.denominator) == (True, 0, 512)
    est = joint_influence_mc(example_function, 0, EstimatorConfig(0.1, 0.1, seed=1))
    assert (est.mean, est.samples) == (0.0, 150)


def test_an_empty_server_adds_zero(example_function, window_placement):
    with_empty = PlacementConfig(4, 6, window_placement.subset_masks + (0,))
    assert avg_joint_sensitivity(example_function, with_empty) == avg_joint_sensitivity(
        example_function, window_placement
    )
    cfg = EstimatorConfig(0.1, 0.1, seed=1)
    three = avg_joint_sensitivity(example_function, window_placement, cfg)
    four = avg_joint_sensitivity(example_function, with_empty, cfg)
    per = joint_influence_mc(example_function, 0, cfg)
    assert four.mean == three.mean and per.mean == 0.0
    assert four.half_width == three.half_width + per.half_width


def test_avg_sensitivity_fixture(example_function, window_placement):
    v = avg_joint_sensitivity(example_function, window_placement)
    assert (v.count, v.denominator) == (608, 512)
    assert v.fraction == Fraction(19, 16)


def test_avg_sensitivity_rejects_out_of_range_subsets(disjoint_pairs):
    p = PlacementConfig.from_indices(2, [[1, 7]])
    with pytest.raises(ValueError):
        avg_joint_sensitivity(disjoint_pairs, p)


def test_avg_sensitivity_is_exact_without_estimator_and_estimated_with_one():
    cfg = EstimatorConfig(0.02, 1e-2, seed=5)
    # K = 30 with narrow monomials: exact without an estimator.
    f = BooleanFunctionANF.from_indices(30, [[1, 2, 3]])
    p = PlacementConfig.from_indices(3, [[1, 2, 3]])
    assert avg_joint_sensitivity(f, p).fraction == Fraction(1, 4)
    est = avg_joint_sensitivity(f, p, cfg)
    assert not est.is_exact
    assert abs(est.mean - 0.25) <= 0.02
    # K <= 24: an estimator still means Monte Carlo, subset by subset.
    g = BooleanFunctionANF.from_indices(10, [[1, 2], [3, 4, 5]])
    q = PlacementConfig.from_indices(2, [[1, 3], [4, 5]])
    est = avg_joint_sensitivity(g, q, cfg)
    per = [joint_influence_mc(g, s, cfg) for s in q.subset_masks]
    assert not est.is_exact
    assert est == InfluenceEstimate(
        sum(v.mean for v in per), sum(v.half_width for v in per), cfg.sample_count, cfg.seed
    )
    assert abs(est.mean - avg_joint_sensitivity(g, q).fraction) <= 2 * 0.02
    # A subset whose monomials span 25 datasets needs the estimator.
    wide = BooleanFunctionANF.from_indices(30, [list(range(1, 26))])
    r = PlacementConfig.from_indices(1, [[1]])
    with pytest.raises(ExactLimitError):
        avg_joint_sensitivity(wide, r)
    assert abs(avg_joint_sensitivity(wide, r, cfg).mean - 2.0**-24) <= 0.02


# --- ExactInfluence / InfluenceEstimate / EstimatorConfig -----------------


def test_influence_value_exact_formatting():
    v = ExactInfluence(2, 8)
    assert isinstance(v, InfluenceValue) and v == (2, 8)
    assert str(v) == "2/8"
    assert v.fraction == Fraction(1, 4)


def test_influence_value_estimate_formatting():
    v = InfluenceEstimate(0.0625, 0.01, 38005, 2024)
    assert isinstance(v, InfluenceValue) and not v.is_exact
    assert "samples=38005" in str(v) and "seed=2024" in str(v)
    with pytest.raises(AttributeError):
        _ = v.fraction


def test_sample_count_from_hoeffding_bound():
    cfg = EstimatorConfig(epsilon=0.01, delta=1e-3, seed=0)
    # ceil(ln(2/delta) / (2 eps^2)) computed independently
    assert cfg.sample_count == math.ceil(math.log(2 / 1e-3) / (2 * 0.01**2))
    assert cfg.sample_count == 38005


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)])
def test_estimator_config_validation(eps, delta):
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=eps, delta=delta, seed=0)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
def test_estimator_config_refuses_a_bad_seed(seed):
    # The seed keys every stream; a negative one would never run out of words.
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        EstimatorConfig(epsilon=0.1, delta=0.1, seed=seed)


# --- Monte Carlo ----------------------------------------------------------


def test_mc_builds_one_bit_generator_per_estimate(monkeypatch):
    # 950113 samples are 116 blocks; each block's stream is set on one PCG64
    # rather than hashed by a SeedSequence of its own.
    built = Counter()
    for name in ("PCG64", "SeedSequence"):
        real = getattr(np.random, name)

        def counting(*args, real=real, name=name, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    config = EstimatorConfig(0.002, 1e-3, seed=3)
    assert config.sample_count == 950113 == 115 * influence.MC_BLOCK_SIZE + 8033
    f = BooleanFunctionANF.from_indices(30, [[1, 2, 3], [3, 4]])
    est = joint_influence_mc(f, 0b100, config)
    assert abs(est.mean - joint_influence_exact(f, 0b100).fraction) <= 0.002
    assert built == {"PCG64": 1}


def test_mc_sample_stream_at_k64_is_pinned():
    # K = 64 joins two draws per sample; the stream, so the estimate, is fixed.
    f = BooleanFunctionANF.from_indices(64, [[1, 64], [2, 33], [63]])
    est = joint_influence_mc(f, 1 << 63 | 1 << 32, EstimatorConfig(0.05, 0.01, seed=7))
    assert est.samples == 1060
    assert est.mean == 517 / 1060


@pytest.mark.parametrize(
    "k,monomials,flip_indices,seed,mismatches",
    [
        # S meets four monomials and misses [5, 6] and the constant term.
        (30, [[], [1, 2, 3], [3, 4, 20], [5, 6], [10, 11, 12, 13], [25, 30]], [3, 11, 30], 11, 19109),
        # S meets three monomials and misses [4..7] and [30, 31, 32].
        (48, [[1, 48], [2, 17, 33], [4, 5, 6, 7], [17, 40], [30, 31, 32]], [17, 48], 12, 18915),
        # S meets no monomial: the estimate is 0 over the same samples.
        (48, [[1, 48], [2, 17, 33], [4, 5, 6, 7], [17, 40], [30, 31, 32]], [9, 21], 13, 0),
    ],
)
def test_mc_estimates_are_pinned(k, monomials, flip_indices, seed, mismatches):
    # Values recorded from the estimator that evaluated f at w and at w xor S
    # over every monomial; counting only the monomials that meet S keeps them.
    f = BooleanFunctionANF.from_indices(k, monomials)
    flip = sum(1 << (i - 1) for i in flip_indices)
    est = joint_influence_mc(f, flip, EstimatorConfig(0.01, 1e-3, seed=seed))
    assert est == InfluenceEstimate(
        mismatches / 38005, 0.00999993583688275, 38005, seed
    )


def reference_block_mismatches(meeting, k, flip_mask, seed, block_index, block_len):
    """One sample block drawn by Generator.integers on the block's stream,
    each sample tested bit by bit on every meeting monomial."""
    count = 0
    for w in numpys_bounded_draws(k, block_len, seed, (block_index,)).tolist():
        changed = 0
        for m in meeting:
            bits = [i for i in range(k) if m >> i & 1]
            before = all(w >> i & 1 for i in bits)
            after = all((w >> i & 1) ^ (flip_mask >> i & 1) for i in bits)
            changed ^= before != after
        count += changed
    return count


@pytest.mark.parametrize("k", [1, 31, 32, 33, 47, 63, 64])
def test_mc_block_kernel_matches_bitwise_reference(k):
    rng = random.Random(4000 + k)
    variables = rng.sample(range(k), min(k, 12))
    monomials = [
        sum(1 << v for v in rng.sample(variables, rng.randint(1, min(k, 4)))) for _ in range(5)
    ]
    f = BooleanFunctionANF.from_masks(k, monomials)
    flip = sum(1 << v for v in rng.sample(variables, min(k, 3)))
    meeting = [m for m in f.monomials if m & flip]
    assert meeting
    sizes = (1, 2, 1001, 4096)
    for block_index, (words, shift) in enumerate(sample_blocks(k, sizes, 99)):
        assert influence._mc_block_mismatches(
            meeting, flip, words, shift
        ) == reference_block_mismatches(meeting, k, flip, 99, block_index, sizes[block_index])
    # A whole estimate whose last block is odd: 11775 = 8192 + 3583.
    config = EstimatorConfig(0.015, 1e-2, seed=k)
    n = config.sample_count
    assert (n, n % influence.MC_BLOCK_SIZE % 2) == (11775, 1)
    blocks = [(0, influence.MC_BLOCK_SIZE), (1, n - influence.MC_BLOCK_SIZE)]
    total = sum(reference_block_mismatches(meeting, k, flip, k, b, size) for b, size in blocks)
    assert joint_influence_mc(f, flip, config).mean == total / n


def test_mc_seed_changes_stream():
    f = BooleanFunctionANF.from_indices(30, [[1, 2, 3, 4, 5]])
    a = joint_influence_mc(f, 0b11, EstimatorConfig(0.01, 1e-3, seed=1))
    b = joint_influence_mc(f, 0b11, EstimatorConfig(0.01, 1e-3, seed=2))
    assert a.mean != b.mean  # overwhelmingly likely for 38005 samples


def test_mc_honors_contract_on_known_value():
    f = BooleanFunctionANF.from_indices(28, [[1, 2, 3, 4]])
    cfg = EstimatorConfig(epsilon=0.01, delta=1e-3, seed=77)
    est = joint_influence_mc(f, 0b1, cfg)
    assert abs(est.mean - 0.125) <= cfg.epsilon
    assert est.half_width == pytest.approx(
        math.sqrt(math.log(2 / 1e-3) / (2 * est.samples))
    )


def test_mc_small_k_agrees_with_exact_loosely():
    f = BooleanFunctionANF.from_indices(10, [[1, 2], [3, 4, 5]])
    exact = joint_influence_exact(f, 0b10011).fraction
    est = joint_influence_mc(f, 0b10011, EstimatorConfig(0.02, 1e-3, seed=3))
    assert abs(est.mean - exact) <= 0.02
