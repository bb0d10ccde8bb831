"""Placement construction, enumeration, and search."""

import random
import re
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, combinations_with_replacement, permutations, product
from math import comb
from operator import or_

import pytest

from infplace.anf import BooleanFunctionANF, ParseError, evaluate, mask_from_indices
from infplace.influence import avg_joint_sensitivity, joint_influence_exact
from infplace.placement import (
    EnumerationBudgetError,
    PlacementConfig,
    PlacementConstraints,
    PlacementSpace,
    aligned_placement,
    count_placements,
    cyclic_placement,
    enumerate_placements,
    parse_placement,
    placement_to_json,
    search_min_as,
)


def subsets_of(p):
    return [list(s) for s in p.subsets_as_indices()]


def test_parse_serialize_round_trip(window_placement):
    text = placement_to_json(window_placement)
    assert text == '{"M":6,"N":3,"subsets":[[1,2,3,4,5,6],[4,5,6,7,8,9],[1,2,3,7,8,9]]}\n'
    assert parse_placement(text) == window_placement


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"N": 2, "M": 2}',
        '{"N": 2, "M": 2, "subsets": [[1, 2]]}',
        '{"N": 1, "M": 0, "subsets": [[]]}',
        '{"N": true, "M": 2, "subsets": [[1], [2]]}',
        '{"N": 1, "M": 2, "subsets": [[1, 1]]}',
        '{"N": 2, "M": 1, "subsets": [[1, 2, 3, 4, 5, 6], [4, 5, 6, 7, 8, 9]]}',
        '{"N": 2, "M": 2, "subsets": [[1], 2]}',
        '{"N": 1, "M": 2, "subsets": {"1": [1]}}',
        '{"N": "1", "M": 2, "subsets": [[1]]}',
        '{"N": 1, "M": "2", "subsets": [[1]]}',
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_placement(text)


def test_config_requires_matching_server_count():
    with pytest.raises(ValueError):
        PlacementConfig(3, 2, (0b11, 0b1100))


@pytest.mark.parametrize("mask", [-1, True, False, 1.0, "1", None, 1 << 64])
def test_config_refuses_a_bad_subset_mask(mask):
    with pytest.raises(ParseError, match=f"bad subset mask {re.escape(repr(mask))}"):
        PlacementConfig(2, 2, (0b11, mask))


def test_config_accepts_an_empty_subset():
    p = PlacementConfig(2, 2, (0b11, 0))
    assert p.subset_masks == (0b11, 0)
    assert parse_placement(placement_to_json(p)) == p


def test_cyclic_windows():
    p = cyclic_placement(PlacementConstraints(9, 3, 6))
    assert subsets_of(p) == [
        [1, 2, 3, 4, 5, 6],
        [4, 5, 6, 7, 8, 9],
        [1, 2, 3, 7, 8, 9],
    ]
    q = cyclic_placement(PlacementConstraints(6, 3, 2))
    assert subsets_of(q) == [[1, 2], [3, 4], [5, 6]]
    # K not a multiple of N: stride stays ceil(K/N), windows wrap.
    r = cyclic_placement(PlacementConstraints(7, 3, 3))
    assert subsets_of(r) == [[1, 2, 3], [4, 5, 6], [1, 2, 7]]
    with pytest.raises(ValueError):
        cyclic_placement(PlacementConstraints(4, 2, 5))


def test_aligned_on_disjoint_supports(disjoint_pairs):
    p = aligned_placement(disjoint_pairs, PlacementConstraints(6, 3, 2))
    assert subsets_of(p) == [[1, 2], [3, 4], [5, 6]]


def test_aligned_pads_with_unused_datasets_first():
    f = BooleanFunctionANF.from_indices(4, [[1, 2]])
    p = aligned_placement(f, PlacementConstraints(4, 1, 3))
    assert subsets_of(p) == [[1, 2, 3]]
    # an extra server gets a padding-only subset
    q = aligned_placement(f, PlacementConstraints(4, 2, 3))
    assert subsets_of(q) == [[1, 2, 3], [1, 3, 4]]


def test_aligned_fixture(example_function):
    p = aligned_placement(example_function, PlacementConstraints(9, 3, 6))
    assert subsets_of(p) == [
        [1, 2, 3, 4, 5, 7],
        [1, 2, 3, 4, 6, 9],
        [1, 2, 3, 5, 7, 8],
    ]


def test_aligned_gives_the_constant_term_no_server():
    f = BooleanFunctionANF.from_indices(6, [[], [1, 2], [3, 4], [5, 6]])
    c = PlacementConstraints(6, 3, 2)
    p = aligned_placement(f, c)
    assert subsets_of(p) == [[1, 2], [3, 4], [5, 6]]
    assert sum(joint_influence_exact(f, s).fraction for s in p.subset_masks) == Fraction(3, 2)
    assert avg_joint_sensitivity(f, p).fraction == Fraction(3, 2)


def test_aligned_rejects_impossible_shapes(example_function):
    with pytest.raises(ValueError):
        aligned_placement(example_function, PlacementConstraints(9, 2, 6))
    with pytest.raises(ValueError):
        aligned_placement(example_function, PlacementConstraints(9, 3, 3))


def test_enumeration_is_lexicographic_and_complete():
    c = PlacementConstraints(4, 2, 2)
    everything = list(enumerate_placements(c))
    assert len(everything) == comb(4, 2) ** 2 == count_placements(c)
    assert subsets_of(everything[0]) == [[1, 2], [1, 2]]
    assert subsets_of(everything[1]) == [[1, 2], [1, 3]]
    assert subsets_of(everything[-1]) == [[3, 4], [3, 4]]
    assert len(set(everything)) == len(everything)


def test_exhaustive_search_returns_aligned_minimum(disjoint_pairs):
    placement, value = search_min_as(disjoint_pairs, PlacementConstraints(6, 3, 2))
    assert subsets_of(placement) == [[1, 2], [3, 4], [5, 6]]
    assert value.fraction == Fraction(3, 2)
    assert (value.count, value.denominator) == (96, 64)


def test_exhaustive_search_skips_placements_that_cannot_compute(disjoint_pairs):
    # Without the computability filter the all-ties grid would return
    # ({1,2},{1,2},{1,2}), which holds no trace of datasets 3..6.
    placement, _ = search_min_as(disjoint_pairs, PlacementConstraints(6, 3, 2))
    assert reduce(or_, placement.subset_masks) == (1 << 6) - 1


def test_exhaustive_search_constant_function_ties_lexicographically():
    f = BooleanFunctionANF.from_indices(4, [])
    placement, value = search_min_as(f, PlacementConstraints(4, 2, 2))
    assert subsets_of(placement) == [[1, 2], [1, 2]]
    assert value.fraction == 0


def test_greedy_aligned_search(disjoint_pairs):
    placement = aligned_placement(disjoint_pairs, PlacementConstraints(6, 3, 2))
    assert subsets_of(placement) == [[1, 2], [3, 4], [5, 6]]
    assert avg_joint_sensitivity(disjoint_pairs, placement).fraction == Fraction(3, 2)


def test_search_budget_guard(disjoint_pairs):
    with pytest.raises(EnumerationBudgetError):
        search_min_as(disjoint_pairs, PlacementConstraints(6, 3, 2), budget=10)


def test_exhaustive_search_matches_direct_scan():
    # Mixed degrees so covering subsets differ in influence; compare the
    # search result with a straight loop over the same grid.
    f = BooleanFunctionANF.from_indices(4, [[1], [2, 3, 4]])
    _, value = search_min_as(f, PlacementConstraints(4, 2, 2))
    best = None
    for p in enumerate_placements(PlacementConstraints(4, 2, 2)):
        if f.support_mask & ~reduce(or_, p.subset_masks):
            continue
        total = sum(joint_influence_exact(f, s).fraction for s in p.subset_masks)
        if best is None or total < best:
            best = total
    assert value.fraction == best


def test_space_scans_match_product_and_multiset_counts():
    c = PlacementConstraints(4, 3, 2)
    space = PlacementSpace(c, BooleanFunctionANF.from_indices(4, [[1, 2], [3, 4]]))
    subsets = [mask_from_indices(ix) for ix in combinations(range(1, 5), 2)]
    ordered = list(space.ordered())
    assert ordered == list(product(range(len(subsets)), repeat=3))
    assert len(ordered) == count_placements(c)
    assert [space.config(t).subset_masks for t in ordered[:3]] == [
        tuple(subsets[i] for i in t) for t in ordered[:3]
    ]
    # Each computable sorted multiset stands for its distinct orderings.
    listed = [m for m in combinations_with_replacement(range(len(subsets)), 3) if space.computable(m)]
    assert 0 < len(listed) < comb(len(subsets) + 2, 3)
    computable_ordered = [t for t in ordered if space.computable(t)]
    assert sum(len(set(permutations(m))) for m in listed) == len(computable_ordered)


def test_computable_matches_the_union_of_its_subsets_in_any_call_order():
    # A shuffled call order, and lists in place of tuples, give the same answers.
    f = BooleanFunctionANF.from_indices(5, [[1, 2], [3, 4, 5]])
    space = PlacementSpace(PlacementConstraints(5, 3, 2), f)
    rows = list(space.ordered())
    want = {t: not f.support_mask & ~reduce(or_, map(space.mask, t)) for t in rows}
    assert 0 < sum(want.values()) < len(rows)
    assert [space.computable(t) for t in rows] == [want[t] for t in rows]
    random.Random(5).shuffle(rows)
    assert [space.computable(t) for t in rows] == [want[t] for t in rows]
    assert [space.computable(list(t)) for t in rows] == [want[t] for t in rows]


# C(9,3) = 84 steps to list the subsets' types, 97 types tried in phase 1,
# and 63 subsets scanned in phase 2: the minimiser's last subset is number 60.
EXAMPLE_SEARCH_STEPS = 244


def test_search_budget_counts_the_steps_taken(example_function):
    c = PlacementConstraints(9, 3, 3)
    placement, value = search_min_as(example_function, c, budget=EXAMPLE_SEARCH_STEPS)
    assert str(placement) == "{1,4,7}; {2,5,8}; {3,6,9}"
    assert value.fraction == Fraction(11, 16)
    with pytest.raises(EnumerationBudgetError) as exc:
        search_min_as(example_function, c, budget=EXAMPLE_SEARCH_STEPS - 1)
    assert str(exc.value) == "placement search steps exceed the enumeration budget 243"


def test_search_budget_below_the_subset_count_builds_no_mask(example_function, monkeypatch):
    import infplace.placement as placement_module

    spaces = []

    class Recorded(PlacementSpace):
        def __init__(self, *args):
            super().__init__(*args)
            spaces.append(self)

    monkeypatch.setattr(placement_module, "PlacementSpace", Recorded)
    with pytest.raises(EnumerationBudgetError) as exc:
        search_min_as(example_function, PlacementConstraints(9, 3, 3), budget=83)
    assert str(exc.value) == "84 subsets of size 3 exceed the enumeration budget 83"
    assert len(spaces) == 1
    assert spaces[0]._masks == [] and spaces[0]._counts == {}


def test_kind_matches_the_popcount_per_twin_class():
    # kind sums one packed unit per dataset; the reference counts each
    # class's datasets in the mask, over every subset of [K].  208
    # functions, two at each K past 12, where the subsets grow costly.
    rng = random.Random(1616)
    seen = {"free datasets": 0, "no free dataset": 0}
    for k in [1 + case % 12 for case in range(200)] + [13, 14, 15, 16] * 2:
        monomials = [rng.randrange(1 << k) for _ in range(rng.randint(0, 5))]
        f = BooleanFunctionANF.from_masks(k, monomials)
        space = PlacementSpace(PlacementConstraints(k, 2, rng.randint(1, k)), f)
        classes, w = space.classes, space._width
        assert reduce(or_, classes) == (1 << k) - 1 and classes[-1] & f.support_mask == 0
        seen["free datasets" if classes[-1] else "no free dataset"] += 1
        assert [space.kind(mask) for mask in range(1 << k)] == [
            sum((mask & cls).bit_count() << (w * i) for i, cls in enumerate(classes))
            for mask in range(1 << k)
        ]
    assert min(seen.values()) >= 40, seen
    # In a grid wider than f, a dataset past f's K lies in no class.
    wide = PlacementSpace(PlacementConstraints(k + 1, 2, 1), f)
    assert all(wide.kind(mask | 1 << k) == space.kind(mask) for mask in range(1 << k))


def test_space_builds_only_the_subsets_it_visits():
    f = BooleanFunctionANF.from_indices(24, [[2 * i + 1, 2 * i + 2] for i in range(12)])
    space = PlacementSpace(PlacementConstraints(24, 2, 12), f)
    assert next(space.ordered()) == (0, 0)
    assert space.computable((0, 0)) is False
    assert len(space._masks) == 1
    # C(64,32) is about 1.8e18: the first row must not touch the rest.
    space = PlacementSpace(PlacementConstraints(64, 2, 32))
    assert next(space.ordered()) == (0, 0)


def reference_influence(f, flip):
    k = f.num_datasets
    changed = sum(evaluate(f, w) != evaluate(f, w ^ flip) for w in range(1 << k))
    return Fraction(changed, 1 << k)


def reference_min(f, c):
    """Lexicographically first minimiser over every ordered placement."""
    subsets = [
        mask_from_indices(ix)
        for ix in combinations(range(1, c.num_datasets + 1), c.cache_size)
    ]
    influence = {s: reference_influence(f, s) for s in subsets}
    best = None
    for combo in product(subsets, repeat=c.num_servers):
        union = 0
        for s in combo:
            union |= s
        if f.support_mask & ~union:
            continue
        value = sum(influence[s] for s in combo)
        if best is None or value < best[1]:
            best = (combo, value)
    return best


def random_instance(rng):
    k = rng.randint(1, 6)
    n = rng.randint(1, 3)
    m = rng.randint(1, k)
    monomials = [
        rng.sample(range(1, k + 1), rng.randint(0, min(k, 3)))
        for _ in range(rng.randint(0, 3))
    ]
    return BooleanFunctionANF.from_indices(k, monomials), PlacementConstraints(k, n, m)


def test_exhaustive_search_matches_ordered_reference_on_random_instances():
    rng = random.Random(20240)
    found = 0
    for _ in range(240):
        f, c = random_instance(rng)
        expected = reference_min(f, c)
        if expected is None:
            with pytest.raises(ValueError):
                search_min_as(f, c)
            continue
        placement, value = search_min_as(f, c)
        assert placement.subset_masks == expected[0], (str(f), c)
        assert value.fraction == expected[1], (str(f), c)
        found += 1
    assert found >= 200


def test_single_subset_grid_needs_no_recursion():
    # One subset on 1000 servers: the search must not grow the call stack
    # with the server count.
    f = BooleanFunctionANF.from_indices(4, [[1, 2], [3, 4]])
    placement, value = search_min_as(f, PlacementConstraints(4, 1000, 4))
    assert placement.subset_masks == (0b1111,) * 1000
    assert (value.count, value.denominator) == (8000, 16)


def test_search_counts_influence_only_for_covering_candidates(monkeypatch):
    # C(20,10) subsets on one server, and only {1..10} holds every dataset
    # of f: the search must count that one subset's influence and no other.
    import infplace.placement as placement_module

    calls = []

    def counted(f, flip):
        calls.append(flip)
        return joint_influence_exact(f, flip)

    monkeypatch.setattr(placement_module, "joint_influence_exact", counted)
    f = BooleanFunctionANF.from_indices(20, [[2 * i + 1, 2 * i + 2] for i in range(5)])
    placement, value = search_min_as(f, PlacementConstraints(20, 1, 10))
    assert subsets_of(placement) == [list(range(1, 11))]
    assert value.fraction == Fraction(1, 2)
    assert calls == [(1 << 10) - 1]


def reference_multisets(f, c):
    """The first computable sorted multiset, lexicographic, with the least
    summed influence (``None`` when there is none)."""
    subsets = [
        mask_from_indices(ix)
        for ix in combinations(range(1, c.num_datasets + 1), c.cache_size)
    ]
    counts = [reference_influence(f, s) * (1 << c.num_datasets) for s in subsets]
    best = None
    for combo in combinations_with_replacement(range(len(subsets)), c.num_servers):
        union = 0
        for i in combo:
            union |= subsets[i]
        if f.support_mask & ~union:
            continue
        value = sum(counts[i] for i in combo)
        if best is None or value < best[1]:
            best = (tuple(subsets[i] for i in combo), value)
    if best is not None:
        best = (best[0], Fraction(best[1], 1 << c.num_datasets))
    return best


def random_wide_instance(rng, max_multisets=20000):
    while True:
        k = rng.randint(4, 7)
        n = rng.randint(4, 5)
        m = rng.randint(1, k)
        if comb(comb(k, m) + n - 1, n) <= max_multisets:
            break
    monomials = [
        rng.sample(range(1, k + 1), rng.randint(0, min(k, 3)))
        for _ in range(rng.randint(0, 4))
    ]
    return BooleanFunctionANF.from_indices(k, monomials), PlacementConstraints(k, n, m)


def test_pruned_search_matches_multiset_reference_at_four_and_five_servers():
    rng = random.Random(20261018)
    found = 0
    for _ in range(60):
        f, c = random_wide_instance(rng)
        expected = reference_multisets(f, c)
        if expected is None:
            with pytest.raises(ValueError):
                search_min_as(f, c)
            continue
        placement, value = search_min_as(f, c)
        assert placement.subset_masks == expected[0], (str(f), c)
        assert value.fraction == expected[1], (str(f), c)
        found += 1
    assert found >= 50


def pruned_search_reference(f, c):
    """The sorted-multiset search the search replaced: depth first, cut
    when the subsets left cannot hold what f still needs or when the sum
    cannot beat the best so far, counting influence once per subset.
    The first computable multiset of least summed influence, as (masks,
    count), or ``None``."""
    n, m = c.num_servers, c.cache_size
    need = f.support_mask
    masks = [mask_from_indices(ix) for ix in combinations(range(1, c.num_datasets + 1), m)]
    masks = [s for s in masks if (need & ~s).bit_count() <= (n - 1) * m]
    counts = [joint_influence_exact(f, s).count for s in masks]
    reach = [*accumulate(reversed(masks), or_)][::-1] + [0]
    floor = [*accumulate(reversed(counts), min)][::-1]
    best = None

    def extend(start, left, total, chosen):
        nonlocal best
        r = n - len(chosen)
        for j in range(start, len(masks)):
            if left & ~reach[j] or best is not None and total + r * floor[j] >= best[1]:
                return
            rest, t = left & ~masks[j], total + counts[j]
            if rest.bit_count() > (r - 1) * m or best is not None and t + (r - 1) * floor[j] >= best[1]:
                continue
            if r > 1:
                extend(j, rest, t, chosen + [j])
            else:
                best = (tuple(masks[i] for i in chosen + [j]), t)

    extend(0, need, 0, [])
    return best


def test_twin_class_search_matches_the_pruned_subset_search():
    rng = random.Random(20261019)
    found = constant = 0
    for _ in range(400):
        k = rng.randint(3, 9)
        n = rng.randint(2, 5)
        m = rng.randint(1, min(4, k))
        monomials = [
            rng.sample(range(1, k + 1), rng.randint(0, min(k, 3)))
            for _ in range(rng.randint(0, 4))
        ]
        f, c = BooleanFunctionANF.from_indices(k, monomials), PlacementConstraints(k, n, m)
        constant += f.constant_term
        expected = pruned_search_reference(f, c)
        if expected is None:
            with pytest.raises(ValueError, match="no placement can cover"):
                search_min_as(f, c)
            continue
        placement, value = search_min_as(f, c)
        assert placement.subset_masks == expected[0], (str(f), c)
        assert (value.count, value.denominator) == (expected[1], 1 << k), (str(f), c)
        found += 1
    assert found >= 350 and constant >= 100
