"""The answer checks reject corrupted answers and accept the program's.

Run from the repository root:

    python3 -m pytest bench/test_checks.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import infplace as ip  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import WrongAnswer  # noqa: E402
from workloads import mask  # noqa: E402

README = [mask([1, 4, 7]), mask([2, 5, 7, 8]), mask([3, 6, 9])]
WINDOW = [mask([1, 2, 3, 4, 5, 6]), mask([4, 5, 6, 7, 8, 9]), mask([1, 2, 3, 7, 8, 9])]
OVERLAP = [mask([1, 2, 4, 5, 6, 7]), mask([3, 4, 5, 6, 8, 9]), mask([1, 2, 3, 7, 8, 9])]


def program_scheme(monomials, subsets, k=9):
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    p = ip.PlacementConfig(len(subsets), 6, tuple(subsets))
    return workloads.scheme_parts(ip.synthesize_exact(f, p))


def test_table_from_anf_matches_direct_evaluation():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 8)
        monomials = [rng.randrange(0, 1 << k) for _ in range(rng.randint(0, 5))]
        table = checks.table_from_anf(k, monomials)
        for x in range(1 << k):
            assert table[x] == sum(x & m == m for m in monomials) % 2


def test_flip_count_matches_direct_count():
    rng = random.Random(6)
    for _ in range(30):
        k = rng.randint(2, 8)
        monomials = [rng.randrange(1, 1 << k) for _ in range(3)]
        table = checks.table_from_anf(k, monomials)
        flip = rng.randrange(0, 1 << k)
        assert checks.flip_count(table, k, flip) == sum(table[x] != table[x ^ flip] for x in range(1 << k))


def test_closed_form_matches_truth_table():
    monomials = [mask([1, 2, 3]), mask([4, 5]), mask([6, 7, 8, 9])]
    table = checks.table_from_anf(10, monomials)
    for flip in (mask([1]), mask([2, 4]), mask([3, 5, 9]), mask([10])):
        meets = [bool(m & flip) for m in monomials]
        expected = checks.closed_form_disjoint([3, 2, 4], meets) * (1 << 10)
        assert expected == checks.flip_count(table, 10, flip)


def test_brute_force_piece_counts_of_the_readme_example():
    assert checks.brute_force_min_pieces(README, WINDOW) == 6
    assert checks.brute_force_min_pieces(README, OVERLAP) == 4


def test_scheme_check_accepts_the_program_scheme():
    assert checks.check_scheme(9, README, OVERLAP, *program_scheme(README, OVERLAP), label="ok") == 4


def test_scheme_check_rejects_a_piece_on_a_server_without_its_datasets():
    constant, pieces, plan = program_scheme(README, OVERLAP)
    server, vars_mask = pieces[0]
    stranger = next(n for n, s in enumerate(OVERLAP, start=1) if vars_mask & ~s)
    pieces[0] = (stranger, vars_mask)
    with pytest.raises(WrongAnswer, match="does not cache"):
        checks.check_scheme(9, README, OVERLAP, constant, pieces, plan, label="moved")


def test_scheme_check_rejects_a_server_that_does_not_exist():
    constant, pieces, plan = program_scheme(README, OVERLAP)
    pieces[0] = (7, pieces[0][1])
    with pytest.raises(WrongAnswer, match="server 7 of 3"):
        checks.check_scheme(9, README, OVERLAP, constant, pieces, plan, label="server 7")


def test_scheme_check_rejects_a_row_that_does_not_partition_its_monomial():
    constant, pieces, plan = program_scheme(README, OVERLAP)
    plan[0] = plan[0] + plan[0][:1]
    with pytest.raises(WrongAnswer, match="overlapping"):
        checks.check_scheme(9, README, OVERLAP, constant, pieces, plan, label="overlap")


def test_scheme_check_rejects_a_wrong_constant():
    constant, pieces, plan = program_scheme(README, OVERLAP)
    with pytest.raises(WrongAnswer, match="decodes wrongly"):
        checks.check_scheme(9, README, OVERLAP, 1 - constant, pieces, plan, label="constant")


def test_exact_count_check_rejects_a_count_off_by_two():
    monomials = [mask([1, 2, 3]), mask([3, 4, 5])]
    f = ip.BooleanFunctionANF.from_masks(6, monomials)
    flip = mask([2, 4])
    value = ip.joint_influence_exact(f, flip)
    expected = checks.flip_count(checks.table_from_anf(6, monomials), 6, flip)
    checks.check_exact_count(value.count, value.denominator, expected, 6, "ok")
    for wrong in (value.count - 2, value.count + 2):
        with pytest.raises(WrongAnswer, match="expected"):
            checks.check_exact_count(wrong, value.denominator, expected, 6, "off by two")


def test_exact_count_check_rejects_an_odd_count():
    with pytest.raises(WrongAnswer, match="odd"):
        checks.check_exact_count(3, 64, 3, 6, "odd")


def test_mc_check_rejects_a_mean_outside_the_hoeffding_width():
    truth = Fraction(1, 16)
    checks.check_mc(0.0625 + 0.003, 10**6, truth, "ok")
    with pytest.raises(WrongAnswer, match="beyond"):
        checks.check_mc(0.0625 + 0.01, 10**6, truth, "far")


def test_min_placement_check_accepts_the_search_result_and_rejects_a_worse_one():
    f = ip.BooleanFunctionANF.from_masks(9, README)
    placement, value = ip.search_min_as(f, ip.PlacementConstraints(9, 3, 3))
    table = checks.InfluenceTable(9, README)
    checks.check_min_placement(table, 3, 3, list(placement.subset_masks), value.fraction, "ok")
    worse = [mask([1, 2, 3]), mask([4, 5, 6]), mask([7, 8, 9])]
    with pytest.raises(WrongAnswer, match="not the minimum"):
        checks.check_min_placement(table, 3, 3, worse, table.summed(worse), "worse")


def test_min_placement_check_rejects_a_misreported_value():
    table = checks.InfluenceTable(9, README)
    best = [mask([1, 4, 7]), mask([2, 5, 8]), mask([3, 6, 9])]
    with pytest.raises(WrongAnswer, match="reported"):
        checks.check_min_placement(table, 3, 3, best, table.summed(best) + Fraction(2, 512), "misreported")


def test_placement_check_rejects_a_placement_that_cannot_compute_f():
    with pytest.raises(WrongAnswer, match="cannot compute"):
        checks.check_strict_placement(9, 3, 3, [mask([1, 2, 3])] * 3, mask(range(1, 10)), "uncovering")


def test_every_workload_keeps_its_job_count_across_seeds(tmp_path):
    for name, (build, _) in workloads.WORKLOADS.items():
        counts = {len(build(seed, tmp_path)) for seed in (1, 2)}
        assert len(counts) == 1, name
