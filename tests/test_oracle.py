"""Closed-form checkers and the rank-agreement study."""

import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial

import numpy as np
import pytest

import infplace
from infplace import oracle
from infplace.anf import BooleanFunctionANF, mask_from_indices
from infplace.influence import ExactLimitError, joint_influence_exact
from infplace.oracle import (
    check_lemma1,
    check_lemma2,
    check_theorem,
    corollary_study,
    disjoint_products,
)
from infplace.placement import EnumerationBudgetError, PlacementConfig
from infplace.transmission import count_transmissions, synthesize_exact


def test_disjoint_products_layout():
    f = disjoint_products(3, 2)
    assert f.num_datasets == 6
    assert str(f) == "W1W2 + W3W4 + W5W6"


def test_lemma1_default_grid_passes():
    report = check_lemma1()
    assert report.passed
    # all subsets for d <= 4 (1 + 3 + 7 + 15), capped at 20 beyond
    assert len(report.cases) == 106
    assert report.summary["failures"] == "0"
    assert report.seed == 0


def test_lemma1_small_degrees_enumerate_every_subset():
    report = check_lemma1(d_range=[1, 2], subset_trials=20)
    labels = [c.label for c in report.cases]
    assert labels == [
        "d=1 S={1}",
        "d=2 S={1}",
        "d=2 S={2}",
        "d=2 S={1,2}",
    ]
    assert [c.expected for c in report.cases] == ["1", "1/2", "1/2", "1/2"]
    assert report.passed


def test_lemma1_same_seed_same_report():
    a = check_lemma1(d_range=[6], subset_trials=12, seed=42)
    b = check_lemma1(d_range=[6], subset_trials=12, seed=42)
    assert a.to_json_text() == b.to_json_text()
    assert len(a.cases) == 12
    assert check_lemma1(d_range=[6], subset_trials=12, seed=7).passed


def test_lemma2_default_grid_passes():
    report = check_lemma2()
    assert report.passed
    # per degree d: (d-1) comparisons + closed form + monotonicity
    assert len(report.cases) == sum(d - 1 + 2 for d in range(2, 6))
    assert report.summary["failures"] == "0"


def test_lemma2_swap_values_collapse_to_one_value():
    # Observed at every tested degree: all swap counts give the same
    # influence, so the monotone case shows one repeated fraction.
    report = check_lemma2(d_range=[4])
    by_label = {c.label: c for c in report.cases}
    closed = by_label["d=4 one-swap closed form"]
    assert closed.expected == "7/32"
    assert closed.observed == "7/32"
    monotone = by_label["d=4 monotone in swap count"]
    assert monotone.observed == "7/32,7/32,7/32"
    assert monotone.passed


def test_lemma_checks_observe_full_truth_tables(monkeypatch):
    # The observed side must not come from joint_influence_exact, whose
    # count runs over the monomials that meet S only.
    def refuse(*args, **kwargs):
        raise AssertionError("lemma checks must count on the full truth table")

    monkeypatch.setattr(oracle, "joint_influence_exact", refuse)
    assert check_lemma1(d_range=[1, 2, 3, 6]).passed
    assert check_lemma2(d_range=[2, 3, 4]).passed


def test_lemma2_degree_two_boundary():
    report = check_lemma2(d_range=[2])
    by_label = {c.label: c for c in report.cases}
    assert by_label["d=2 one-swap closed form"].observed == "1/2"
    assert by_label["d=2 swaps=1 >= baseline"].passed


def test_theorem_three_servers_pairs():
    report = check_theorem(3, 2)
    assert report.passed
    assert report.summary["placements"] == "3375"
    assert report.summary["computable"] == "90"
    assert report.summary["min_as"] == "3/2"
    assert report.summary["aligned_as"] == "3/2"
    assert report.summary["aligned_T"] == "3"
    assert report.summary["min_T"] == "3"


def test_theorem_two_servers_triples():
    report = check_theorem(2, 3)
    assert report.passed
    assert report.summary["placements"] == "400"
    assert report.summary["computable"] == "20"
    assert report.summary["min_as"] == "1/2"
    assert report.summary["min_T"] == "2"
    assert report.summary["min_T_placement"] == "{1,2,3}; {4,5,6}"


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_theorem_summary_matches_ordered_reference(n, m):
    # Every ordered placement, one by one, as the checker once scanned them.
    f = disjoint_products(n, m)
    k = n * m
    subsets = [mask_from_indices(ix) for ix in combinations(range(1, k + 1), m)]
    influence = {s: joint_influence_exact(f, s).fraction for s in subsets}
    min_as, computable, min_t, min_t_placement = None, 0, None, None
    for combo in product(subsets, repeat=n):
        value = sum(influence[s] for s in combo)
        if min_as is None or value < min_as:
            min_as = value
        union = 0
        for s in combo:
            union |= s
        if f.support_mask & ~union:
            continue
        computable += 1
        placement = PlacementConfig(n, m, combo)
        t = count_transmissions(synthesize_exact(f, placement)).total
        if min_t is None or t < min_t:
            min_t, min_t_placement = t, placement

    summary = check_theorem(n, m).summary
    assert summary["placements"] == str(len(subsets) ** n)
    assert summary["min_as"] == str(min_as) == str(Fraction(n, 1 << (m - 1)))
    assert summary["computable"] == str(computable)
    assert summary["min_T"] == str(min_t)
    assert summary["min_T_placement"] == str(min_t_placement)


def test_theorem_three_servers_triples_summary():
    assert check_theorem(3, 3).summary == {
        "placements": "592704",
        "computable": "1680",
        "min_as": "3/4",
        "aligned_as": "3/4",
        "aligned_T": "3",
        "min_T": "3",
        "min_T_placement": "{1,2,3}; {4,5,6}; {7,8,9}",
    }


def test_theorem_five_servers_pairs_summary():
    # A grid the ordered-placement count once refused: C(10,2)^5 is past 10^7.
    n, m = 5, 2
    summary = check_theorem(n, m).summary
    assert summary == {
        "placements": "184528125",
        "computable": "113400",
        "min_as": "5/2",
        "aligned_as": "5/2",
        "aligned_T": "5",
        "min_T": "5",
        "min_T_placement": "{1,2}; {3,4}; {5,6}; {7,8}; {9,10}",
    }
    # Ordered placements, partitions of [NM] into N ordered M-sets, N/2^(M-1).
    assert int(summary["placements"]) == comb(n * m, m) ** n
    assert int(summary["computable"]) == factorial(n * m) // factorial(m) ** n
    assert Fraction(summary["min_as"]) == Fraction(n, 1 << (m - 1))


def sorted_matrix_key(rows):
    """Rows sorted, then columns, descending, until nothing moves."""
    rows = sorted(rows, reverse=True)
    while (resorted := sorted(zip(*sorted(zip(*rows), reverse=True)), reverse=True)) != rows:
        rows = resorted
    return tuple(rows)


def orbit_form(rows):
    """The least row-sorted matrix over every column order: one per orbit."""
    return min(tuple(sorted(zip(*cols))) for cols in permutations(zip(*rows)))


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2)])
def test_piece_count_depends_only_on_the_server_by_product_counts(n, m, monkeypatch):
    # check_theorem synthesizes one member per double-lex matrix, the
    # server-by-product count matrix with rows and columns sorted; here
    # every computable multiset is synthesized and compared with the first
    # of its row-sorted class and of its key, and each key lies in one
    # orbit of row and column permutations.
    f = disjoint_products(n, m)
    subsets = [mask_from_indices(ix) for ix in combinations(range(1, n * m + 1), m)]
    first_t, key_t, orbit = {}, {}, {}
    listed = 0
    for combo in combinations_with_replacement(subsets, n):
        union = 0
        for s in combo:
            union |= s
        if f.support_mask & ~union:
            continue
        listed += 1
        rows = [tuple((s & p).bit_count() for p in f.monomials) for s in combo]
        kinds, key = tuple(sorted(rows)), sorted_matrix_key(rows)
        t = count_transmissions(synthesize_exact(f, PlacementConfig(n, m, combo))).total
        assert first_t.setdefault(kinds, t) == t, combo
        assert key_t.setdefault(key, t) == t, combo
        assert orbit.setdefault(key, orbit_form(rows)) == orbit_form(rows), combo
    assert listed == factorial(n * m) // factorial(m) ** n // factorial(n)
    assert len(first_t) == {(3, 3): 10, (4, 2): 17}[n, m]
    assert len(key_t) == {(3, 3): 6, (4, 2): 8}[n, m]
    assert len(set(orbit.values())) == {(3, 3): 5, (4, 2): 5}[n, m]
    # check_theorem lists exactly these keys, largest first, and each
    # member it synthesizes has its listed matrix as its key.
    synthesized = []

    def recorded(f, placement):
        synthesized.append(placement)
        return synthesize_exact(f, placement)

    monkeypatch.setattr(oracle, "synthesize_exact", recorded)
    check_theorem(n, m)
    matrices = [
        tuple(tuple((s & p).bit_count() for p in f.monomials) for s in placement.subset_masks)
        for placement in synthesized[:-1]
    ]
    assert matrices == sorted(key_t, reverse=True)
    assert all(sorted_matrix_key(matrix) == matrix for matrix in matrices)


def test_theorem_synthesizes_once_per_class_and_once_aligned(monkeypatch):
    # The key counts are those the brute-force listing above finds.
    calls = []

    def counted(f, placement):
        calls.append(placement)
        return synthesize_exact(f, placement)

    monkeypatch.setattr(oracle, "synthesize_exact", counted)
    grids = [(3, 3, 6), (4, 2, 8), (4, 4, 108), (5, 3, 122), (8, 2, 128), (6, 3, 755)]
    for n, m, classes in grids:
        calls.clear()
        summary = check_theorem(n, m).summary
        assert summary["computable"] == str(factorial(n * m) // factorial(m) ** n)
        assert summary["min_T"] == str(n)
        assert len(calls) == classes + 1  # one member of each key, then aligned


# The (3,3) check tries 57 entries while listing the 6 double-lex
# matrices, and charges each matrix 3 a server and 2^a - 1 for each of its
# entries a: 83 over the 6.
THEOREM_3_3_STEPS = 57 + 6 * 3 * 3 + 83


def test_theorem_respects_enumeration_budget(monkeypatch):
    counted, synthesized = [], []

    def influence(f, flip):
        counted.append(flip)
        return joint_influence_exact(f, flip)

    def synthesize(f, placement):
        synthesized.append(placement)
        return synthesize_exact(f, placement)

    monkeypatch.setattr(oracle, "joint_influence_exact", influence)
    monkeypatch.setattr(oracle, "synthesize_exact", synthesize)
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", THEOREM_3_3_STEPS - 1)
    with pytest.raises(EnumerationBudgetError) as exc:
        check_theorem(3, 3)
    assert str(exc.value) == "placement search steps exceed the enumeration budget 193"
    # Refused before any synthesis and before any influence is counted.
    assert synthesized == [] and counted == []
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", THEOREM_3_3_STEPS)
    assert check_theorem(3, 3).passed
    assert len(synthesized) == 6 + 1  # one member of each key, then aligned


def test_theorem_counts_one_influence_per_row_a_server_can_hold(monkeypatch):
    import infplace.placement as placement_module

    def no_space(*args):
        raise AssertionError("check_theorem lists no subsets")

    counted = []

    def influence(f, flip):
        counted.append(flip)
        return joint_influence_exact(f, flip)

    monkeypatch.setattr(placement_module.PlacementSpace, "__init__", no_space)
    monkeypatch.setattr(oracle, "joint_influence_exact", influence)
    # C(24,12) = 2,704,156 subsets, of 13 rows (a, 12 - a).
    report = check_theorem(2, 12)
    assert report.passed and report.summary["min_as"] == "1/1024"
    assert [(flip & 0xFFF).bit_count() for flip in counted] == list(range(12, -1, -1))
    # A subset that meets both products of (2,13) spans 26 datasets.
    counted.clear()
    with pytest.raises(ExactLimitError, match="span 26 datasets"):
        check_theorem(2, 13)
    assert len(counted) == 2


# (5,3) is also what a 142 s run of the old multiset walk found, with its
# budget guard bypassed: 168,168,000 computable, min_T 5, min_as 5/4.
@pytest.mark.parametrize(
    "n,m,computable",
    [
        (4, 4, "63063000"),
        (5, 3, "168168000"),
        (9, 2, "12504636144000"),
        (7, 3, "182509367040000"),
        (6, 4, "3246670537110000"),
    ],
)
def test_theorem_answers_the_grids_past_the_multiset_walk(n, m, computable):
    # Every expected value is a closed form, or the aligned placement spelled out.
    report = check_theorem(n, m)
    assert report.passed
    aligned = "; ".join(
        "{" + ",".join(str(server * m + d) for d in range(1, m + 1)) + "}" for server in range(n)
    )
    assert computable == str(factorial(n * m) // factorial(m) ** n)
    assert report.summary == {
        "placements": str(comb(n * m, m) ** n),
        "computable": computable,
        "min_as": str(Fraction(n, 1 << (m - 1))),
        "aligned_as": str(Fraction(n, 1 << (m - 1))),
        "aligned_T": str(n),
        "min_T": str(n),
        "min_T_placement": aligned,
    }


def test_theorem_tries_one_type_per_server_at_single_dataset_caches(monkeypatch):
    # One type per product, and one double-lex matrix, the identity,
    # charged N + 1 a server.  Row i < N-1 tries 2N-1-i entries: i forced
    # zeros, a 1 and the N-1-i zeros after it, then a 0 after which the tied
    # columns take only zeros up to the last; the last row tries N.
    n = 24
    steps = 3 * n * (n - 1) // 2 + n + n * (n + 1)
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", steps - 1)
    with pytest.raises(EnumerationBudgetError):
        check_theorem(n, 1)
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", steps)
    report = check_theorem(n, 1)
    assert report.passed
    assert report.summary == {
        "placements": str(n**n),
        "computable": str(factorial(n)),
        "min_as": str(n),
        "aligned_as": str(n),
        "aligned_T": str(n),
        "min_T": str(n),
        "min_T_placement": "; ".join(f"{{{d}}}" for d in range(1, n + 1)),
    }


def test_ordering_violations_are_counted_without_the_pair_list():
    # Few distinct values, so most pairs tie in one column or both.
    rng = random.Random(5)
    for trial in range(300):
        rows = [(rng.randint(0, 4) << 70, rng.randint(0, 3)) for _ in range(rng.randint(0, 60))]
        pairs = [
            (i, j)
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if (rows[i][0] - rows[j][0]) * (rows[i][1] - rows[j][1]) < 0
        ]
        assert oracle._discordant_count(rows) == len(pairs), rows
        for wanted in {0, 1, min(len(pairs), oracle.RECORDED_VIOLATIONS), len(pairs)}:
            assert oracle._first_discordant(rows, wanted) == pairs[:wanted], rows


def test_corollary_study_records_but_never_fails():
    f = BooleanFunctionANF.from_indices(5, [[1], [2, 3, 4, 5]])
    low_as_high_t = PlacementConfig.from_indices(3, [[1, 2, 3], [4, 5]])
    high_as_low_t = PlacementConfig.from_indices(4, [[1], [2, 3, 4, 5]])
    report = corollary_study(f, [high_as_low_t, low_as_high_t])
    assert report.passed  # report-only by design
    assert report.summary["ordering_violations"] == "1"
    assert report.summary["violation_examples"] == (
        "#0(as=9/8,T=2) vs #1(as=1,T=3)"
    )
    assert float(report.summary["spearman_rho"]) == pytest.approx(-1.0)
    assert report.cases[0].observed == "as=9/8 T=2 inf=[1;1/8] pieces=[1, 1]"
    assert report.cases[1].observed == "as=1 T=3 inf=[7/8;1/8] pieces=[2, 1]"


def test_average_ranks_share_ties():
    ranks = oracle._average_ranks([0.5, 0.25, 0.5, 1.0, 0.25, 0.5])
    assert ranks.tolist() == [4.0, 1.5, 4.0, 6.0, 1.5, 4.0]


def test_rank_correlation_matches_scipy_bit_for_bit():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(2024)
    compared = 0
    for trial in range(400):
        size = rng.randrange(2, 40)
        # Few distinct values force ties; every other trial is untied.
        spread = rng.randrange(2, 5) if trial % 2 else 1 << 30
        a = [rng.randrange(spread) / 8 for _ in range(size)]
        b = [float(rng.randrange(spread)) for _ in range(size)]
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        ranks = np.column_stack((oracle._average_ranks(a), oracle._average_ranks(b)))
        rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])
        assert repr(rho) == repr(float(stats.spearmanr(a, b).statistic)), (a, b)
        compared += 1
    assert compared > 300


def test_corollary_study_loads_no_scipy():
    # The rank correlation is computed, so the study runs its full path.
    package_root = os.path.dirname(os.path.dirname(infplace.__file__))
    code = (
        f"import sys; sys.path.insert(0, {package_root!r})\n"
        "from infplace.anf import BooleanFunctionANF\n"
        "from infplace.oracle import corollary_study\n"
        "from infplace.placement import PlacementConfig\n"
        "f = BooleanFunctionANF.from_indices(5, [[1], [2, 3, 4, 5]])\n"
        "pair = [PlacementConfig.from_indices(4, [[1], [2, 3, 4, 5]]),\n"
        "        PlacementConfig.from_indices(3, [[1, 2, 3], [4, 5]])]\n"
        "print(corollary_study(f, pair).summary['spearman_rho'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    # scipy's spearmanr gave the same last-bit value.
    assert proc.stdout.splitlines() == ["-0.9999999999999999", "[]"]


def test_corollary_study_constant_columns_have_no_rho():
    f = disjoint_products(2, 2)
    p1 = PlacementConfig.from_indices(2, [[1, 2], [3, 4]])
    p2 = PlacementConfig.from_indices(2, [[3, 4], [1, 2]])
    report = corollary_study(f, [p1, p2])
    assert report.summary["spearman_rho"] == "n/a"
    assert report.summary["ordering_violations"] == "0"
    assert report.summary["violation_examples"] == "none"


def reference_corollary(f, placements):
    """The study computed placement by placement on Fractions, every
    subset's influence counted anew: (case observations, summary)."""
    rows, observed = [], []
    for placement in placements:
        per_inf = [joint_influence_exact(f, s).fraction for s in placement.subset_masks]
        as_value = sum(per_inf)
        counts = count_transmissions(
            synthesize_exact(f, placement), num_servers=placement.num_servers
        )
        rows.append((as_value, counts.total))
        observed.append(
            f"as={as_value} T={counts.total}"
            f" inf=[{';'.join(map(str, per_inf))}]"
            f" pieces={list(counts.per_server)}"
        )
    violations = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            da = rows[i][0] - rows[j][0]
            dt = rows[i][1] - rows[j][1]
            if (da < 0 and dt > 0) or (da > 0 and dt < 0):
                violations.append((i, j))
    rho = None
    as_col = [float(a) for a, _ in rows]
    t_col = [float(t) for _, t in rows]
    if len(set(as_col)) > 1 and len(set(t_col)) > 1:
        ranks = np.column_stack(
            (oracle._average_ranks(as_col), oracle._average_ranks(t_col))
        )
        rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    recorded = "; ".join(
        f"#{i}(as={rows[i][0]},T={rows[i][1]}) vs #{j}(as={rows[j][0]},T={rows[j][1]})"
        for i, j in violations[:10]
    )
    summary = {
        "placements": str(len(rows)),
        "spearman_rho": "n/a" if rho is None else repr(rho),
        "ordering_violations": str(len(violations)),
        "violation_examples": recorded or "none",
    }
    return observed, summary


def test_corollary_study_matches_the_per_placement_fraction_study():
    rng = random.Random(7)
    seen = {"violations": 0, "rho": 0, "repeats": 0, "sizes": 0}
    for _ in range(40):
        k = rng.randint(3, 7)
        monomials = [
            rng.sample(range(1, k + 1), rng.randint(1, min(4, k)))
            for _ in range(rng.randint(1, 4))
        ]
        f = BooleanFunctionANF.from_indices(k, monomials)
        # A small pool of subsets, so placements repeat subsets within and
        # across themselves; a server is added for any dataset left out,
        # so placements differ in size.
        pool = [mask_from_indices(rng.sample(range(1, k + 1), rng.randint(1, k)))
                for _ in range(rng.randint(2, 5))]
        placements = []
        for _ in range(rng.randint(2, 25)):
            masks = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            missing = f.support_mask
            for m in masks:
                missing &= ~m
            if missing:
                masks.append(missing)
            placements.append(PlacementConfig(len(masks), k, tuple(masks)))
        report = corollary_study(f, placements)
        observed, summary = reference_corollary(f, placements)
        assert [(c.label, c.expected, c.observed, c.passed) for c in report.cases] == [
            (str(p), "-", o, True) for p, o in zip(placements, observed)
        ]
        assert report.summary == summary
        seen["violations"] += summary["ordering_violations"] != "0"
        seen["rho"] += summary["spearman_rho"] != "n/a"
        seen["repeats"] += any(len(set(p.subset_masks)) < p.num_servers for p in placements)
        seen["sizes"] += len({p.num_servers for p in placements}) > 1
    assert min(seen.values()) >= 5, seen


def test_report_json_and_csv_shapes():
    report = check_lemma2(d_range=[2, 3])
    obj = json.loads(report.to_json_text())
    assert set(obj) == {"claim", "grid", "cases", "summary", "seed", "passed"}
    assert obj["passed"] is True
    assert obj["seed"] is None
    assert len(obj["cases"]) == len(report.cases)
    assert set(obj["cases"][0]) == {"label", "expected", "observed", "pass"}

    rows = list(csv.reader(io.StringIO(report.to_csv_text())))
    assert rows[0] == ["label", "expected", "observed", "pass"]
    assert len(rows) == len(report.cases) + 1
    assert all(row[3] in ("true", "false") for row in rows[1:])
