"""Acceptance gate: the eight headline behaviors, each timed and printed
as a single pass/fail line.  Run with plain pytest; the lines bypass
capture so they always appear."""

import hashlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from infplace.anf import BooleanFunctionANF, mask_from_indices
from infplace.cli import main
from infplace.influence import (
    EstimatorConfig,
    avg_joint_sensitivity,
    joint_influence_exact,
    joint_influence_mc,
    joint_sensitivity,
)
from infplace.oracle import check_lemma1, check_lemma2, check_theorem
from infplace.placement import PlacementConfig
from infplace.transmission import (
    count_transmissions,
    scheme_structure_errors,
    scheme_to_json,
    synthesize_exact,
    synthesize_greedy,
    verify_scheme,
)

from conftest import DISJOINT_PAIRS_JSON, EXAMPLE_FUNCTION_JSON, WINDOW_PLACEMENT_JSON


@contextmanager
def criterion(capsys, number, name, time_limit):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok and elapsed < time_limit else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.1f}s)")
    assert elapsed < time_limit, f"{name}: {elapsed:.1f}s exceeds {time_limit}s"


def random_function(rng, k_max=12):
    k = rng.randint(3, k_max)
    masks = [rng.randrange(1, 1 << k) for _ in range(rng.randint(1, 4))]
    return BooleanFunctionANF.from_masks(k, masks)


def covering_placement(rng, f, num_servers):
    k = f.num_datasets
    subsets = [rng.randrange(1, 1 << k) for _ in range(num_servers)]
    union = 0
    for s in subsets:
        union |= s
    subsets[rng.randrange(num_servers)] |= f.support_mask & ~union
    size = max(s.bit_count() for s in subsets)
    return PlacementConfig(num_servers, size, tuple(subsets))


def test_acceptance_1_example_reproduction(capsys, example_function, window_placement, overlap_placement):
    with criterion(capsys, 1, "example-reproduction", 5.0):
        for placement, expected_total in [(window_placement, 6), (overlap_placement, 4)]:
            scheme = synthesize_exact(example_function, placement)
            assert count_transmissions(scheme).total == expected_total
            result = verify_scheme(scheme, example_function)
            assert result.passed
            assert result.mode == "exhaustive"
            assert result.inputs_checked == 512


def test_acceptance_2_optimal_placement_grids(capsys):
    with criterion(capsys, 2, "optimal-placement-grids", 60.0):
        for n, m, want in [(3, 2, "3/2"), (2, 3, "1/2")]:
            report = check_theorem(n, m)
            assert report.passed
            assert report.summary["min_as"] == want
            assert report.summary["aligned_as"] == want
            assert report.summary["aligned_T"] == str(n)
            assert report.summary["min_T"] == str(n)


def test_acceptance_3_single_product_influence(capsys):
    with criterion(capsys, 3, "single-product-influence", 10.0):
        report = check_lemma1(d_range=range(1, 9), seed=0)
        assert report.passed
        assert all(c.passed for c in report.cases)


def test_acceptance_4_swap_monotonicity(capsys):
    with criterion(capsys, 4, "swap-monotonicity", 10.0):
        report = check_lemma2(d_range=range(2, 6))
        assert report.passed
        assert all(c.passed for c in report.cases)


def test_acceptance_5_decoder_soundness(capsys):
    with criterion(capsys, 5, "decoder-soundness", 120.0):
        rng = random.Random(1405)
        checked = 0
        digest = hashlib.sha256()
        for _ in range(500):
            f = random_function(rng)
            placement = covering_placement(rng, f, rng.randint(1, 4))
            exact = synthesize_exact(f, placement)
            digest.update(scheme_to_json(exact).encode())
            greedy = synthesize_greedy(f, placement)
            t_exact = count_transmissions(exact).total
            t_greedy = count_transmissions(greedy).total
            assert t_exact <= t_greedy
            for scheme in (exact, greedy):
                assert scheme_structure_errors(scheme, f) == []
                result = verify_scheme(scheme, f)
                assert result.passed and result.mode == "exhaustive"
                assert result.inputs_checked == 1 << f.num_datasets
            checked += 1
        assert checked == 500
        # All 500 exact schemes, byte for byte.  The pruning bound of the
        # exact search must not move them (see _search_min_distinct).
        assert digest.hexdigest() == (
            "18bb4b1b5d70671d22c5c76e5aea65815a486288bde6afc211ccc71b7659168f"
        )


def test_acceptance_6_influence_invariants(capsys):
    with criterion(capsys, 6, "influence-invariants", 60.0):
        rng = random.Random(64)

        for _ in range(120):  # complement invariance
            f = random_function(rng)
            flipped = BooleanFunctionANF.from_masks(
                f.num_datasets, list(f.monomials) + [0]
            )
            s = rng.randrange(1, 1 << f.num_datasets)
            assert joint_influence_exact(f, s) == joint_influence_exact(flipped, s)

        for _ in range(120):  # empty flip set changes nothing
            f = random_function(rng)
            assert joint_influence_exact(f, 0).fraction == 0

        for _ in range(120):  # relabeling datasets relabels nothing else
            f = random_function(rng)
            k = f.num_datasets
            perm = rng.sample(range(k), k)

            def remap(mask):
                out = 0
                for bit in range(k):
                    if mask >> bit & 1:
                        out |= 1 << perm[bit]
                return out

            g = BooleanFunctionANF.from_masks(k, [remap(m) for m in f.monomials])
            s = rng.randrange(1, 1 << k)
            assert joint_influence_exact(f, s).fraction == joint_influence_exact(g, remap(s)).fraction

        for _ in range(100):  # summed influence == mean per-input sensitivity
            f = random_function(rng, k_max=9)
            placement = covering_placement(rng, f, rng.randint(1, 3))
            k = f.num_datasets
            total = sum(
                joint_sensitivity(f, placement.subset_masks, w) for w in range(1 << k)
            )
            direct = Fraction(total, 1 << k)
            assert avg_joint_sensitivity(f, placement).fraction == direct


def test_acceptance_7_mc_calibration(capsys):
    with criterion(capsys, 7, "mc-calibration", 300.0):
        f = BooleanFunctionANF.from_indices(30, [[1, 2, 3, 4, 5]])
        flip = mask_from_indices([1, 2, 3, 4, 5])
        truth = Fraction(1, 16)
        epsilon, delta, runs = 0.01, 1e-3, 200
        misses = 0
        for seed in range(runs):
            value = joint_influence_mc(f, flip, EstimatorConfig(epsilon, delta, seed))
            if abs(value.mean - float(truth)) > epsilon:
                misses += 1
        allowed = runs * delta + 3 * (runs * delta * (1 - delta)) ** 0.5
        assert misses <= allowed, f"{misses} misses, {allowed:.2f} allowed"


def test_acceptance_8_cli_determinism(capsys, tmp_path):
    f_path = tmp_path / "f.json"
    pairs_path = tmp_path / "pairs.json"
    window_path = tmp_path / "window.json"
    f4_path = tmp_path / "f4.json"
    f_path.write_text(EXAMPLE_FUNCTION_JSON)
    pairs_path.write_text(DISJOINT_PAIRS_JSON)
    window_path.write_text(WINDOW_PLACEMENT_JSON)
    f4_path.write_text('{"K":4,"monomials":[[1,2],[3,4]]}\n')
    scheme_path = tmp_path / "scheme.json"
    assert main([
        "synthesize", "--exact", "-f", str(f_path), "-p", str(window_path),
        "-o", str(scheme_path),
    ]) == 0
    capsys.readouterr()

    # argv template -> primary output file names written under {out}
    commands = [
        (["influence", "-f", str(f_path), "--subset", "1,4,7"], []),
        (["influence", "-f", str(f_path), "--subset", "1,4,7", "--mc", "--seed", "11"], []),
        (["avg-sensitivity", "-f", str(f_path), "-p", str(window_path), "--mc"], []),
        (["place", "-f", str(pairs_path), "-N", "3", "-M", "2", "-o", "{out}/best.json"], ["best.json"]),
        (["synthesize", "--exact", "-f", str(f_path), "-p", str(window_path), "-o", "{out}/scheme.json"], ["scheme.json"]),
        (["verify", "-s", str(scheme_path), "-f", str(f_path)], []),
        (["oracle", "lemma1", "-d", "1..4", "--trials", "10", "-o", "{out}/report.json", "--csv", "{out}/cases.csv"], ["report.json", "cases.csv"]),
        (["sweep", "-f", str(f4_path), "-N", "2", "-M", "2", "-o", "{out}/sweep.csv"], ["sweep.csv"]),
    ]

    with criterion(capsys, 8, "cli-determinism", 300.0):
        for index, (template, filenames) in enumerate(commands):
            observations = []
            for run, threads in enumerate([1, 1, 8, 8]):
                out_dir = tmp_path / f"cmd{index}_run{run}"
                out_dir.mkdir()
                argv = [a.replace("{out}", str(out_dir)) for a in template]
                argv += ["--threads", str(threads)]
                assert main(argv) == 0
                stdout, _ = capsys.readouterr()
                files = {n: (out_dir / n).read_bytes() for n in filenames}
                observations.append((stdout, files))
            first = observations[0]
            assert all(obs == first for obs in observations[1:]), template[0]
