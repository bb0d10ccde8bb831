"""End-to-end command line behavior via in-process main() calls, plus the
``python -m infplace`` and console-script entry points run as subprocesses."""

import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import argparse

import infplace
from infplace.anf import BooleanFunctionANF
from infplace.cli import _positive_int, main
from infplace.placement import PlacementConfig
from infplace.transmission import count_transmissions, synthesize_exact, synthesize_greedy

from conftest import (
    DISJOINT_PAIRS_JSON,
    EXAMPLE_FUNCTION_JSON,
    OVERLAP_PLACEMENT_JSON,
    WINDOW_PLACEMENT_JSON,
)

HEX64 = re.compile(r"^[0-9a-f]{64}$")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("f.json", EXAMPLE_FUNCTION_JSON),
        ("window.json", WINDOW_PLACEMENT_JSON),
        ("overlap.json", OVERLAP_PLACEMENT_JSON),
        ("pairs.json", DISJOINT_PAIRS_JSON),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def stderr_manifest(captured_err: str) -> dict:
    return json.loads(captured_err.strip().splitlines()[-1])


def test_influence_exact(files, capsys):
    assert main(["influence", "-f", files["f.json"], "--subset", "1,4,7"]) == 0
    out, err = capsys.readouterr()
    assert out == "160/512\n"
    manifest = stderr_manifest(err)
    assert manifest["command"] == "influence"
    assert manifest["seed"] == 2024
    assert manifest["arguments"][0] == "influence"
    (digest,) = manifest["inputs"].values()
    assert HEX64.match(digest)
    assert manifest["duration_seconds"] >= 0


def test_influence_empty_subset(files, capsys):
    assert main(["influence", "-f", files["f.json"], "--subset", ""]) == 0
    assert capsys.readouterr().out == "0/512\n"


def test_influence_mc_thread_invariant(files, capsys):
    argv = ["influence", "-f", files["f.json"], "--subset", "1,4,7", "--mc", "--seed", "7"]
    assert main(argv) == 0
    single = capsys.readouterr().out
    assert main(argv + ["--threads", "8"]) == 0
    assert capsys.readouterr().out == single
    assert single == "0.3122747006972767 ± 0.00999993583688275 (samples=38005, seed=7)\n"


def test_avg_sensitivity_exact(files, capsys):
    assert main(["avg-sensitivity", "-f", files["f.json"], "-p", files["window.json"]]) == 0
    assert capsys.readouterr().out == "19/16\n"


def test_avg_sensitivity_mc_is_seeded(files, capsys):
    argv = ["avg-sensitivity", "-f", files["f.json"], "-p", files["window.json"], "--mc"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first == "1.1871858965925537 ± 0.02999980751064825 (samples=None, seed=None)\n"


def test_avg_sensitivity_mc_rejects_out_of_range_subsets(files, capsys, tmp_path):
    p_path = tmp_path / "far.json"
    p_path.write_text('{"N":1,"M":2,"subsets":[[1,10]]}\n')
    argv = ["avg-sensitivity", "-f", files["f.json"], "-p", str(p_path), "--mc"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: placement subset 513 references datasets outside [1, 9]\n"


def test_place_stdout_mode(files, capsys):
    assert main(["place", "-f", files["pairs.json"], "-N", "3", "-M", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == '{"M":2,"N":3,"subsets":[[1,2],[3,4],[5,6]]}\n'
    assert err.splitlines()[0] == "as = 3/2"
    assert stderr_manifest(err)["command"] == "place"


def test_place_file_mode(files, capsys, tmp_path):
    out_path = tmp_path / "best.json"
    argv = [
        "place", "-f", files["pairs.json"], "-N", "3", "-M", "2",
        "-o", str(out_path), "--threads", "4",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "as = 3/2\n"
    assert out_path.read_text() == '{"M":2,"N":3,"subsets":[[1,2],[3,4],[5,6]]}\n'
    manifest = json.loads((tmp_path / "best.json.manifest.json").read_text())
    assert manifest["command"] == "place"


def test_place_aligned_method(files, capsys):
    argv = ["place", "-f", files["f.json"], "-N", "3", "-M", "6", "--method", "aligned"]
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)["subsets"][0] == [1, 2, 3, 4, 5, 7]


def test_place_answers_past_the_ordered_placement_count(files, capsys):
    # C(9,3)^4 ordered placements are past the default budget, yet the
    # search needs far fewer steps.  A brute force over all 84-multichoose-4
    # server multisets finds the same minimiser and 416/512.
    assert main(["place", "-f", files["f.json"], "-N", "4", "-M", "3"]) == 0
    out, err = capsys.readouterr()
    assert out == '{"M":3,"N":4,"subsets":[[1,4,7],[2,5,8],[2,5,8],[3,6,9]]}\n'
    assert err.splitlines()[0] == "as = 13/16"


@pytest.mark.parametrize(
    "k,monomials,subsets,value",
    [
        (14, [[2, 7], [2, 9], [4, 9], [6, 10], [3, 7, 11]],
         [[1, 5, 8, 12], [1, 5, 8, 12], [2, 3, 4, 11], [6, 7, 9, 10]], "3/4"),
        (16, [[3, 14], [2, 3, 4], [5, 7, 11], [1, 2, 7, 16], [1, 4, 6, 10]],
         [[1, 2, 4, 14], [3, 5, 7, 11], [6, 8, 10, 16], [8, 9, 12, 13]], "33/32"),
    ],
    ids=["K14", "K16"],
)
def test_place_answers_random_functions_at_four_servers(k, monomials, subsets, value, capsys, tmp_path):
    # Random non-aligned functions (random.Random(7), N+1 monomials of 2-4
    # datasets each).  The subset-by-subset pruned search that the twin-class
    # search replaced, with its budget raised, found the same minimisers and
    # values, 12288/16384 and 67584/65536.
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"K": k, "monomials": monomials}))
    assert main(["place", "-f", str(path), "-N", "4", "-M", "4"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"M": 4, "N": 4, "subsets": subsets}
    assert err.splitlines()[0] == f"as = {value}"


def test_place_budget_counts_search_steps(files, capsys):
    # The search on the example function at (3,3) takes exactly 244 steps.
    argv = ["place", "-f", files["f.json"], "-N", "3", "-M", "3", "--budget"]
    assert main(argv + ["244"]) == 0
    assert capsys.readouterr().out == '{"M":3,"N":3,"subsets":[[1,4,7],[2,5,8],[3,6,9]]}\n'
    assert main(argv + ["243"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: placement search steps exceed the enumeration budget 243",
        "hint: raise --budget or shrink the instance",
    ]


def test_synthesize_exact_file_mode(files, capsys, tmp_path):
    out_path = tmp_path / "scheme.json"
    argv = [
        "synthesize", "--exact", "-f", files["f.json"],
        "-p", files["window.json"], "-o", str(out_path),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "T = 6\n"
    scheme = json.loads(out_path.read_text())
    assert len(scheme["pieces"]) == 6
    manifest = json.loads((tmp_path / "scheme.json.manifest.json").read_text())
    assert manifest["transmissions"] == 6
    assert len(manifest["inputs"]) == 2
    assert all(HEX64.match(v) for v in manifest["inputs"].values())


def test_synthesize_overlap_placement_saves_pieces(files, capsys):
    argv = ["synthesize", "--exact", "-f", files["f.json"], "-p", files["overlap.json"]]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert len(json.loads(out)["pieces"]) == 4
    assert err.splitlines()[0] == "T = 4"


def test_synthesize_requires_a_mode(files):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "-f", files["f.json"], "-p", files["window.json"]])
    assert exc.value.code == 2


def test_verify_round_trip(files, capsys, tmp_path):
    scheme_path = tmp_path / "scheme.json"
    main([
        "synthesize", "--exact", "-f", files["f.json"],
        "-p", files["window.json"], "-o", str(scheme_path),
    ])
    capsys.readouterr()
    assert main(["verify", "-s", str(scheme_path), "-f", files["f.json"]]) == 0
    out, _ = capsys.readouterr()
    assert out == "PASS 512/512 inputs (exhaustive)\n"


def test_verify_fail_prints_counterexample(files, capsys, tmp_path):
    scheme_path = tmp_path / "scheme.json"
    main([
        "synthesize", "--exact", "-f", files["f.json"],
        "-p", files["overlap.json"], "-o", str(scheme_path),
    ])
    capsys.readouterr()
    tampered = scheme_path.read_text().replace("[8]", "[9]")
    scheme_path.write_text(tampered)
    assert main(["verify", "-s", str(scheme_path), "-f", files["f.json"]]) == 5
    out, err = capsys.readouterr()
    assert re.match(r"^FAIL counterexample=[01]{9} \(exhaustive\)\n$", out)
    assert "structure:" in err


def test_verify_fails_on_structure_errors_even_when_decoding_passes(capsys, tmp_path):
    # W1W2 from the overlapping pieces {1,2} and {1}: the product is still
    # W1W2, so every input decodes, but the row is not a partition.
    f_path = tmp_path / "w1w2.json"
    f_path.write_text('{"K":2,"monomials":[[1,2]]}\n')
    s_path = tmp_path / "overlap.json"
    s_path.write_text(
        '{"constant":0,"pieces":[{"server":7,"vars":[1,2]},{"server":1,"vars":[1]}],'
        '"plan":[[0,1]]}\n'
    )
    assert main(["verify", "-s", str(s_path), "-f", str(f_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "FAIL structure errors=1, decoded 4/4 inputs (exhaustive)\n"
    assert err.splitlines()[0] == "structure: plan row 0: overlapping pieces"


def test_verify_fails_without_decoding_on_plan_row_count(capsys, tmp_path):
    f_path = tmp_path / "w1w2.json"
    f_path.write_text('{"K":2,"monomials":[[1,2]]}\n')
    s_path = tmp_path / "two_rows.json"
    s_path.write_text(
        '{"constant":0,"pieces":[{"server":1,"vars":[1,2]}],"plan":[[0],[0]]}\n'
    )
    assert main(["verify", "-s", str(s_path), "-f", str(f_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "FAIL structure errors=1, not decoded\n"
    assert err.splitlines()[0] == "structure: plan has 2 rows for 1 monomials"


def test_verify_with_placement_passes_a_synthesized_scheme(files, capsys, tmp_path):
    scheme_path = tmp_path / "scheme.json"
    main([
        "synthesize", "--exact", "-f", files["f.json"],
        "-p", files["window.json"], "-o", str(scheme_path),
    ])
    capsys.readouterr()
    argv = ["verify", "-s", str(scheme_path), "-f", files["f.json"], "-p", files["window.json"]]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == "PASS 512/512 inputs (exhaustive)\n"
    assert "structure:" not in err


@pytest.mark.parametrize(
    "pieces,problem",
    [
        (
            '[{"server":3,"vars":[1,2]}]',
            "structure: piece (1, 2) on server 3: no such server among N=2",
        ),
        (
            '[{"server":2,"vars":[1,2]}]',
            "structure: piece (1, 2) on server 2: server does not hold (1,)",
        ),
    ],
)
def test_verify_with_placement_fails_on_pieces_their_server_cannot_send(
    pieces, problem, capsys, tmp_path
):
    f_path = tmp_path / "w1w2.json"
    f_path.write_text('{"K":3,"monomials":[[1,2]]}\n')
    p_path = tmp_path / "p.json"
    p_path.write_text('{"N":2,"M":2,"subsets":[[1,2],[2,3]]}\n')
    s_path = tmp_path / "s.json"
    s_path.write_text('{"constant":0,"pieces":' + pieces + ',"plan":[[0]]}\n')
    assert main(["verify", "-s", str(s_path), "-f", str(f_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "-s", str(s_path), "-f", str(f_path), "-p", str(p_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "FAIL structure errors=1, decoded 8/8 inputs (exhaustive)\n"
    assert err.splitlines()[0] == problem


@pytest.mark.parametrize("k,past", [(3, 9), (21, 30)])
@pytest.mark.parametrize("with_placement", [False, True])
def test_verify_fails_without_decoding_on_a_piece_past_k(k, past, with_placement, capsys, tmp_path):
    # Exhaustive (K=3) and sampled (K=21) paths: the unused piece {past}
    # names a dataset f does not have, so decoding must not start.
    f_path = tmp_path / "w1w2.json"
    f_path.write_text('{"K":%d,"monomials":[[1,2]]}\n' % k)
    p_path = tmp_path / "p.json"
    p_path.write_text('{"N":1,"M":2,"subsets":[[1,2]]}\n')
    s_path = tmp_path / "past.json"
    s_path.write_text(
        '{"constant":0,"pieces":[{"server":1,"vars":[1,2]},{"server":1,"vars":[%d]}],'
        '"plan":[[0]]}\n' % past
    )
    argv = ["verify", "-s", str(s_path), "-f", str(f_path)]
    assert main(argv + (["-p", str(p_path)] if with_placement else [])) == 5
    out, err = capsys.readouterr()
    assert out == "FAIL structure errors=1, not decoded\n"
    problem = f"structure: piece ({past},) on server 1: dataset(s) ({past},) past K={k}"
    assert err.splitlines()[0] == problem
    assert "structure:" not in err.partition("\n")[2]


def test_verify_sampled_for_wide_functions(capsys, tmp_path):
    f_path = tmp_path / "wide.json"
    p_path = tmp_path / "wide_p.json"
    s_path = tmp_path / "wide_s.json"
    f_path.write_text('{"K":22,"monomials":[[1,2,3],[10,20]]}\n')
    p_path.write_text(
        '{"N":2,"M":11,"subsets":[[1,2,3,4,5,6,7,8,9,10,11],'
        '[12,13,14,15,16,17,18,19,20,21,22]]}\n'
    )
    main(["synthesize", "--greedy", "-f", str(f_path), "-p", str(p_path), "-o", str(s_path)])
    capsys.readouterr()
    assert main(["verify", "-s", str(s_path), "-f", str(f_path)]) == 0
    assert capsys.readouterr().out == "PASS 100000/100000 inputs (sampled, seed=2024)\n"


def test_verify_sampled_fails_a_wrong_scheme_that_no_sample_catches(capsys, tmp_path):
    # W1...W23W25 for W1...W24 at K=30 differs on 2^-24 of the inputs, so
    # no sample fails; the counterexample is where the two products differ.
    f_path = tmp_path / "w24.json"
    f_path.write_text('{"K":30,"monomials":[%s]}\n' % list(range(1, 25)))
    s_path = tmp_path / "s.json"
    s_path.write_text(
        '{"constant":0,"pieces":[{"server":1,"vars":%s},{"server":1,"vars":[25]}],'
        '"plan":[[0,1]]}\n' % list(range(1, 24))
    )
    assert main(["verify", "-s", str(s_path), "-f", str(f_path), "--seed", "1"]) == 5
    out, err = capsys.readouterr()
    assert out == f"FAIL counterexample={'1' * 24}{'0' * 6} (sampled, seed=1)\n"
    assert err.startswith("structure: plan row 0: pieces cover")


def test_oracle_lemma2_stdout(files, capsys):
    assert main(["oracle", "lemma2", "-d", "2..3"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["passed"] is True
    assert err.startswith("influence increase under support swaps: pass;")


def test_oracle_lemma1_files(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    argv = [
        "oracle", "lemma1", "-d", "1..3", "--trials", "10",
        "-o", str(out_path), "--csv", str(csv_path),
    ]
    assert main(argv) == 0
    note, _ = capsys.readouterr()
    assert note.startswith("single-product influence: pass;")
    assert json.loads(out_path.read_text())["passed"] is True
    assert csv_path.read_text().splitlines()[0] == "label,expected,observed,pass"
    assert (tmp_path / "report.json.manifest.json").exists()


def test_oracle_theorem_via_cli(capsys):
    assert main(["oracle", "theorem", "-N", "2", "-M", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["min_as"] == "1"
    assert report["summary"]["min_T"] == "2"


def test_oracle_theorem_needs_sizes(capsys):
    assert main(["oracle", "theorem"]) == 2
    assert "needs --num-servers, --cache-size" in capsys.readouterr().err


def test_oracle_corollary_default_function(capsys):
    # Only the 6 ordered partitions of the 4 datasets into two pairs
    # can compute the default two-product function.
    assert main(["oracle", "corollary", "-N", "2", "-M", "2", "--limit", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["summary"]["placements"] == "6"
    assert main(["oracle", "corollary", "-N", "2", "-M", "2", "--limit", "4"]) == 0
    capped = json.loads(capsys.readouterr().out)
    assert capped["summary"]["placements"] == "4"


def test_oracle_corollary_rho_on_the_example_function(files, capsys):
    argv = ["oracle", "corollary", "-N", "3", "-M", "3", "-f", files["f.json"]]
    assert main(argv + ["--limit", "50"]) == 0
    assert '"spearman_rho":"0.8449684619067451"' in capsys.readouterr().out


COROLLARY_4_3_LABELS = [
    "{1,2,3}; {1,2,3}; {4,5,6}; {7,8,9}",
    "{1,2,3}; {1,2,3}; {4,5,7}; {6,8,9}",
    "{1,2,3}; {1,2,3}; {4,5,8}; {6,7,9}",
    "{1,2,3}; {1,2,3}; {4,5,9}; {6,7,8}",
    "{1,2,3}; {1,2,3}; {4,6,7}; {5,8,9}",
]


def test_oracle_corollary_reads_only_the_rows_it_needs(files, capsys):
    # C(9,3)^4 ordered rows are past the row budget; the first five
    # computable ones are reached after 5,792.
    argv = ["oracle", "corollary", "-N", "4", "-M", "3", "-f", files["f.json"], "--limit", "5"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert [case["label"] for case in report["cases"]] == COROLLARY_4_3_LABELS


def test_oracle_corollary_exits_3_when_its_row_budget_runs_out(files, capsys, monkeypatch):
    argv = ["oracle", "corollary", "-N", "4", "-M", "3", "-f", files["f.json"], "--limit", "5"]
    monkeypatch.setattr(infplace.cli, "ENUMERATION_BUDGET", 5792)
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["cases"]) == 5
    monkeypatch.setattr(infplace.cli, "ENUMERATION_BUDGET", 5791)
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: the row budget 5791 ran out after 4 of --limit 5 computable placements",
        "hint: lower --limit or shrink the instance",
    ]
    # All 36 rows of the (2,2) grid fit in a budget of 36, so the 6
    # computable ones answer a limit of 8; one row fewer leaves a row unread.
    argv = ["oracle", "corollary", "-N", "2", "-M", "2", "--limit", "8"]
    monkeypatch.setattr(infplace.cli, "ENUMERATION_BUDGET", 36)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["placements"] == "6"
    monkeypatch.setattr(infplace.cli, "ENUMERATION_BUDGET", 35)
    assert main(argv) == 3


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_oracle_corollary_outputs_are_pinned(files, capsys, tmp_path):
    # The 200-placement study on the example function at (3,3), JSON and CSV.
    report, cases = tmp_path / "corollary.json", tmp_path / "corollary.csv"
    argv = ["oracle", "corollary", "-N", "3", "-M", "3", "-f", files["f.json"]]
    assert main(argv + ["-o", str(report), "--csv", str(cases)]) == 0
    assert "placements=200;" in capsys.readouterr().out
    assert sha256_of(report) == (
        "92a9b7d1bb81fad46f824c1f3fc259ae899a8f8219d73f5dcce5de75984df6b5"
    )
    assert sha256_of(cases) == (
        "97652b8762417341d0591870c492557b7315a8d4aa14c60ba4db227f07649652"
    )


def test_oracle_corollary_outputs_are_pinned_when_the_support_is_narrower(capsys, tmp_path):
    # Datasets 3 and 6 lie in no monomial, so many of the 200 placements
    # hold the same datasets of f on each server.  The violation examples
    # stop at 10 of the 12 violations.
    f_path = tmp_path / "f6.json"
    f_path.write_text('{"K":6,"monomials":[[1,2],[2,4],[4,5]]}\n')
    report, cases = tmp_path / "corollary.json", tmp_path / "corollary.csv"
    argv = ["oracle", "corollary", "-N", "3", "-M", "2", "-f", str(f_path)]
    assert main(argv + ["-o", str(report), "--csv", str(cases)]) == 0
    assert "ordering_violations=12; placements=200;" in capsys.readouterr().out
    assert sha256_of(report) == (
        "30086708f4c83e4ae779b6fef9ce2317a807cdb5365dd666bbd44970a3733908"
    )
    assert sha256_of(cases) == (
        "c2c977ae3feab21c32b7d140a6a0506db0cd6ed7aba14e7f821f02912bd2e8fb"
    )


THEOREM_SHA256 = {  # (N, M): JSON and CSV of `oracle theorem`
    (3, 3): ("71d149d550affbbd4e73eb16edd54de914b62c9e94f557d65b3e1dd5ec4e93c6",
             "5f18412e160abbce1ebbd3cd49feab768782e43435a86fd3880208b7ae65faae"),
    (5, 2): ("144b225986b7fefbf15c0fc1a12e9009df7746f2a89d2874ed44af2f7ff77ba2",
             "f383ffcdc3764df3895ffedb382b288253445f0e356862235729c281e16f4a30"),
    (2, 4): ("99fea93b92800e4ed3b22f5ce584612a9091dd55a90434430134e40a986ea3bc",
             "d2e3d7c25e297e131c4d5610be9ca8909d43c00fca3649a15b2efc791abeb98c"),
    (4, 2): ("434d859e270d9b71b5ed67b15afc754d6652961bb165dcefd7c4ba41e3bfcb27",
             "00a7122bb13b9098167b8a7e7c820fe06c613d8b0610d162b110056f47a5fa8a"),
    (3, 4): ("57af905821724e5b0d758b7f220dc2dc63fde943bef9ac4e5693d9bc41d77842",
             "d1ee40e7662431c90eec4413c5b8c1edeff613321d9945c3559f440019cc8ccf"),
    (4, 3): ("c222089442f58bb438f5933582c75578df151b80c426e6fa8133bd8fe1461c20",
             "029f94857e5f413a2d54d7245b52dcfa1b08da2124ce9d387290537245911631"),
    (6, 2): ("41d4e332b18ffc8521ebdd32def79c78aa5463157aee1b318009d2b47cec31cc",
             "01c6d251a80fc3428e20cba9870bbade1a88d43e5e1f87fd18c35a39f606582e"),
}


@pytest.mark.parametrize("n,m", list(THEOREM_SHA256))
def test_oracle_theorem_outputs_are_pinned(capsys, tmp_path, n, m):
    report, cases = tmp_path / "theorem.json", tmp_path / "theorem.csv"
    argv = ["oracle", "theorem", "-N", str(n), "-M", str(m)]
    assert main(argv + ["-o", str(report), "--csv", str(cases)]) == 0
    assert (sha256_of(report), sha256_of(cases)) == THEOREM_SHA256[n, m]


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_oracle_corollary_limit_below_one_exits_2(capsys, limit):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "corollary", "-N", "2", "-M", "2", "--limit", limit])
    assert exc.value.code == 2
    assert f"--limit: must be at least 1, got {limit}" in capsys.readouterr().err


def test_sweep_csv_layout(capsys, tmp_path):
    f_path = tmp_path / "f4.json"
    f_path.write_text('{"K":4,"monomials":[[1,2],[3,4]]}\n')
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "-f", str(f_path), "-N", "2", "-M", "2", "-o", str(out_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "36 placements swept\n"
    lines = out_path.read_text().splitlines()
    assert lines[0] == (
        "placement_id,subsets,as,as_decimal,T_exact,T_greedy,"
        "inf_server_1,inf_server_2,pieces_server_1,pieces_server_2"
    )
    assert len(lines) == 37
    rows = {row[1]: row for row in csv.reader(io.StringIO("\n".join(lines[1:])))}
    # {1,2} twice cannot cover {3,4}: sensitivity still reported, T blank
    assert rows["{1,2}; {1,2}"] == [
        "0", "{1,2}; {1,2}", "1", "1.0", "", "", "1/2", "1/2", "", "",
    ]
    covering = rows["{1,2}; {3,4}"]
    assert covering[2:6] == ["1", "1.0", "2", "2"]
    assert covering[8:] == ["1", "1"]
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["placements_total"] == "C(4,2)^2"
    assert manifest["truncated"] is False
    # f's support is every dataset, so the 6 computable rows are 6 syntheses.
    assert manifest["syntheses"] == 6


def test_sweep_output_is_pinned(files, capsys, tmp_path):
    # Every one of the 592,704 ordered placements of the example function
    # at (3,3), 1,680 of them computable.
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "-f", files["f.json"], "-N", "3", "-M", "3", "-o", str(out_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "592704 placements swept\n"
    assert sha256_of(out_path) == (
        "b27126536b73b2b4c201c78d4db6a84ac6e406e44070f1310fd726b2bc841a3f"
    )


def test_sweep_output_is_pinned_when_the_support_is_narrower(capsys, tmp_path):
    # f's support is {3,5,6,7} of K=7: the first 400 rows hold 88
    # computable placements but only 32 distinct tuples of f's datasets
    # per server, and greedy needs more pieces than exact on some of them.
    f_path = tmp_path / "f7.json"
    f_path.write_text('{"K":7,"monomials":[[3,6],[3,5,6],[5,6,7]]}\n')
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "-f", str(f_path), "-N", "2", "-M", "4", "--budget", "400"]
    assert main(argv + ["-o", str(out_path)]) == 0
    assert capsys.readouterr().out == "400 placements swept\n"
    assert sha256_of(out_path) == (
        "feca7fdd1858cd95d390c7d36f1b7db05ba99a0ee210f6a29c21046fd7e511da"
    )
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["syntheses"] == 32


def masks_of(label: str) -> tuple[int, ...]:
    """The subset masks of a placement label such as "{1,2}; {3}"."""
    return tuple(
        sum(1 << (int(d) - 1) for d in part.strip("{}").split(",")) for part in label.split("; ")
    )


def test_sweep_and_corollary_synthesize_once_per_key(monkeypatch, capsys, tmp_path):
    # On functions whose support leaves out datasets, every computable row
    # must read as a direct synthesis on its own placement, with
    # synthesize_exact called once per tuple of each server's datasets of f.
    calls = []

    def counted(f, placement):
        calls.append(placement)
        return synthesize_exact(f, placement)

    monkeypatch.setattr(infplace.cli, "synthesize_exact", counted)
    monkeypatch.setattr(infplace.oracle, "synthesize_exact", counted)
    rng = random.Random(21)
    f_path, out_path = tmp_path / "f.json", tmp_path / "out"
    sweep_rows = study_rows = 0
    for _ in range(40):
        k = rng.randint(4, 7)
        support = rng.sample(range(1, k + 1), rng.randint(2, k - 1))
        monomials = [
            sorted(rng.sample(support, rng.randint(1, min(3, len(support)))))
            for _ in range(rng.randint(1, 3))
        ]
        f = BooleanFunctionANF.from_indices(k, monomials)
        n, m = rng.randint(2, 3), rng.randint(2, min(3, k - 1))
        f_path.write_text(json.dumps({"K": k, "monomials": monomials}))
        grid = ["-f", str(f_path), "-N", str(n), "-M", str(m)]

        calls.clear()
        assert main(["sweep", *grid, "--budget", "300", "-o", str(out_path)]) == 0
        keys = set()
        for row in csv.DictReader(io.StringIO(out_path.read_text())):
            if not row["T_exact"]:
                continue
            masks = masks_of(row["subsets"])
            placement = PlacementConfig(n, m, masks)
            exact = count_transmissions(synthesize_exact(f, placement), num_servers=n)
            greedy = count_transmissions(synthesize_greedy(f, placement)).total
            pieces = [int(row[f"pieces_server_{i}"]) for i in range(1, n + 1)]
            assert (int(row["T_exact"]), int(row["T_greedy"]), pieces) == (
                exact.total, greedy, list(exact.per_server)
            ), (monomials, row)
            keys.add(tuple(s & f.support_mask for s in masks))
            sweep_rows += 1
        assert len(calls) == len(keys)
        manifest = json.loads(Path(f"{out_path}.manifest.json").read_text())
        assert manifest["syntheses"] == len(keys)

        calls.clear()
        assert main(["oracle", "corollary", *grid, "--limit", "40", "-o", str(out_path)]) == 0
        keys = set()
        for case in json.loads(out_path.read_text())["cases"]:
            masks = masks_of(case["label"])
            counts = count_transmissions(
                synthesize_exact(f, PlacementConfig(n, m, masks)), num_servers=n
            )
            found = re.search(r"T=(\d+) .* pieces=\[(.*)\]$", case["observed"])
            assert (int(found.group(1)), found.group(2)) == (
                counts.total, ", ".join(map(str, counts.per_server))
            ), (monomials, case)
            keys.add(tuple(s & f.support_mask for s in masks))
            study_rows += 1
        assert len(calls) == len(keys)
    capsys.readouterr()
    assert (sweep_rows, study_rows) == (4771, 1433)


def test_sweep_budget_truncates(capsys, tmp_path):
    f_path = tmp_path / "f4.json"
    f_path.write_text('{"K":4,"monomials":[[1,2],[3,4]]}\n')
    out_path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "-f", str(f_path), "-N", "2", "-M", "2",
        "--budget", "5", "-o", str(out_path),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "5 placements swept\n"
    assert len(out_path.read_text().splitlines()) == 6
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["placements_emitted"] == 5
    assert manifest["truncated"] is True
    # The whole C(4,2)^2 = 36-row grid is truncated only below 36.
    for budget, rows, truncated in [(35, 35, True), (36, 36, False), (37, 36, False)]:
        assert main(argv[:-3] + [str(budget), "-o", str(out_path)]) == 0
        assert capsys.readouterr().out == f"{rows} placements swept\n"
        assert len(out_path.read_text().splitlines()) == rows + 1
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["placements_emitted"] == rows
        assert manifest["truncated"] is truncated
        assert manifest["placements_total"] == "C(4,2)^2"


def pairs_k24(tmp_path):
    """12 disjoint pairs over K=24: C(24,12) = 2,704,156 subsets of size 12."""
    path = tmp_path / "pairs24.json"
    monomials = [[2 * i + 1, 2 * i + 2] for i in range(12)]
    path.write_text(json.dumps({"K": 24, "monomials": monomials}))
    return str(path)


def test_place_budget_is_checked_before_the_count_is_formed(capsys, tmp_path):
    # C(28,14) = 40,116,600 subsets are past the budget before any is
    # built, and C(28,14)^1000 is too long to print as an integer.
    path = tmp_path / "pairs28.json"
    monomials = [[2 * i + 1, 2 * i + 2] for i in range(14)]
    path.write_text(json.dumps({"K": 28, "monomials": monomials}))
    argv = ["place", "-f", str(path), "-N", "1000", "-M", "14"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "error: 40116600 subsets of size 14 exceed the enumeration budget 10000000"
    )


def test_sweep_on_a_huge_grid_builds_only_the_rows_it_writes(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "-f", pairs_k24(tmp_path), "-N", "2", "-M", "12",
        "--budget", "1", "-o", str(out_path),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1 placements swept\n"
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    first = "{1,2,3,4,5,6,7,8,9,10,11,12}"
    assert lines[1] == f'0,"{first}; {first}",1,1.0,,,1/2,1/2,,'
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["placements_total"] == "C(24,12)^2"
    assert manifest["truncated"] is True


def test_sweep_manifest_names_a_grid_too_large_to_print(capsys, tmp_path):
    # C(24,12)^1000 has over 6,400 digits: past Python's int-to-str limit.
    out_path = tmp_path / "sweep.csv"
    argv = [
        "sweep", "-f", pairs_k24(tmp_path), "-N", "1000", "-M", "12",
        "--budget", "1", "-o", str(out_path),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1 placements swept\n"
    assert len(out_path.read_text().splitlines()) == 2
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["placements_total"] == "C(24,12)^1000"
    assert manifest["placements_emitted"] == 1
    assert manifest["truncated"] is True


@pytest.mark.parametrize("text", ["0", "-3", "two"])
def test_threads_below_one_are_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _positive_int(text)


def test_later_calls_do_not_inherit_earlier_options(files, capsys, tmp_path, monkeypatch):
    # One parser serves every main() call of a process.
    influence = ["influence", "-f", files["f.json"], "--subset", "1,4,7"]
    assert main(influence + ["--mc", "--seed", "7", "--epsilon", "0.05"]) == 0
    assert capsys.readouterr().out.startswith("0.3")
    assert main(influence) == 0
    out, err = capsys.readouterr()
    assert out == "160/512\n"
    assert stderr_manifest(err)["seed"] == 2024
    f_path, out_path = tmp_path / "f4.json", tmp_path / "sweep.csv"
    f_path.write_text('{"K":4,"monomials":[[1,2],[3,4]]}\n')
    sweep = ["sweep", "-f", str(f_path), "-N", "2", "-M", "2", "-o", str(out_path)]
    assert main(sweep + ["--budget", "5"]) == 0
    assert capsys.readouterr().out == "5 placements swept\n"
    assert main(sweep) == 0
    assert capsys.readouterr().out == "36 placements swept\n"
    # The default budget is read when the command runs, not when the
    # parser was built.
    monkeypatch.setattr(infplace.cli, "ENUMERATION_BUDGET", 7)
    assert main(sweep) == 0
    assert capsys.readouterr().out == "7 placements swept\n"
    assert infplace.cli._build_parser() is infplace.cli._build_parser()


def test_threads_zero_exits_2(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["influence", "-f", files["f.json"], "--subset", "1", "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads: must be at least 1, got 0" in capsys.readouterr().err


def test_exit_2_for_bad_function_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": "nine"}')
    assert main(["influence", "-f", str(bad), "--subset", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


W1W2_JSON = '{"K":2,"monomials":[[1,2]]}\n'
W1W2_PIECE = '[{"server":1,"vars":[1,2]}]'
PAIRS64_JSON = json.dumps({"K": 64, "monomials": [[2 * i + 1, 2 * i + 2] for i in range(32)]})


@pytest.mark.parametrize(
    "argv,files,code,line",
    [
        (["influence", "-f", "f.json", "--subset", "1,x"], {"f.json": W1W2_JSON}, 2,
         "error: bad subset spec '1,x': invalid literal for int() with base 10: 'x'"),
        (["oracle", "lemma2", "-d", "3,4"], {}, 0, None),
        (["oracle", "lemma2", "-d", "5..2"], {}, 2, "error: bad degree range '5..2'"),
        (["oracle", "lemma2", "-d", "0"], {}, 2, "error: bad degree range '0'"),
        (["oracle", "lemma2", "-d", "a..b"], {}, 2,
         "error: bad degree range 'a..b': invalid literal for int() with base 10: 'a'"),
        (["verify", "-s", "s.json", "-f", "f.json"], {"s.json": "nope", "f.json": W1W2_JSON}, 2,
         "error: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (["verify", "-s", "s.json", "-f", "f.json"], {"s.json": "[1]", "f.json": W1W2_JSON}, 2,
         "error: scheme file must be a JSON object"),
        (["verify", "-s", "s.json", "-f", "f.json"],
         {"s.json": '{"constant":0,"pieces":{},"plan":[[0]]}', "f.json": W1W2_JSON}, 2,
         'error: "pieces" must be an array'),
        (["verify", "-s", "s.json", "-f", "f.json"],
         {"s.json": '{"constant":0,"pieces":' + W1W2_PIECE + ',"plan":{}}', "f.json": W1W2_JSON},
         2, 'error: "plan" must be an array of arrays of piece indices'),
        (["verify", "-s", "s.json", "-f", "f.json"],
         {"s.json": '{"constant":1,"pieces":' + W1W2_PIECE + ',"plan":[[0]]}',
          "f.json": W1W2_JSON},
         5, "structure: constant term 1 != function's 0"),
        (["avg-sensitivity", "-f", "f.json", "-p", "p.json"],
         {"f.json": EXAMPLE_FUNCTION_JSON,
          "p.json": '{"N":2,"M":1,"subsets":[[1,2,3,4,5,6],[4,5,6,7,8,9]]}'},
         2, "error: server 1 holds 6 datasets, more than M=1"),
        # C(64,32) is about 1.8e18 subsets; the first row must not list them.
        (["sweep", "-f", "f.json", "-N", "2", "-M", "32", "--budget", "1"],
         {"f.json": PAIRS64_JSON},
         3, "error: the monomials that meet the flip set span 32 datasets,"
         " past the exact enumeration limit 24; use joint_influence_mc"),
        (["place", "-f", "f.json", "-N", "2", "-M", "2", "--method", "best"],
         {"f.json": W1W2_JSON}, 2, None),
        (["oracle", "lemma1", "-d", "25"], {}, 3,
         "error: truth table for K=27 exceeds the K<=26 cap"),
        (["oracle", "lemma2", "-d", "14"], {}, 3,
         "error: truth table for K=28 exceeds the K<=26 cap"),
        (["influence", "-f", "f.json", "--subset", "1"], {"f.json": '{"monomials":[[1]]}'}, 2,
         'error: function file needs field "K"'),
        (["oracle", "theorem", "-N", "3", "-M", "0"], {}, 2,
         "infplace oracle: error: argument -M/--cache-size: must be at least 1, got 0"),
        (["oracle", "theorem", "-N", "-1", "-M", "2"], {}, 2,
         "infplace oracle: error: argument -N/--num-servers: must be at least 1, got -1"),
        (["oracle", "lemma1", "--trials", "-3"], {}, 2,
         "infplace oracle: error: argument --trials: must be at least 1, got -3"),
    ],
)
def test_refused_requests_exit_with_their_message(argv, files, code, line, capsys, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = [str(tmp_path / a) if a in files else a for a in argv]
    try:
        got, usage = main(paths), False
    except SystemExit as exc:  # argparse refuses a bad option value itself,
        got, usage = exc.code, True  # after printing its usage
    assert got == code
    err = capsys.readouterr().err
    if line is not None:
        assert err.splitlines()[-1 if usage else 0] == line


def test_exit_2_for_missing_file(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["influence", "-f", missing, "--subset", "1"]) == 2


def test_exit_3_for_exact_limit(capsys, tmp_path):
    # The one monomial that meets the subset spans 25 datasets.
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"K": 40, "monomials": [list(range(1, 26))]}))
    assert main(["influence", "-f", str(wide), "--subset", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the monomials that meet the flip set span 25 datasets")
    assert "\nhint: use --mc or shrink the instance\n" in err


def test_exit_3_hint_names_only_the_commands_own_options(capsys, tmp_path):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"K": 30, "monomials": [list(range(1, 26))]}))
    argv = ["place", "-f", str(wide), "-N", "1", "-M", "25", "--method", "aligned"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "--mc" not in err
    assert err.splitlines()[-1] == "hint: shrink the instance"


@pytest.mark.parametrize("command", ["place", "sweep"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_exits_2(files, capsys, command, budget):
    argv = [command, "-f", files["pairs.json"], "-N", "3", "-M", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget])
    assert exc.value.code == 2
    assert f"--budget: must be at least 1, got {budget}" in capsys.readouterr().err


def test_influence_past_k24_is_exact_on_narrow_monomials(capsys, tmp_path):
    narrow = tmp_path / "narrow.json"
    narrow.write_text('{"K":40,"monomials":[[1,2,3],[38,39,40],[5,40]]}\n')
    assert main(["influence", "-f", str(narrow), "--subset", "1"]) == 0
    # Only W1W2W3 meets {1}: it changes on a quarter of all 2^40 inputs.
    assert capsys.readouterr().out == f"{1 << 38}/{1 << 40}\n"


def test_place_past_k24_finds_the_aligned_minimum(capsys, tmp_path):
    # Two disjoint pairs at K = 30: N/2^(M-1) = 1.
    pairs = tmp_path / "pairs30.json"
    pairs.write_text('{"K":30,"monomials":[[1,2],[29,30]]}\n')
    assert main(["place", "-f", str(pairs), "-N", "2", "-M", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == '{"M":2,"N":2,"subsets":[[1,2],[29,30]]}\n'
    assert err.splitlines()[0] == "as = 1"


@pytest.mark.parametrize("command", ["place", "place --method aligned", "sweep", "oracle corollary"])
def test_cache_larger_than_the_dataset_count_exits_2(capsys, tmp_path, command):
    # Once these answered with 0 rows, or with subsets of 4 under "M":5.
    f_path = tmp_path / "f4.json"
    f_path.write_text('{"K":4,"monomials":[[1,2],[3,4]]}\n')
    out_path = tmp_path / "out"
    argv = command.split() + ["-f", str(f_path), "-N", "2", "-M", "5", "-o", str(out_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cache size 5 exceeds dataset count 4\n"
    assert not out_path.exists()


def test_exit_4_for_uncomputable_placement(files, capsys, tmp_path):
    p_path = tmp_path / "short.json"
    p_path.write_text('{"N":2,"M":2,"subsets":[[1,2],[3,4]]}\n')
    argv = ["synthesize", "--exact", "-f", files["pairs.json"], "-p", str(p_path)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "W5W6" in err and "5,6" in err
    # Exit 4 comes ahead of exit 3 for a degree-17 monomial beside the gap.
    f_path = tmp_path / "degree17.json"
    f_path.write_text(json.dumps({"K": 19, "monomials": [list(range(1, 18)), [18, 19]]}))
    p_path.write_text(json.dumps({"N": 2, "M": 17, "subsets": [list(range(1, 18)), [1, 18]]}))
    argv = ["synthesize", "--exact", "-f", str(f_path), "-p", str(p_path)]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(
        "error: monomial W18W19 is uncoverable: dataset(s) 19 held by no server\n"
    )


def test_usage_error_is_systemexit(files):
    with pytest.raises(SystemExit) as exc:
        main(["influence", "-f", files["f.json"]])  # --subset missing
    assert exc.value.code == 2


def run_module(*args: str, check: bool) -> subprocess.CompletedProcess:
    """Run ``python -m infplace`` on the same package the tests import."""
    package_root = str(Path(infplace.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "infplace", *args],
        capture_output=True, text=True, check=check, env=env,
    )


def test_installed_entry_point_reports_version():
    proc = run_module("--version", check=True)
    assert proc.stdout.strip() == "infplace 0.1.0"


@pytest.mark.skipif(
    shutil.which("infplace") is None, reason="infplace console script not installed"
)
def test_console_script_reports_version():
    proc = subprocess.run(
        ["infplace", "--version"], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "infplace 0.1.0"


def test_module_entry_point_passes_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    proc = run_module("influence", "-f", str(bad), "--subset", "1", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
