"""Benchmark of infplace's four questions; one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload synth-corpus --seed 1 --seconds 10 --trace 0

Each workload runs in fresh interpreters (``worker.py``) started one
after another: SETUPS - 1 of them only set up, to time set-up, and the
last also answers the job list round after round for ``--seconds``.
With ``--trace 0`` the last stdout line reports the end-to-end metrics
named in BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a
traced run.  Details of the run (every round, per-job percentiles,
spans) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 5  # fresh interpreters per run whose set-up is timed; setup_s is their median
# The whole run, set-up included, may take DEADLINE_S_PER_S times --seconds
# but never less than DEADLINE_S_MIN, since a short run still answers one
# whole round; past that its worker is killed and the run fails.
DEADLINE_S_PER_S = 8
DEADLINE_S_MIN = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(argv: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its final report."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker exited with code {code} ({'after' if ready else 'before'} set-up)")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def percentiles(times: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    out = {"jobs": len(ordered), "p50_s": statistics.median(ordered), "max_s": ordered[-1]}
    if len(ordered) >= 40:
        q = int(100 * (1 - 10 / len(ordered)))
        out[f"p{q}_s"] = ordered[min(len(ordered) - 1, q * len(ordered) // 100)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + max(DEADLINE_S_MIN, DEADLINE_S_PER_S * args.seconds)

    if not (ROOT / "src" / "infplace" / "__init__.py").is_file():
        print(f"error: no infplace source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    spans = OUT / f"{tag}.spans.jsonl"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    try:
        setups = [run_worker(argv + ["--setup-only"], env, deadline)[0] for _ in range(SETUPS - 1)]
        setup, report = run_worker(argv + ["--spans", str(spans)] if args.trace else argv, env, deadline)
        setups.append(setup)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, wanted = report["layers"], spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(report["round_walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for problem in report["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setups_s": setups,
        "round_walls_s": report["round_walls"],
        "jobs_per_round": report["jobs_per_round"],
        "job_times": percentiles(report["job_times"]),
        "problems": report["problems"],
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
