"""One workload in one fresh interpreter: set up, answer rounds, report.

Started by ``run.py``, never by hand.  The process prints ``READY`` on
stdout when set-up is over (import, input generation, warm-up), then
answers the workload's whole job list round after round, one job at a
time on one thread, until ``--seconds`` have passed.  Its last stdout
line is a JSON report for ``run.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import infplace  # noqa: E402

if Path(infplace.__file__).resolve().parent != ROOT / "src" / "infplace":
    sys.exit(f"infplace was imported from {infplace.__file__}, not from this checkout")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, wrapper_costs  # noqa: E402

# Held before tracing wraps it, so every round can empty its cache.
TRUTH_TABLE = infplace.anf.truth_table


class Tally:
    """Attempted and failed jobs, wall time per round and per job."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.round_walls: list[float] = []
        self.job_times: list[float] = []

    def fail(self, job: workloads.Job, message: str, wrong: bool) -> None:
        self.failed += 1
        if wrong:
            self.correct = False
        if len(self.problems) < 20:
            self.problems.append(f"{job.kind}: {message}")


def run_round(jobs: list[workloads.Job], tally: Tally) -> float:
    # Every round starts as a fresh batch would: no cached truth tables.
    if hasattr(TRUTH_TABLE, "cache_clear"):
        TRUTH_TABLE.cache_clear()
    wall = 0.0
    sink = io.StringIO()  # the CLI's notes on stdout; the report channel stays clean
    for job in jobs:
        with redirect_stdout(sink):
            start = time.perf_counter()
            try:
                answer = job.run()
                error = None
            except Exception as exc:  # a failed job is counted, the run goes on
                error = exc
            elapsed = time.perf_counter() - start
        sink.seek(0)
        sink.truncate()
        wall += elapsed
        tally.job_times.append(elapsed)
        tally.attempted += 1
        if error is not None:
            known = job.known_fault is not None and isinstance(error, ValueError) and job.known_fault in str(error)
            tally.fail(job, f"{type(error).__name__}: {error}", wrong=not known)
            continue
        try:
            job.check(answer)
        except checks.WrongAnswer as exc:
            tally.fail(job, str(exc), wrong=True)
        except Exception as exc:  # a check that cannot read the answer rejects it
            tally.fail(job, f"unreadable answer: {type(exc).__name__}: {exc}", wrong=True)
    tally.round_walls.append(wall)
    return wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    build, warm_up = workloads.WORKLOADS[args.workload]
    jobs = build(args.seed, workdir)
    with redirect_stdout(io.StringIO()):
        for job in warm_up(workdir):
            job.check(job.run())
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    start = time.perf_counter()
    layers = None
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    while not tally.round_walls or time.perf_counter() - start < args.seconds:
        run_round(jobs, tally)
    if tracer:
        layers = tracer.metrics(len(tally.round_walls))
        layers["trace.wall_s"] = statistics.median(tally.round_walls)
        # Rounds drift more from one to the next than tracing costs, so the
        # overhead is the measured cost of one span and of one counted
        # placement, times how many of each a round records.
        per_span, per_yield = wrapper_costs()
        layers["trace.overhead_s"] = layers["trace.spans"] * per_span + layers.pop("trace.yields") * per_yield
        if args.spans:
            tracer.write_spans(Path(args.spans))

    report = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "problems": tally.problems,
        "round_walls": tally.round_walls,
        "job_times": tally.job_times,
        "jobs_per_round": len(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
