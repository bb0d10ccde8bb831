"""The benchmark under ``bench/`` still runs against the package.

``bench/tracing.py`` wraps functions by name and reads placement names
at call time, and ``bench/workloads.py`` calls the CLI with options of
its own and reads attributes of the answers; a rename in ``src/``
breaks the benchmark without breaking any other test.  The checks run
in subprocesses, so the tracer's wrappers never reach this process,
and with ``-B``, so they write no file outside ``tmp_path``.
"""

import subprocess
import sys
from pathlib import Path

import infplace

SRC = Path(infplace.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"

CHECK = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import infplace
import infplace.cli
import infplace.oracle
import tracing

tracer = tracing.Tracer()
tracer.install()
f = infplace.BooleanFunctionANF.from_indices(4, [[1, 2], [3, 4]])
placement, value = infplace.search_min_as(f, infplace.PlacementConstraints(4, 2, 2))
code = infplace.cli.main(
    ["sweep", "-f", {function!r}, "-N", "2", "-M", "2", "--threads", "1"]
)
m = tracer.metrics(1)
names = ("cli.main.calls", "placement.placements_scanned", "transmission.synthesize_exact.calls")
first = [placement, value, code, *(int(m[name]) for name in names)]
codes = [
    infplace.cli.main(["place", "-f", {function!r}, "-N", "2", "-M", "2", "--method", method])
    for method in ("exhaustive", "aligned")
]
after = tracer.metrics(1)
names = ("placement.placements_scanned", "placement.aligned_placement.calls")
print(*first)
print(*codes, *(int(after[name] - m[name]) for name in names))
"""


def test_benchmark_tracer_runs_a_search_and_a_sweep(tmp_path):
    function = tmp_path / "f.json"
    function.write_text('{"K":4,"monomials":[[1,2],[3,4]]}\n')
    code = CHECK.format(src=str(SRC), bench=str(BENCH), function=str(function))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True
    )
    # The sweep's CSV and the placements come first; the summary lines are
    # last.  The tracer charges each search count_placements, C(4,2)^2 = 36,
    # though the pruned search visits fewer; the sweep synthesized for the
    # 6 placements that compute f.  `place` is charged the same 36, and
    # `--method aligned` builds the aligned placement once.
    assert proc.stdout.splitlines()[-2:] == ["{1,2}; {3,4} 16/16 0 1 36 6", "0 0 36 1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


WARM_UP = """
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads

for name, (_, warm_up) in workloads.WORKLOADS.items():
    workdir = Path({tmp!r}) / name
    workdir.mkdir()
    jobs = warm_up(workdir)
    with redirect_stdout(io.StringIO()):
        for job in jobs:
            job.check(job.run())
    print(name, len(jobs))
"""


def test_every_workloads_warm_up_answers_pass_their_checks(tmp_path):
    # Each check reads what the benchmark reads of an answer: is_exact,
    # count, denominator, fraction, mean, samples, and a verification's
    # mode and inputs_checked.
    code = WARM_UP.format(src=str(SRC), bench=str(BENCH), tmp=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["synth-corpus 1", "placement-study 5", "influence-wide 4"]
