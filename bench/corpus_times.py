"""Time exact synthesis on every pair of acceptance 5's corpus.

The measurement behind ``workloads.BLOCK_CAP`` and ``workloads.LEFT_OUT``:

    python3 bench/corpus_times.py [--seeds 1 2 3]

prints one line per corpus pair (index, coverable blocks, seconds) from
slowest to fastest, then totals for the pairs at or under the block cap,
the tail pairs the workload keeps, and the pairs it leaves out.  With
``--seeds`` it also times the under-cap draws each seed adds to the
workload.  Takes about two minutes on one core.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import infplace as ip  # noqa: E402

import workloads  # noqa: E402


def exact_seconds(k: int, monomials, subsets) -> float:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    p = ip.PlacementConfig(len(subsets), max(s.bit_count() for s in subsets), tuple(subsets))
    start = time.perf_counter()
    ip.synthesize_exact(f, p)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    args = parser.parse_args()

    rows = []
    for i, pair in enumerate(workloads.acceptance5_corpus()):
        rows.append((i, workloads.coverable_blocks(pair[1], pair[2]), exact_seconds(*pair)))
    for i, blocks, seconds in sorted(rows, key=lambda r: -r[2]):
        print(f"{i:4d} {blocks:5d} blocks {seconds:9.4f} s")
    groups = {
        "under the cap": [r for r in rows if r[1] <= workloads.BLOCK_CAP],
        "tail, kept": [r for r in rows if r[1] > workloads.BLOCK_CAP and r[0] not in workloads.LEFT_OUT],
        "tail, left out": [r for r in rows if r[0] in workloads.LEFT_OUT],
    }
    for name, group in groups.items():
        print(f"{name}: {len(group)} pairs, {sum(r[2] for r in group):.2f} s, slowest {max(r[2] for r in group):.4f} s")
    body_count = len(groups["under the cap"])
    for seed in args.seeds:
        rng = random.Random(seed)
        drawn = tried = 0
        times = []
        while drawn < body_count:
            pair = workloads.draw_instance(rng)
            tried += 1
            if workloads.coverable_blocks(pair[1], pair[2]) <= workloads.BLOCK_CAP:
                drawn += 1
                times.append(exact_seconds(*pair))
        print(f"seed {seed}: {drawn} of {tried} draws under the cap, {sum(times):.3f} s, slowest {max(times):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
