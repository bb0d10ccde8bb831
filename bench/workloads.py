"""The benchmark's three workloads: seeded inputs, jobs and their checks.

A job is one question put to infplace through the public entry point
that answers it.  ``run`` asks the question and returns the answer;
``check`` compares that answer with :mod:`checks` and raises
``WrongAnswer`` on a mismatch.  Every library call goes through the
``infplace`` package namespace at call time, so the tracer's wrappers
see it.  A workload's job list is the same length for every seed; each
round of a run answers the whole list once.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

import infplace as ip
import infplace.cli
import infplace.oracle

import checks
from checks import require


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # Text of the ValueError a known program fault raises on this job's
    # fixed input; such a job counts as failed without marking the run wrong.
    known_fault: str | None = None


def mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


def indices(m: int) -> list[int]:
    return [b + 1 for b in range(m.bit_length()) if m >> b & 1]


def relabel(m: int, perm) -> int:
    """Move variable b to perm[b]."""
    out = 0
    for b in range(m.bit_length()):
        if m >> b & 1:
            out |= 1 << perm[b]
    return out


def function_json(num_vars: int, monomials) -> str:
    return json.dumps({"K": num_vars, "monomials": [indices(m) for m in monomials]}) + "\n"


def scheme_parts(scheme):
    """(constant, pieces, plan) of a scheme, in the form checks.check_scheme takes."""
    return scheme.constant, [(p.server, p.vars_mask) for p in scheme.pieces], [tuple(r) for r in scheme.plan]


# --- synth-corpus --------------------------------------------------------

# acceptance 5 draws its 500-pair corpus from random.Random(1405).  A pair
# whose monomials have more than BLOCK_CAP coverable blocks in total (sub-
# products of a monomial that one server holds) is a tail pair: every
# seeded draw at or under the cap synthesizes in under 0.1 s, while tail
# pairs take up to 30 s.  The workload answers every tail pair of
# acceptance 5's own corpus except LEFT_OUT, and, from --seed, as many
# draws under the cap as that corpus has (see README).
CORPUS_SEED = 1405
CORPUS_SIZE = 500
BLOCK_CAP = 64
# The four slowest pairs, left out so a round fits a run: each takes over
# 6 s of exact synthesis on the reference machine, 66 s together, while
# the 104 tail pairs kept take 28 s together and at most 5 s each.
LEFT_OUT = (84, 221, 23, 260)


def draw_instance(rng: random.Random):
    """One (function, placement) pair, drawn exactly as acceptance 5 draws it."""
    k = rng.randint(3, 12)
    monomials = checks.canonical_monomials([rng.randrange(1, 1 << k) for _ in range(rng.randint(1, 4))])
    num_servers = rng.randint(1, 4)
    subsets = [rng.randrange(1, 1 << k) for _ in range(num_servers)]
    union = 0
    for s in subsets:
        union |= s
    support = 0
    for m in monomials:
        support |= m
    subsets[rng.randrange(num_servers)] |= support & ~union
    return k, monomials, subsets


def coverable_blocks(monomials, subsets) -> int:
    total = 0
    for m in monomials:
        sub = m
        while sub:
            if any(sub & ~s == 0 for s in subsets):
                total += 1
            sub = (sub - 1) & m
    return total


def _synth_job(k: int, monomials, subsets, label: str) -> Job:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    p = ip.PlacementConfig(len(subsets), max(s.bit_count() for s in subsets), tuple(subsets))
    rows = [m for m in monomials if m]
    brute = []

    def run():
        exact = ip.synthesize_exact(f, p)
        greedy = ip.synthesize_greedy(f, p)
        return exact, greedy, ip.verify_scheme(exact, f), ip.verify_scheme(greedy, f)

    def check(answer):
        exact, greedy, v_exact, v_greedy = answer
        t_exact = checks.check_scheme(k, monomials, subsets, *scheme_parts(exact), label=f"{label} exact")
        t_greedy = checks.check_scheme(k, monomials, subsets, *scheme_parts(greedy), label=f"{label} greedy")
        for name, v in (("exact", v_exact), ("greedy", v_greedy)):
            require(
                v.passed and v.mode == "exhaustive" and v.inputs_checked == 1 << k,
                f"{label}: verify_scheme on the {name} scheme gave {v}",
            )
        require(t_exact <= t_greedy, f"{label}: exact T={t_exact} above greedy T={t_greedy}")
        if not brute:
            brute.append(checks.brute_force_min_pieces(rows, subsets))
        if brute[0] is not None:
            require(t_exact == brute[0], f"{label}: exact T={t_exact}, brute force finds {brute[0]}")

    return Job("synth", run, check)


def acceptance5_corpus() -> list[tuple]:
    rng = random.Random(CORPUS_SEED)
    return [draw_instance(rng) for _ in range(CORPUS_SIZE)]


def synth_corpus(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    body_count = 0
    for i, (k, monomials, subsets) in enumerate(acceptance5_corpus()):
        if coverable_blocks(monomials, subsets) <= BLOCK_CAP:
            body_count += 1
        elif i not in LEFT_OUT:
            jobs.append(_synth_job(k, monomials, subsets, label=f"tail#{i}"))
    rng = random.Random(seed)
    drawn = 0
    while drawn < body_count:
        k, monomials, subsets = draw_instance(rng)
        if coverable_blocks(monomials, subsets) <= BLOCK_CAP:
            drawn += 1
            jobs.append(_synth_job(k, monomials, subsets, label=f"body#{drawn}"))
    # Interleave the tail with the seeded draws in a seeded order.
    rng.shuffle(jobs)
    return jobs


def synth_warm_up(workdir: Path) -> list[Job]:
    return [_synth_job(4, [0b0011, 0b1100], [0b0111, 0b1110], "warm-up")]


# --- placement-study -----------------------------------------------------

README_FUNCTION = [mask([1, 4, 7]), mask([2, 5, 7, 8]), mask([3, 6, 9])]
# Fixed inputs that trip the constant-term fault of aligned_placement:
# (K, monomials, N, M); each has summed influence N/2^(M-1) once mended.
CONSTANT_TERM_CASES = (
    (6, [0, mask([1, 2]), mask([3, 4]), mask([5, 6])], 3, 2),
    (6, [0, mask([1, 2, 3]), mask([4, 5, 6])], 2, 3),
)
THEOREM_GRID = (3, 3)
SWEEP_BUDGET = 400
COROLLARY_LIMIT = 120


def disjoint(num_products: int, degree: int) -> list[int]:
    return [mask(range(n * degree + 1, (n + 1) * degree + 1)) for n in range(num_products)]


def overlapping(rng: random.Random, num_vars: int, degrees) -> list[int]:
    """Monomials of the given degrees, each sharing a variable with the
    previous one, so the function is a single component."""
    while True:
        out = []
        for d in degrees:
            chosen = set(rng.sample(range(1, num_vars + 1), d))
            if out:
                chosen.pop()
                chosen.add(rng.choice(indices(out[-1])))
                while len(chosen) < d:
                    chosen.add(rng.randint(1, num_vars))
            out.append(mask(chosen))
        if len(set(out)) == len(out):
            return checks.canonical_monomials(out)


def _permuted(rng: random.Random, num_vars: int, monomials) -> list[int]:
    perm = rng.sample(range(num_vars), num_vars)
    return checks.canonical_monomials([relabel(m, perm) for m in monomials])


def _split_subsets(text: str) -> list[int]:
    """Parse infplace's placement label "{1,2}; {3,4}" into masks."""
    return [mask(int(i) for i in group.split(",")) for group in re.findall(r"\{([\d,]+)\}", text)]


def _search_job(k: int, monomials, n: int, m: int, label: str, closed: Fraction | None = None) -> Job:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    constraints = ip.PlacementConstraints(k, n, m)
    table = checks.InfluenceTable(k, monomials)

    def run():
        return ip.search_min_as(f, constraints)

    def check(answer):
        placement, value = answer
        require(value.is_exact, f"{label}: inexact value {value}")
        subsets = list(placement.subset_masks)
        checks.check_min_placement(table, n, m, subsets, value.fraction, label)
        if closed is not None:
            require(value.fraction == closed, f"{label}: minimum {value.fraction}, N/2^(M-1) is {closed}")

    return Job("search_min_as", run, check)


def _aligned_job(k: int, monomials, n: int, m: int, label: str, expected: Fraction | None, fault: str | None = None) -> Job:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    constraints = ip.PlacementConstraints(k, n, m)
    # Summed influence does not depend on the constant term.
    table = checks.InfluenceTable(k, [x for x in monomials if x])

    def run():
        return ip.aligned_placement(f, constraints)

    def check(placement):
        subsets = list(placement.subset_masks)
        checks.check_strict_placement(k, m, n, subsets, table.support, label)
        if expected is not None:
            got = table.summed(subsets)
            require(got == expected, f"{label}: aligned placement sums to {got}, expected {expected}")

    return Job("aligned_placement", run, check, known_fault=fault)


def _theorem_job(n: int, m: int) -> Job:
    table = checks.InfluenceTable(n * m, disjoint(n, m))
    closed = Fraction(n, 1 << (m - 1))

    def run():
        return ip.oracle.check_theorem(n, m)

    def check(report):
        s = report.summary
        require(report.passed, f"check_theorem({n},{m}) failed: {s}")
        own = table.min_over_multisets(n, m)
        require(own == closed, f"independent minimum {own} differs from N/2^(M-1) = {closed}")
        for key in ("min_as", "aligned_as"):
            require(Fraction(s[key]) == closed, f"check_theorem({n},{m}): {key}={s[key]}, expected {closed}")
        require(s["aligned_T"] == str(n), f"check_theorem({n},{m}): aligned T={s['aligned_T']}, expected {n}")
        require(int(s["min_T"]) >= n, f"check_theorem({n},{m}): min T={s['min_T']} below {n}")

    return Job("check_theorem", run, check)


def _take(path: Path) -> str:
    """Read a CLI output and delete it with its manifest, so the next
    round's check cannot read a stale file."""
    text = path.read_text()
    path.unlink()
    Path(f"{path}.manifest.json").unlink(missing_ok=True)
    return text


def _cli(argv) -> Callable[[], int]:
    def run():
        return ip.cli.main(argv)

    return run


def _sweep_job(workdir: Path, tag: str, k: int, monomials, n: int, m: int) -> Job:
    f_path = workdir / f"{tag}.json"
    f_path.write_text(function_json(k, monomials))
    out = workdir / f"{tag}.csv"
    argv = ["sweep", "-f", str(f_path), "-N", str(n), "-M", str(m), "--budget", str(SWEEP_BUDGET),
            "-o", str(out), "--threads", "1"]
    table = checks.InfluenceTable(k, monomials)

    def check(code):
        require(code == 0, f"sweep {tag}: exit {code}")
        rows = list(csv.DictReader(_take(out).splitlines()))
        want = min(comb(k, m) ** n, SWEEP_BUDGET)
        require(len(rows) == want, f"sweep {tag}: {len(rows)} rows, expected {want}")
        for row in rows:
            subsets = _split_subsets(row["subsets"])
            require(len(subsets) == n, f"sweep {tag}: bad subsets {row['subsets']!r}")
            require(Fraction(row["as"]) == table.summed(subsets),
                     f"sweep {tag} row {row['placement_id']}: as={row['as']}, expected {table.summed(subsets)}")
            for server, s in enumerate(subsets, start=1):
                require(Fraction(row[f"inf_server_{server}"]) == table.summed([s]),
                         f"sweep {tag} row {row['placement_id']}: wrong influence for server {server}")
            union = 0
            for s in subsets:
                union |= s
            if table.support & ~union:
                require(row["T_exact"] == "", f"sweep {tag} row {row['placement_id']}: T for an uncomputable placement")
            else:
                require(int(row["T_exact"]) <= int(row["T_greedy"]),
                         f"sweep {tag} row {row['placement_id']}: exact T above greedy T")

    return Job("cli sweep", _cli(argv), check)


def _corollary_job(workdir: Path, tag: str, k: int, monomials, n: int, m: int) -> Job:
    f_path = workdir / f"{tag}.json"
    f_path.write_text(function_json(k, monomials))
    report_path, cases_path = workdir / f"{tag}-report.json", workdir / f"{tag}-cases.csv"
    argv = ["oracle", "corollary", "-N", str(n), "-M", str(m), "-f", str(f_path),
            "--limit", str(COROLLARY_LIMIT), "-o", str(report_path), "--csv", str(cases_path), "--threads", "1"]
    table = checks.InfluenceTable(k, monomials)
    masks = [mask(c) for c in combinations(range(1, k + 1), m)]
    computable = _count_computable(masks, n, table.support)
    rows = [x for x in monomials if x]
    minima: dict[tuple[int, ...], int | None] = {}

    def check(code):
        require(code == 0, f"corollary {tag}: exit {code}")
        cases = json.loads(_take(report_path))["cases"]
        want = min(COROLLARY_LIMIT, computable)
        require(len(cases) == want, f"corollary {tag}: {len(cases)} placements, expected {want}")
        require(len(list(csv.reader(_take(cases_path).splitlines()))) == want + 1, f"corollary {tag}: CSV row count")
        for case in cases:
            subsets = _split_subsets(case["label"])
            found = re.match(r"as=(\S+) T=(\d+)", case["observed"])
            require(found is not None and len(subsets) == n, f"corollary {tag}: bad case {case!r}")
            require(Fraction(found.group(1)) == table.summed(subsets),
                     f"corollary {tag} {case['label']}: as={found.group(1)}, expected {table.summed(subsets)}")
            key = tuple(subsets)
            if key not in minima:
                minima[key] = checks.brute_force_min_pieces(rows, subsets)
            if minima[key] is not None:
                require(int(found.group(2)) == minima[key],
                         f"corollary {tag} {case['label']}: T={found.group(2)}, brute force finds {minima[key]}")

    return Job("cli oracle corollary", _cli(argv), check)


def _count_computable(masks, n: int, support: int) -> int:
    """Ordered placements that hold the support, without enumerating them:
    inclusion-exclusion over the support datasets left uncovered."""
    support_bits = indices(support)
    total = 0
    for r in range(len(support_bits) + 1):
        for missing in combinations(support_bits, r):
            miss = mask(missing)
            avoiding = sum(1 for s in masks if s & miss == 0)
            total += (-1) ** r * avoiding**n
    return total


def placement_study(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    readme = _permuted(rng, 9, README_FUNCTION)
    jobs = [
        _search_job(9, readme, 3, 3, "search README"),
        _search_job(9, overlapping(rng, 9, (3, 3, 4)), 3, 3, "search overlapping K=9"),
        _search_job(9, _permuted(rng, 9, disjoint(3, 3)), 3, 3, "search disjoint 3x3", Fraction(3, 4)),
        _search_job(8, _permuted(rng, 8, disjoint(2, 4)), 2, 4, "search disjoint 2x4", Fraction(2, 8)),
        _search_job(8, overlapping(rng, 8, (3, 4, 4)), 2, 4, "search overlapping K=8"),
        _theorem_job(*THEOREM_GRID),
        _sweep_job(workdir, "sweep-k7", 7, overlapping(rng, 7, (2, 3, 3)), 2, 4),
        _sweep_job(workdir, "sweep-k5", 5, overlapping(rng, 5, (2, 2, 3)), 2, 3),
        _corollary_job(workdir, "corollary-k6", 6, overlapping(rng, 6, (2, 2, 2)), 3, 2),
    ]
    for n, m in ((3, 2), (2, 3), (4, 2)):
        monomials = _permuted(rng, n * m, disjoint(n, m))
        jobs.append(_aligned_job(n * m, monomials, n, m, f"aligned disjoint {n}x{m}", Fraction(n, 1 << (m - 1))))
    jobs.append(_aligned_job(9, readme, 3, 4, "aligned README", None))
    for k, monomials, n, m in CONSTANT_TERM_CASES:
        jobs.append(_aligned_job(k, monomials, n, m, f"aligned 1+disjoint {n}x{m}",
                                 Fraction(n, 1 << (m - 1)), fault="cannot be aligned"))
    rng.shuffle(jobs)
    return jobs


def placement_warm_up(workdir: Path) -> list[Job]:
    small = [mask([1, 2]), mask([2, 3]), mask([4])]
    return [
        _search_job(4, small, 2, 2, "warm-up search"),
        _theorem_job(2, 2),
        _sweep_job(workdir, "warm-sweep", 4, small, 2, 2),
        # Placements whose summed influence and piece count both vary, so the
        # study computes a rank correlation and imports scipy.stats here.
        _corollary_job(workdir, "warm-corollary", 6, disjoint(2, 3), 3, 2),
        _aligned_job(4, disjoint(2, 2), 2, 2, "warm-up aligned", Fraction(1)),
    ]


# --- influence-wide ------------------------------------------------------

CYCLE_FUNCTIONS = 10  # distinct K=24 functions per round, more than truth_table's 8 cache entries
SUBSETS_OF_ONE = 12
MC_EPSILON, MC_DELTA = 0.002, 1e-3
STRUCTURED_DEGREES = (6, 5, 4, 4, 3)


def dense(rng: random.Random, num_vars: int, num_monomials: int) -> list[int]:
    """A single-component function over all num_vars variables: each
    monomial takes its own share of the variables, one variable of the
    previous monomial and one more at random."""
    order = rng.sample(range(1, num_vars + 1), num_vars)
    shares = [order[i::num_monomials] for i in range(num_monomials)]
    out = []
    for i, share in enumerate(shares):
        chosen = set(share)
        if i:
            chosen.add(rng.choice(shares[i - 1]))
        chosen.add(rng.randint(1, num_vars))
        out.append(mask(chosen))
    return checks.canonical_monomials(out)


def structured(rng: random.Random, num_vars: int, degrees) -> list[int]:
    """Variable-disjoint products of the given degrees, relabelled at random."""
    blocks, start = [], 1
    for d in degrees:
        blocks.append(mask(range(start, start + d)))
        start += d
    return _permuted(rng, num_vars, blocks)


def random_subset(rng: random.Random, num_vars: int, lo: int, hi: int) -> int:
    return mask(rng.sample(range(1, num_vars + 1), rng.randint(lo, hi)))


def _closed_form(monomials, flip: int) -> Fraction:
    return checks.closed_form_disjoint([m.bit_count() for m in monomials], [bool(m & flip) for m in monomials])


class DenseCounts:
    """Expected influence counts of one dense function, all computed from
    one independent truth table the first time any is needed; the table
    is dropped afterwards so it does not add to the run's memory."""

    def __init__(self, num_vars: int, monomials):
        self.num_vars, self.monomials = num_vars, monomials
        self.wanted: set[int] = set()
        self.counts: dict[int, int] | None = None

    def want(self, flip: int) -> int:
        self.wanted.add(flip)
        return flip

    def count(self, flip: int) -> int:
        if self.counts is None:
            table = checks.table_from_anf(self.num_vars, self.monomials)
            self.counts = {s: checks.flip_count(table, self.num_vars, s) for s in self.wanted}
        return self.counts[flip]


def _exact_job(k: int, monomials, flip: int, label: str, expected: Callable[[], int]) -> Job:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)

    def run():
        return ip.joint_influence_exact(f, flip)

    def check(value):
        require(value.is_exact, f"{label}: inexact value")
        checks.check_exact_count(value.count, value.denominator, expected(), k, label)

    return Job("joint_influence_exact", run, check)


def _exact_structured(k: int, monomials, flip: int, label: str) -> Job:
    return _exact_job(k, monomials, flip, label, lambda: int(_closed_form(monomials, flip) * (1 << k)))


def _exact_dense(k: int, counts: DenseCounts, flip: int, label: str) -> Job:
    counts.want(flip)
    return _exact_job(k, counts.monomials, flip, label, lambda: counts.count(flip))


def _avg_job(k: int, monomials, subsets, label: str, expected: Callable[[], Fraction]) -> Job:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    p = ip.PlacementConfig(len(subsets), max(s.bit_count() for s in subsets), tuple(subsets))

    def run():
        return ip.avg_joint_sensitivity(f, p)

    def check(value):
        require(value.is_exact and value.fraction == expected(),
                 f"{label}: summed influence {value}, expected {expected()}")

    return Job("avg_joint_sensitivity", run, check)


def _mc_job(k: int, monomials, flip: int, seed: int, label: str) -> Job:
    f = ip.BooleanFunctionANF.from_masks(k, monomials)
    config = ip.EstimatorConfig(MC_EPSILON, MC_DELTA, seed)
    truth = _closed_form(monomials, flip)

    def run():
        return ip.joint_influence_mc(f, flip, config)

    def check(value):
        require(not value.is_exact, f"{label}: expected an estimate")
        checks.check_mc(value.mean, value.samples, truth, label)

    return Job("joint_influence_mc", run, check)


def influence_wide(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    # Many subsets of one function: one truth table, then cache hits.
    one = DenseCounts(24, dense(rng, 24, 12))
    for i in range(SUBSETS_OF_ONE):
        jobs.append(_exact_dense(24, one, one.want(random_subset(rng, 24, 1, 6)), f"K=24 dense subset {i}"))
    # Two passes over more distinct functions than truth_table caches, half
    # of them structured: with 8 cache entries every question is a miss.
    cycle = [
        structured(rng, 24, STRUCTURED_DEGREES) if i % 2 else DenseCounts(24, dense(rng, 24, 12))
        for i in range(CYCLE_FUNCTIONS)
    ]
    for rep in range(2):
        for i, fn in enumerate(cycle):
            flip = random_subset(rng, 24, 2, 8)
            if isinstance(fn, DenseCounts):
                jobs.append(_exact_dense(24, fn, flip, f"K=24 dense #{i}.{rep}"))
            else:
                jobs.append(_exact_structured(24, fn, flip, f"K=24 structured #{i}.{rep}"))
    for k in (20, 21, 22):
        monomials = structured(rng, k, (5, 5, 4, 3))
        jobs.append(_exact_structured(k, monomials, random_subset(rng, k, 1, 6), f"K={k} structured"))
        counts = DenseCounts(k, dense(rng, k, 10))
        jobs.append(_exact_dense(k, counts, random_subset(rng, k, 1, 6), f"K={k} dense"))
    # Summed influence of a placement, on one structured and one dense function.
    monomials = structured(rng, 20, (5, 5, 4, 3))
    subsets = [random_subset(rng, 20, 5, 5) for _ in range(4)]
    jobs.append(_avg_job(20, monomials, subsets, "K=20 structured placement",
                         lambda m=monomials, ss=subsets: sum(_closed_form(m, s) for s in ss)))
    counts = DenseCounts(21, dense(rng, 21, 10))
    subsets = [counts.want(random_subset(rng, 21, 5, 5)) for _ in range(3)]
    jobs.append(_avg_job(21, counts.monomials, subsets, "K=21 dense placement",
                         lambda c=counts, ss=subsets: Fraction(sum(c.count(s) for s in ss), 1 << 21)))
    # Past the exact limit: the Monte Carlo estimator at about 10^6 samples.
    for k, degrees in ((30, (5, 4, 4, 3)), (48, (6, 5, 4, 3, 3)), (64, (8, 6, 5, 4, 3, 3))):
        monomials = structured(rng, k, degrees)
        flip = random_subset(rng, k, 2, 10)
        jobs.append(_mc_job(k, monomials, flip, rng.randrange(1 << 32), f"K={k} Monte Carlo"))
    return jobs


def influence_warm_up(workdir: Path) -> list[Job]:
    rng = random.Random(0)
    monomials = structured(rng, 10, (3, 3, 2))
    counts = DenseCounts(10, dense(rng, 10, 4))
    return [
        _exact_structured(10, monomials, mask([1, 2, 3]), "warm-up structured"),
        _exact_dense(10, counts, counts.want(mask([1, 5])), "warm-up dense"),
        _avg_job(10, monomials, [mask([1, 2]), mask([3, 4])], "warm-up placement",
                 lambda: _closed_form(monomials, mask([1, 2])) + _closed_form(monomials, mask([3, 4]))),
        _mc_job(30, structured(rng, 30, (3, 3)), mask([1, 2, 3, 4]), 1, "warm-up Monte Carlo"),
    ]


WORKLOADS = {
    "synth-corpus": (synth_corpus, synth_warm_up),
    "placement-study": (placement_study, placement_warm_up),
    "influence-wide": (influence_wide, influence_warm_up),
}
