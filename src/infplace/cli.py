"""Command line front end.

Every command is deterministic given its inputs and options, and takes
only the options it reads.  --seed goes with the randomized paths only:
``influence`` and ``avg-sensitivity`` with --mc (as do --epsilon and
--delta), and ``oracle lemma1``.  --threads, on every command, is
validated and otherwise ignored: every command runs on one thread.
Each completed run emits a JSON manifest: as a ``<output>.manifest.json``
sidecar when the command writes a file, on stderr otherwise.

Exit codes: 0 success, 2 bad input, 3 infeasible mode (exact paths and
lemma truth tables past their limits, step or row budgets), 4 placement
cannot compute the function, 5 a verification or oracle assertion failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Sequence

from . import __version__
from .anf import (
    BooleanFunctionANF,
    ParseError,
    dump_object,
    function_to_json,
    mask_from_indices,
    parse_function,
)
from .influence import (
    EstimatorConfig,
    ExactLimitError,
    avg_joint_sensitivity,
    joint_influence_exact,
    joint_influence_mc,
)
from .placement import (
    ENUMERATION_BUDGET,
    EnumerationBudgetError,
    PlacementConfig,
    PlacementConstraints,
    PlacementSpace,
    aligned_placement,
    parse_placement,
    placement_to_json,
    search_min_as,
    subset_label,
)
from .oracle import (
    LEMMA1_DEGREES,
    LEMMA1_SUBSET_TRIALS,
    LEMMA2_DEGREES,
    check_lemma1,
    check_lemma2,
    check_theorem,
    corollary_study,
    disjoint_products,
)
from .transmission import (
    SynthesisLimitError,
    UncomputablePlacementError,
    count_transmissions,
    parse_scheme,
    scheme_structure_errors,
    scheme_to_json,
    synthesize_exact,
    synthesis_key,
    synthesize_greedy,
    verify_scheme,
)

DEFAULT_SEED = 2024

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_UNCOMPUTABLE = 4
EXIT_ASSERTION_FAILED = 5


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_function(path: str, inputs: dict[str, str]) -> BooleanFunctionANF:
    f = parse_function(Path(path).read_text())
    inputs[path] = _sha256(function_to_json(f))
    return f


def _load_placement(path: str, inputs: dict[str, str]) -> PlacementConfig:
    p = parse_placement(Path(path).read_text())
    inputs[path] = _sha256(placement_to_json(p))
    return p


def _parse_subset(text: str, num_datasets: int) -> int:
    text = text.strip()
    if not text:
        return 0
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad subset spec {text!r}: {exc}") from exc
    return mask_from_indices(indices, num_datasets=num_datasets)


def _write_primary(path: str | None, text: str, note: str) -> None:
    """File outputs keep notes on stdout; stdout outputs push notes to stderr."""
    if path is not None:
        Path(path).write_text(text)
        sys.stdout.write(note)
    else:
        sys.stdout.write(text)
        sys.stderr.write(note)


def _estimator(args: argparse.Namespace) -> EstimatorConfig | None:
    """The Monte Carlo contract with --mc, else None.  --epsilon, --delta
    and --seed are in ``args`` only when given: without --mc each is
    refused, with it each missing one takes its default."""
    given = {name: getattr(args, name) for name in ("epsilon", "delta", "seed") if name in args}
    if not args.mc:
        if given:
            raise ParseError(f"--{next(iter(given))} needs --mc")
        return None
    return EstimatorConfig(**{"epsilon": 0.01, "delta": 1e-3, "seed": DEFAULT_SEED, **given})


def _cmd_influence(args, inputs):
    estimator = _estimator(args)
    f = _load_function(args.function, inputs)
    flip = _parse_subset(args.subset, f.num_datasets)
    if estimator:
        value = joint_influence_mc(f, flip, estimator)
    else:
        value = joint_influence_exact(f, flip)
    sys.stdout.write(str(value) + "\n")
    return EXIT_OK, None, {"seed": estimator.seed} if estimator else {}


def _cmd_avg_sensitivity(args, inputs):
    estimator = _estimator(args)
    f = _load_function(args.function, inputs)
    p = _load_placement(args.placement, inputs)
    value = avg_joint_sensitivity(f, p, estimator)
    sys.stdout.write(f"{value.fraction if value.is_exact else value}\n")
    return EXIT_OK, None, {"seed": estimator.seed} if estimator else {}


def _cmd_place(args, inputs):
    if args.method == "aligned" and args.budget is not None:
        raise ParseError("--budget needs --method exhaustive")
    f = _load_function(args.function, inputs)
    constraints = PlacementConstraints(f.num_datasets, args.num_servers, args.cache_size)
    if args.method == "aligned":
        placement = aligned_placement(f, constraints)
        value = avg_joint_sensitivity(f, placement)
    else:
        placement, value = search_min_as(
            f, constraints, budget=args.budget or ENUMERATION_BUDGET
        )
    _write_primary(args.output, placement_to_json(placement), f"as = {value.fraction}\n")
    return EXIT_OK, args.output, {}


def _cmd_synthesize(args, inputs):
    f = _load_function(args.function, inputs)
    p = _load_placement(args.placement, inputs)
    if args.greedy:
        scheme = synthesize_greedy(f, p)
    else:
        scheme = synthesize_exact(f, p)
    counts = count_transmissions(scheme, num_servers=p.num_servers)
    _write_primary(args.output, scheme_to_json(scheme), f"T = {counts.total}\n")
    return EXIT_OK, args.output, {"transmissions": counts.total}


def _cmd_verify(args, inputs):
    scheme = parse_scheme(Path(args.scheme).read_text())
    inputs[args.scheme] = _sha256(scheme_to_json(scheme))
    f = _load_function(args.function, inputs)
    placement = _load_placement(args.placement, inputs) if args.placement else None
    problems = scheme_structure_errors(scheme, f, placement)
    for problem in problems:
        sys.stderr.write(f"structure: {problem}\n")
    try:
        result = verify_scheme(scheme, f)
    except ValueError:
        # A plan row count other than f's or a piece past K: decoding
        # cannot start, and the structure check has named the fault.
        sys.stdout.write(f"FAIL structure errors={len(problems)}, not decoded\n")
        return EXIT_ASSERTION_FAILED, None, {}
    if not result.passed:
        bits = result.counterexample_bits(f.num_datasets)
        sys.stdout.write(f"FAIL counterexample={bits} (exhaustive)\n")
        return EXIT_ASSERTION_FAILED, None, {}
    n = result.inputs_checked
    if problems:
        # Overlapping pieces still multiply to the monomial, so decoding
        # passes, yet the row is no partition and its piece count is wrong.
        sys.stdout.write(
            f"FAIL structure errors={len(problems)}, decoded {n}/{n} inputs (exhaustive)\n"
        )
        return EXIT_ASSERTION_FAILED, None, {}
    sys.stdout.write(f"PASS {n}/{n} inputs (exhaustive)\n")
    return EXIT_OK, None, {}


def _parse_degrees(text: str) -> list[int]:
    """Accept "3", "2..5", or "2,4,6"."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            out = list(range(int(lo), int(hi) + 1))
        else:
            out = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad degree range {text!r}: {exc}") from exc
    if not out or any(d < 1 for d in out):
        raise ParseError(f"bad degree range {text!r}")
    return out


def _cmd_oracle(args, inputs):
    if args.claim == "lemma1":
        degrees = _parse_degrees(args.degrees) if args.degrees else LEMMA1_DEGREES
        seed = getattr(args, "seed", DEFAULT_SEED)
        report = check_lemma1(degrees, subset_trials=args.trials, seed=seed)
    elif args.claim == "lemma2":
        report = check_lemma2(_parse_degrees(args.degrees) if args.degrees else LEMMA2_DEGREES)
    elif args.claim == "theorem":
        report = check_theorem(args.num_servers, args.cache_size)
    else:
        if args.function:
            f = _load_function(args.function, inputs)
        else:
            f = disjoint_products(args.num_servers, args.cache_size)
        space = PlacementSpace(
            PlacementConstraints(f.num_datasets, args.num_servers, args.cache_size), f
        )
        rows = space.ordered()
        covering = (c for c in islice(rows, ENUMERATION_BUDGET) if space.computable(c))
        placements = [space.config(c) for c in islice(covering, args.limit)]
        if len(placements) < args.limit and next(rows, None) is not None:
            raise EnumerationBudgetError(
                f"the row budget {ENUMERATION_BUDGET} ran out after {len(placements)}"
                f" of --limit {args.limit} computable placements"
            )
        report = corollary_study(f, placements)

    summary = "; ".join(f"{k}={v}" for k, v in sorted(report.summary.items()))
    note = f"{report.claim}: {'pass' if report.passed else 'FAIL'}; {summary}\n"
    _write_primary(args.output, report.to_json_text(), note)
    if args.csv:
        Path(args.csv).write_text(report.to_csv_text())
    code = EXIT_OK if report.passed else EXIT_ASSERTION_FAILED
    extras = {"claim": report.claim, "passed": report.passed, "seed": report.seed}
    return code, args.output, extras


def _cmd_sweep(args, inputs):
    f = _load_function(args.function, inputs)
    constraints = PlacementConstraints(f.num_datasets, args.num_servers, args.cache_size)
    space = PlacementSpace(constraints, f)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    servers = range(1, args.num_servers + 1)
    writer.writerow(
        ["placement_id", "subsets", "as", "as_decimal", "T_exact", "T_greedy"]
        + [f"inf_server_{n}" for n in servers]
        + [f"pieces_server_{n}" for n in servers]
    )
    denom = 1 << f.num_datasets
    text: dict[int, tuple[str, str]] = {}  # subset number -> (label, influence)
    counts: dict[int, int] = {}  # subset number -> influence count
    sums: dict[int, tuple[str, str]] = {}  # summed count -> (as, as_decimal)
    # synthesis_key -> (T_exact, T_greedy, pieces per server); one per call.
    synthesized: dict[tuple[int, ...], tuple[int, int, list[int]]] = {}
    rows = space.ordered()
    emitted = 0
    for combo in islice(rows, args.budget or ENUMERATION_BUDGET):
        for i in combo:
            if i not in text:
                counts[i] = space.influence(i)
                text[i] = subset_label(space.mask(i)), str(Fraction(counts[i], denom))
        summed = sum(map(counts.__getitem__, combo))
        if summed not in sums:
            as_value = Fraction(summed, denom)
            sums[summed] = str(as_value), repr(float(as_value))
        if space.computable(combo):
            key = synthesis_key(f, map(space.mask, combo))
            if key not in synthesized:
                placement = space.config(combo)
                exact = count_transmissions(
                    synthesize_exact(f, placement), num_servers=args.num_servers
                )
                greedy = count_transmissions(synthesize_greedy(f, placement)).total
                synthesized[key] = exact.total, greedy, list(exact.per_server)
            t_exact, t_greedy, pieces = synthesized[key]
        else:
            t_exact = t_greedy = ""
            pieces = [""] * args.num_servers
        labels, influences = zip(*(text[i] for i in combo))
        writer.writerow(
            [emitted, "; ".join(labels), *sums[summed], t_exact, t_greedy]
            + list(influences)
            + pieces
        )
        emitted += 1
    _write_primary(args.output, buf.getvalue(), f"{emitted} placements swept\n")
    extras = {
        "placements_total": space.size_text,
        "placements_emitted": emitted,
        "truncated": next(rows, None) is not None,
        "syntheses": len(synthesized),
    }
    return EXIT_OK, args.output, extras


def _int_at_least(least: int, text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


_positive_int = functools.partial(_int_at_least, 1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  It holds no default read from a
    module name: ``--budget`` is None when not given, and the commands
    read ``ENUMERATION_BUDGET`` when they run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility and ignored (at least 1)",
    )

    # --seed, --epsilon and --delta are absent from the namespace unless
    # given: the code that reads them decides their defaults.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=functools.partial(_int_at_least, 0),
        default=argparse.SUPPRESS,
        help=f"seed of the random draws, at least 0 (default {DEFAULT_SEED})",
    )
    estimator = argparse.ArgumentParser(add_help=False, parents=[seeded])
    estimator.add_argument("--mc", action="store_true", help="Monte Carlo estimate")
    estimator.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    estimator.add_argument("--delta", type=float, default=argparse.SUPPRESS)
    function = argparse.ArgumentParser(add_help=False)
    function.add_argument("-f", "--function", required=True, metavar="FILE")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("-N", "--num-servers", type=_positive_int, required=True)
    grid.add_argument("-M", "--cache-size", type=_positive_int, required=True)

    parser = argparse.ArgumentParser(
        prog="infplace",
        description=(
            "Influence analysis, placement search, and transmission-scheme"
            " synthesis for XOR-of-monomial Boolean functions over"
            " distributed datasets."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "influence",
        parents=[common, function, estimator],
        help="joint influence of one flip set",
    )
    p.add_argument(
        "--subset",
        required=True,
        help='comma separated 1-based dataset indices ("" for the empty set)',
    )
    p.set_defaults(func=_cmd_influence)

    p = sub.add_parser(
        "avg-sensitivity",
        parents=[common, function, estimator],
        help="summed joint influence of a placement's subsets",
    )
    p.add_argument("-p", "--placement", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_avg_sensitivity)

    p = sub.add_parser(
        "place", parents=[common, function, grid], help="search for a minimum-sensitivity placement"
    )
    p.add_argument("--method", choices=["exhaustive", "aligned"], default="exhaustive")
    p.add_argument(
        "--budget", type=_positive_int, help="search steps, at least 1 (default 10^7)"
    )
    p.add_argument("-o", "--output", metavar="FILE", help="placement file (default stdout)")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser(
        "synthesize", parents=[common, function], help="build a transmission scheme"
    )
    p.add_argument("-p", "--placement", required=True, metavar="FILE")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true", help="minimum piece count")
    mode.add_argument("--greedy", action="store_true", help="fast heuristic")
    p.add_argument("-o", "--output", metavar="FILE", help="scheme file (default stdout)")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "verify", parents=[common, function], help="check that a scheme decodes the function"
    )
    p.add_argument("-s", "--scheme", required=True, metavar="FILE")
    p.add_argument(
        "-p", "--placement", metavar="FILE", help="also check each piece against its server"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force checks of the closed-form claims")
    p.set_defaults(func=_cmd_oracle)
    claims = p.add_subparsers(dest="claim", required=True)
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument("-o", "--output", metavar="FILE", help="JSON report (default stdout)")
    report.add_argument("--csv", metavar="FILE", help="also write per-case CSV")
    degrees = argparse.ArgumentParser(add_help=False, parents=[report])
    degrees.add_argument("-d", "--degrees", help='degree grid, e.g. "2..5" or "3,4"')
    p = claims.add_parser("lemma1", parents=[degrees, seeded], help="single-product influence")
    p.add_argument("--trials", type=_positive_int, default=LEMMA1_SUBSET_TRIALS)
    claims.add_parser("lemma2", parents=[degrees], help="influence under support swaps")
    claims.add_parser("theorem", parents=[report, grid], help="N/2^(M-1) at desk scale")
    p = claims.add_parser(
        "corollary", parents=[report, grid], help="sensitivity against piece count"
    )
    p.add_argument("-f", "--function", metavar="FILE", help="default: N disjoint products")
    p.add_argument(
        "--limit", type=_positive_int, default=200, help="placements studied (at least 1)"
    )

    p = sub.add_parser(
        "sweep",
        parents=[common, function, grid],
        help="per-placement CSV of sensitivities and piece counts",
    )
    p.add_argument(
        "--budget", type=_positive_int, help="placements, at least 1 (default 10^7)"
    )
    p.add_argument("-o", "--output", metavar="FILE", help="CSV file (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    # The parser of the command, or of the claim, that reports a stray option.
    for leaf in (*sub.choices.values(), *claims.choices.values()):
        leaf.set_defaults(leaf_parser=leaf)
    return parser


def _infeasible_hint(args: argparse.Namespace, exc: Exception) -> str:
    """The ways out of the exit 3 raised that the running command offers."""
    ways = []
    if isinstance(exc, ExactLimitError) and hasattr(args, "mc"):
        ways.append("use --mc")
    if isinstance(exc, EnumerationBudgetError):
        if args.command == "place":
            ways.append("raise --budget")
        elif getattr(args, "claim", None) == "corollary":
            ways.append("lower --limit")
    ways.append("shrink the instance")
    return " or ".join(ways)


def main(argv: Sequence[str] | None = None) -> int:
    raw_args = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args, stray = parser.parse_known_args(raw_args)
    if stray:
        args.leaf_parser.error(f"unrecognized arguments: {' '.join(stray)}")
    inputs: dict[str, str] = {}
    start = time.perf_counter()
    try:
        code, output_path, extras = args.func(args, inputs)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    except UncomputablePlacementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNCOMPUTABLE
    except (ExactLimitError, EnumerationBudgetError, SynthesisLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(f"hint: {_infeasible_hint(args, exc)}\n")
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR
    manifest = {
        "command": args.command,
        "arguments": raw_args,
        "seed": None,  # a command that drew from a seed names it in its extras
        "version": __version__,
        "inputs": inputs,  # path -> sha256 of the canonical serialization
        "duration_seconds": time.perf_counter() - start,
        **extras,
    }
    text = dump_object(manifest)
    if output_path is not None:
        Path(str(output_path) + ".manifest.json").write_text(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
