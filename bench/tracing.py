"""Spans around the calls into each infplace layer, kept in memory.

:meth:`Tracer.install` replaces each traced public function with a
wrapper in every ``infplace`` module that holds it, because ``cli`` and
``oracle`` import functions by name and look them up in their own
namespace.  A wrapper records one span (name, start, end, parent) per
call plus the work counters that can be read off the call's arguments
and result.  Per-layer metrics, self time included, are computed from
the spans afterwards; nothing inside the program is changed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import infplace.placement

# Traced functions: (layer, module that defines it, attribute).
TRACED = (
    ("anf", "infplace.anf", "truth_table"),
    ("influence", "infplace.influence", "joint_influence_exact"),
    ("influence", "infplace.influence", "joint_influence_mc"),
    ("influence", "infplace.influence", "avg_joint_sensitivity"),
    ("placement", "infplace.placement", "search_min_as"),
    ("placement", "infplace.placement", "aligned_placement"),
    ("transmission", "infplace.transmission", "synthesize_exact"),
    ("transmission", "infplace.transmission", "synthesize_greedy"),
    ("transmission", "infplace.transmission", "verify_scheme"),
    ("oracle", "infplace.oracle", "check_theorem"),
    ("oracle", "infplace.oracle", "corollary_study"),
    ("cli", "infplace.cli", "main"),
)
# Spans in which placements are enumerated, for placement.placements_per_s.
SCANNING = ("placement.search_min_as",)


def _replace(original: Callable, wrapper: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if name == "infplace" or name.startswith("infplace."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._scanning_spans: set[int] = set()
        self.yields = 0  # placements that passed through the counting enumerator

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, self.spans[sid][3])
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an infplace module holds it."""
        for layer, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            name = f"{layer}.{attr}"
            _replace(original, self._wrap(name, self._counting(attr, original), self._after(attr)))
        original = infplace.placement.enumerate_placements
        _replace(original, self._counting_enumerator(original))

    def _counting(self, attr: str, fn: Callable) -> Callable:
        """truth_table's misses and cells need the cache state around the call."""
        if attr != "truth_table" or not hasattr(fn, "cache_info"):
            return fn

        def counted(f):
            before = fn.cache_info().misses
            table = fn(f)
            if fn.cache_info().misses > before:
                self.counters["anf.truth_table.misses"] += 1
                self.counters["anf.truth_table.cells"] += 1 << f.num_datasets
            return table

        return counted

    def _after(self, attr: str) -> Callable | None:
        c = self.counters
        if attr == "joint_influence_exact":
            def after(args, kwargs, value):
                c["influence.joint_influence_exact.cells"] += 1 << args[0].num_datasets
        elif attr == "joint_influence_mc":
            def after(args, kwargs, value):
                c["influence.joint_influence_mc.samples"] += value.samples
        elif attr == "search_min_as":
            def after(args, kwargs, result):
                # The exhaustive search scans every ordered placement without
                # the enumerator, so its count comes from the constraints.
                method = args[2] if len(args) > 2 else kwargs.get("method", infplace.placement.SEARCH_EXHAUSTIVE)
                if method == infplace.placement.SEARCH_EXHAUSTIVE:
                    c["placement.placements_scanned"] += infplace.placement.count_placements(args[1])
        elif attr in ("synthesize_exact", "synthesize_greedy"):
            key = "transmission.pieces_" + attr.split("_")[1]

            def after(args, kwargs, scheme):
                c[key] += len(scheme.pieces)
        elif attr == "verify_scheme":
            def after(args, kwargs, result):
                c["transmission.verify_scheme.inputs"] += result.inputs_checked
        elif attr == "main":
            def after(args, kwargs, code):
                argv = list(args[0])
                for flag in ("-o", "--output", "--csv"):
                    if flag in argv:
                        path = Path(argv[argv.index(flag) + 1])
                        for written in (path, Path(str(path) + ".manifest.json")):
                            if written.exists():
                                c["cli.bytes_written"] += written.stat().st_size
        else:
            return None
        return after

    def _counting_enumerator(self, original: Callable) -> Callable:
        """Count placements yielded by enumerate_placements, charged to the
        innermost open span (the one that scans them)."""

        def counted(*args, **kwargs):
            if self._stack:
                self._scanning_spans.add(self._stack[-1])
            for placement in original(*args, **kwargs):
                self.counters["placement.placements_scanned"] += 1
                self.yields += 1
                yield placement

        return counted

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics from the spans and counters."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        longest = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        scanning = 0.0
        for sid, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            total[name] += duration
            self_time[name] += duration - child_time[sid]
            calls[name] += 1
            longest[name] = max(longest[name], duration)
            if name in SCANNING or sid in self._scanning_spans:
                scanning += duration
        c = self.counters

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        per_round = {
            "anf.truth_table.calls": calls["anf.truth_table"],
            "anf.truth_table.misses": c["anf.truth_table.misses"],
            "anf.truth_table.s": total["anf.truth_table"],
            "anf.truth_table.cells": c["anf.truth_table.cells"],
            "influence.joint_influence_exact.calls": calls["influence.joint_influence_exact"],
            "influence.joint_influence_exact.self_s": self_time["influence.joint_influence_exact"],
            "influence.joint_influence_mc.samples": c["influence.joint_influence_mc.samples"],
            "influence.avg_joint_sensitivity.s": total["influence.avg_joint_sensitivity"],
            "placement.search_min_as.s": total["placement.search_min_as"],
            "placement.placements_scanned": c["placement.placements_scanned"],
            "placement.aligned_placement.calls": calls["placement.aligned_placement"],
            "transmission.synthesize_exact.calls": calls["transmission.synthesize_exact"],
            "transmission.synthesize_exact.s": total["transmission.synthesize_exact"],
            "transmission.synthesize_greedy.s": total["transmission.synthesize_greedy"],
            "transmission.verify_scheme.s": total["transmission.verify_scheme"],
            "transmission.verify_scheme.inputs": c["transmission.verify_scheme.inputs"],
            "transmission.pieces_exact": c["transmission.pieces_exact"],
            "transmission.pieces_greedy": c["transmission.pieces_greedy"],
            "oracle.check_theorem.self_s": self_time["oracle.check_theorem"],
            "oracle.corollary_study.self_s": self_time["oracle.corollary_study"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_time["cli.main"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.spans": len(self.spans),
            "trace.yields": self.yields,
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["transmission.synthesize_exact.max_s"] = longest["transmission.synthesize_exact"]
        out["influence.joint_influence_exact.cells_per_s"] = rate(
            c["influence.joint_influence_exact.cells"], self_time["influence.joint_influence_exact"]
        )
        out["influence.joint_influence_mc.samples_per_s"] = rate(
            c["influence.joint_influence_mc.samples"], total["influence.joint_influence_mc"]
        )
        out["placement.placements_per_s"] = rate(c["placement.placements_scanned"], scanning)
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def wrapper_costs(repeats: int = 9, calls: int = 20_000) -> tuple[float, float]:
    """Seconds that tracing adds per span and per counted placement: a traced
    no-op call, and a placement passed through the counting enumerator,
    against the bare ones; the median over ``repeats`` batches of ``calls``."""

    def noop():
        return None

    def placements():
        return iter(range(calls))

    def timed(fn: Callable) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    per_span, per_yield = [], []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer._wrap("noop", noop, None)
        counted = tracer._counting_enumerator(placements)
        bare = timed(lambda: [noop() for _ in range(calls)])
        per_span.append((timed(lambda: [traced() for _ in range(calls)]) - bare) / calls)
        bare = timed(lambda: [None for _ in placements()])
        per_yield.append((timed(lambda: [None for _ in counted()]) - bare) / calls)
    return statistics.median(per_span), statistics.median(per_yield)
