"""In-memory span tracing around the calls the benchmark makes into clustercov.

Spans are recorded from the benchmark's own files: ``instrument`` swaps the
module attributes through which one clustercov layer calls the next for
timing wrappers, and puts the originals back on exit.  No source file of the
package changes.  A span holds its name, start, end and the span that caused
it; spans of one pass stay in memory, in flat arrays of 28 bytes per span,
until the run reports.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from array import array
from collections import defaultdict

# Span names, one family per layer.  Kept as constants so the aggregation
# below and the wrappers cannot drift apart.
INTER_SUMS = "accel.inter_sums"
RADIAL_SUMS = "accel.radial_sums"
MC = "mc"
COVERAGE_GC = "coverage.gc"
COVERAGE_EXACT = "coverage.exact"
LAPLACE_INTRA = "laplace.intra"
LAPLACE_INTER = "laplace.inter"
LAPLACE_COEXIST = "laplace.coexist"
HYP2F1 = "special.hyp2f1"
CONFIG_BUILD = "config.build"
RUN_SWEEP = "cli.run_sweep"


class Tracer:
    """Spans and counters of one pass of a workload."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def name(self, index: int) -> str:
        return self._names[self.name_id[index]]

    def __len__(self) -> int:
        return len(self.start)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in start order (the order ``Tracer.begin`` records
    them), which makes the children of a parent arrive sorted by start, so
    their union is one sweep: each child adds only the part of it that lies
    inside the parent and after the furthest end seen among its earlier
    siblings.
    """
    n = len(start)
    covered = [0.0] * n
    reach = list(start)  # per parent: furthest point already covered
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarise(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one pass: calls, seconds and self seconds by name."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict[str, float] = defaultdict(float)
    for i in range(len(tracer)):
        name = tracer.name(i)
        out[name + ".calls"] += 1
        out[name + ".s"] += tracer.end[i] - tracer.start[i]
        out[name + ".self_s"] += selfs[i]
        parent = tracer.parent[i]
        if name == LAPLACE_COEXIST and parent >= 0 and tracer.name(parent) == COVERAGE_EXACT:
            out[COVERAGE_EXACT + ".integrand_evals"] += 1
    out.update(tracer.counters)
    return dict(out)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans at every layer boundary of clustercov for the block.

    Each wrapper replaces a name in the namespace of the module that calls
    it, so only calls that cross a layer boundary are recorded.  Spans
    recorded in pool workers would never reach this process, so traced
    passes must run with one worker.
    """
    from clustercov import cli, laplace, mc
    from clustercov.coverage import Method

    # the package exports a function named coverage over the module's name
    coverage = importlib.import_module("clustercov.coverage")

    def count_nodes(name: str, nodes_arg: int, with_bytes: bool):
        def after(args, kwargs, result):
            tracer.add(name + ".nodes", len(args[nodes_arg]))
            if with_bytes:
                moved = sum(a.nbytes for a in args if hasattr(a, "nbytes"))
                tracer.add(name + ".bytes_computed", moved + result.nbytes)
        return after

    def count_trials(args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        tracer.add(MC + ".trials", spec.trials)
        tracer.add(MC + ".chunks", math.ceil(spec.trials / spec.chunk_trials))

    def count_csv(args, kwargs, result):
        out_path = args[1] if len(args) > 1 else kwargs["out_path"]
        tracer.add("cli.csv_bytes", os.path.getsize(out_path))

    gc_coverage = _wrap(tracer, COVERAGE_GC, cli.coverage)
    exact_coverage = _wrap(tracer, COVERAGE_EXACT, cli.coverage)

    def routed_coverage(*args, **kwargs):
        method = kwargs.get("method", args[3] if len(args) > 3 else Method.GAUSS_CHEBYSHEV)
        target = exact_coverage if method is Method.EXACT_INTEGRAL else gc_coverage
        return target(*args, **kwargs)

    patches = [
        (mc, "inter_sums", _wrap(tracer, INTER_SUMS, mc.inter_sums,
                                 count_nodes(INTER_SUMS, 3, True))),
        (mc, "radial_sums", _wrap(tracer, RADIAL_SUMS, mc.radial_sums,
                                  count_nodes(RADIAL_SUMS, 0, False))),
        (mc, "estimate_coverage", _wrap(tracer, MC, mc.estimate_coverage, count_trials)),
        (cli, "coverage", routed_coverage),
        (cli, "build_link", _wrap(tracer, CONFIG_BUILD, cli.build_link)),
        (cli, "build_scenarios", _wrap(tracer, CONFIG_BUILD, cli.build_scenarios)),
        (cli, "run_sweep", _wrap(tracer, RUN_SWEEP, cli.run_sweep, count_csv)),
        (laplace, "hyp2f1_1_b", _wrap(tracer, HYP2F1, laplace.hyp2f1_1_b)),
    ]
    for attr in dir(coverage):
        if attr.startswith("laplace_intra"):
            patches.append((coverage, attr, _wrap(tracer, LAPLACE_INTRA, getattr(coverage, attr))))
        elif attr.startswith("laplace_inter"):
            patches.append((coverage, attr, _wrap(tracer, LAPLACE_INTER, getattr(coverage, attr))))
    patches.append((coverage, "laplace_coexist",
                    _wrap(tracer, LAPLACE_COEXIST, coverage.laplace_coexist)))

    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
