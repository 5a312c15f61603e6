"""The benchmark's workloads, built from a seed and run through the public API.

A workload turns the seed into fixed inputs once and lists its operations:
``ops`` are (label, call) pairs, one per MC call or sweep, that the runner
times one by one.  ``collect`` (untimed) reads the results back, runs the
output checks and derives the pass's figures.  Every pass of a run repeats
the same operations, so outputs must match bit for bit and counts repeat
exactly.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

import clustercov as cc
from clustercov import cli, mc
from clustercov.config import PRESETS, build_sweep

from checks import check_mc_bound, check_monotone, check_sweep, parse_rows
from probe import reference_link

GAMMA_DB = tuple(range(-20, 11, 2))  # the shared 16-point threshold grid
REF_GAMMA_DB = -10
CI_HALFWIDTH = 0.005  # s_to_ci target: every curve to +/- 0.005 at 95 %
Z95 = 1.96


def trials_to_ci(var_per_trial: float) -> float:
    """Trials that bring a per-trial variance to the target CI half-width."""
    return (Z95 / CI_HALFWIDTH) ** 2 * var_per_trial


@dataclass
class PassResult:
    """One pass after its checks: what was attempted, what failed, and why."""

    op_seconds: list[float]  # calibrated seconds of each operation
    attempted: int = 0
    failed: int = 0
    work: int = 0  # MC trials simulated, or coverage points computed
    # per operation: seconds to bring its estimates to +/- CI_HALFWIDTH,
    # per second the operation took (s_to_ci = sum of weight * seconds)
    ci_weights: list[float] = field(default_factory=list)
    var_per_trial: float = 0.0  # summed over MC estimates at REF_GAMMA_DB
    fingerprint: tuple = ()  # outputs that every identical pass must repeat
    messages: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)

    def raised(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.messages.append(f"{label}: raised {detail}")


class McReference:
    """estimate_coverage on the reference network for the four preset scenarios."""

    name = "mc-reference"
    why = ("long-run MC path on the reference network: kernels, RNG draws and the "
           "estimator dominate and the analytic layers sit idle")
    uses_mc = True
    workers = 1
    calibrated = True  # one process on one core, like the calibration slice

    def __init__(self, seed: int, out_dir: str, tiny: bool = False) -> None:
        link = reference_link()
        config = cc.NetworkConfig(link=link, window_radius=20000.0)
        gammas = tuple(10.0 ** (db / 10.0) for db in GAMMA_DB)
        self.ref_index = GAMMA_DB.index(REF_GAMMA_DB)
        self.specs = [
            cc.SimSpec(
                config=config, scenario=cc.Scenario(ordering, size),
                trials=256 if tiny else 4096, seed=seed, gamma_grid=gammas,
            )
            for ordering in (cc.Unordered(), cc.Ordered())
            for size in (cc.FixedSize(6), cc.PoissonSize(6.0))
        ]
        # Reference values for the bound-side check, computed before any
        # timing or tracing so the analytic layers stay idle in the passes.
        self.gc = [[cc.coverage(g, s.scenario, link).value for g in gammas] for s in self.specs]
        # looked up at call time, so tracing sees the call
        self.ops = [(s.scenario.tag(), lambda s=s: mc.estimate_coverage(s)) for s in self.specs]

    def collect(self, results: list, seconds: list[float]) -> PassResult:
        res = PassResult(seconds, attempted=len(results), ci_weights=[0.0] * len(results))
        fingerprint = []
        for i, (spec, gc, est) in enumerate(zip(self.specs, self.gc, results)):
            tag = spec.scenario.tag()
            if isinstance(est, Exception):
                res.raised(tag, est)
                continue
            means = [e.mean for e in est]
            fixed = isinstance(spec.scenario.size_model, cc.FixedSize)
            problems = check_monotone(means) + [
                p for m, q in zip(means, gc) for p in check_mc_bound(m, q, spec.trials, fixed)
            ]
            if problems:
                res.failed += 1
                res.messages.extend(f"{tag}: {p}" for p in problems)
            var = spec.trials * est[self.ref_index].stderr ** 2
            res.work += spec.trials
            res.var_per_trial += var
            res.ci_weights[i] = trials_to_ci(var) / spec.trials
            fingerprint.extend(means)
        res.fingerprint = tuple(fingerprint)
        return res


def _check_rows(res: PassResult, label: str, csv_bytes: list[bytes], trials: int) -> list[dict]:
    """Check the rows of one sweep (or of the GC and exact sweeps of one preset)."""
    rows = [row for data in csv_bytes for row in parse_rows(data)]
    res.attempted += len(rows)
    failures = check_sweep(rows, trials)
    res.failed += len(failures)
    for index, problems in sorted(failures.items()):
        row = rows[index]
        where = f"{label} {row['method']} {row['scenario']} at {row['axis_value']}"
        res.messages.extend(f"{where}: {p}" for p in problems)
    return rows


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class AnalyticPresets:
    """run_sweep over every preset, GC-only in one phase, exact-only in another."""

    name = "analytic-presets"
    why = ("closed forms only (coverage, laplace, special, config, cli) and no call "
           "into mc or _accel, so an MC change must leave it unchanged")
    uses_mc = False
    workers = 1
    calibrated = True
    methods = ("gc", "exact")

    def __init__(self, seed: int, out_dir: str, tiny: bool = False) -> None:
        presets = ("fig2", "fig6") if tiny else tuple(sorted(PRESETS))
        self.sweeps = [
            (method, preset, build_sweep({"methods": (method,), "seed": seed}, preset=preset)[1],
             os.path.join(out_dir, f"{preset}-{method}.csv"))
            for method in self.methods
            for preset in presets
        ]
        self.ops = [
            (f"{preset} {method}", lambda spec=spec, path=path: cli.run_sweep(spec, path))
            for method, preset, spec, path in self.sweeps
        ]

    def collect(self, results: list, seconds: list[float]) -> PassResult:
        # GC alone answers every point to +/- 0.005, being checked within 1e-3
        # of exact, so s_to_ci is the time of the GC sweeps
        res = PassResult(seconds, ci_weights=[float(m == "gc") for m, *_ in self.sweeps])
        by_preset: dict[str, list[bytes]] = {}
        for (method, preset, _, path), (label, _), out in zip(self.sweeps, self.ops, results):
            res.attempted += 1
            if isinstance(out, Exception):
                res.raised(label, out)
                continue
            by_preset.setdefault(preset, []).append(_read(path))
        for preset, data in by_preset.items():
            rows = _check_rows(res, preset, data, trials=1)
            res.work += len(rows)
        res.fingerprint = tuple(by_preset.items())
        return res


class SweepFanout:
    """run_sweep on fig3 (gc, mc): 80 short MC runs, each with its own pool."""

    name = "mc-sweep-fanout"
    why = ("80 short MC calls with varying node counts, each starting its own "
           "2-worker pool: per-call overhead and fan-out dominate")
    uses_mc = True
    workers = 2
    # Raw seconds: the pass runs on both cores in forked workers, where the
    # drift does not follow a slice timed on one core.  Over ten seeds the
    # calibrated wall_s spread by 15.5 % (IQR/median), the raw one by 6.8 %.
    calibrated = False

    def __init__(self, seed: int, out_dir: str, tiny: bool = False) -> None:
        overrides = {"methods": ("gc", "mc"), "trials": 1024, "seed": seed}
        if tiny:
            overrides.update(trials=64, chunk_trials=32, axis_grid=(1.0, 2.0))
        self.spec = build_sweep(overrides, preset="fig3")[1]
        self.path = os.path.join(out_dir, "fig3.csv")
        self.ops = [("fig3", lambda: cli.run_sweep(self.spec, self.path))]

    def collect(self, results: list, seconds: list[float]) -> PassResult:
        res = PassResult(seconds, attempted=1, ci_weights=[0.0])
        if isinstance(results[0], Exception):
            res.raised("fig3", results[0])
            return res
        data = _read(self.path)
        rows = _check_rows(res, "fig3", [data], self.spec.trials)
        trials = self.spec.trials
        mc_rows = [row for row in rows if row["method"] == "mc"]
        res.work = trials * len(mc_rows)
        res.var_per_trial = sum(trials * float(row["stderr"]) ** 2 for row in mc_rows)
        if res.work:
            res.ci_weights = [trials_to_ci(res.var_per_trial) / res.work]
        res.fingerprint = (data,)
        return res


WORKLOADS = {w.name: w for w in (McReference, AnalyticPresets, SweepFanout)}
