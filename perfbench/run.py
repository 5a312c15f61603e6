#!/usr/bin/env python3
"""clustercov benchmark: end-to-end and per-layer metrics on fixed workloads.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload mc-reference --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run together with its tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any output check failed.  See ``perfbench/README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKERS_ENV = "CLUSTERCOV_WORKERS"
SETUP_RUNS = 3
WORKLOAD_NAMES = ("mc-reference", "analytic-presets", "mc-sweep-fanout")


def _import_package():
    """Import clustercov from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import clustercov
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import clustercov from {SRC}: {exc}") from None
    if not os.path.abspath(clustercov.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: clustercov was imported from {clustercov.__file__}, not {SRC}")
    return clustercov


def _git_sha() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def _cache_sizes() -> dict[str, int]:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import clustercov

    compiled = importlib.util.find_spec("Cython") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "kernel_backend": clustercov.KERNEL_BACKEND,
        "compiled_backend": ("buildable (Cython importable)" if compiled else
                             "not buildable here: Cython is not installed"),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def setup_seconds(runs: int) -> float:
    """Median calibrated time of fresh interpreters running perfbench/probe.py."""
    from calibrate import Calibrator

    calibrator = Calibrator()
    env = dict(os.environ, PYTHONPATH=SRC, **{WORKERS_ENV: "1"})
    times = []
    for _ in range(runs):
        factor = calibrator.factor("probe")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], cwd=ROOT, env=env,
                       check=True, timeout=120)
        dt = time.perf_counter() - t0
        calibrator.note("probe", dt)
        times.append(dt * factor)
    return statistics.median(times)


@contextlib.contextmanager
def _workers(count: int):
    previous = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(count)
    try:
        yield
    finally:
        if previous is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = previous


def run_pass(workload, calibrator):
    """Run each operation once; returns (results, calibrated seconds, raw seconds).

    An operation that raises yields its exception as its result, so the
    pass goes on and the failure is counted.
    """
    results, seconds, raw = [], [], 0.0
    for label, op in workload.ops:
        factor = calibrator.factor(label) if workload.calibrated else 1.0
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # counted as a failed operation by collect
            out = exc
        dt = time.perf_counter() - t0
        calibrator.note(label, dt)
        results.append(out)
        seconds.append(dt * factor)
        raw += dt
    return results, seconds, raw


def run_passes(workload, seconds: float, min_passes: int, workers: int, tracers=None) -> list:
    """Identical passes: at least ``min_passes``, then more while the next
    one, at the mean pass time so far, still ends within ``seconds``.

    With ``tracers`` given, every pass records its spans into a fresh
    Tracer appended there.  Returns (PassResult, raw seconds) pairs.
    """
    from calibrate import Calibrator
    from spans import Tracer, instrument

    calibrator = Calibrator()
    passes = []
    start = time.perf_counter()
    with _workers(workers):
        while len(passes) < min_passes or (
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
        ):
            if tracers is None:
                results, op_seconds, raw = run_pass(workload, calibrator)
            else:
                tracers.append(Tracer())
                with instrument(tracers[-1]):
                    results, op_seconds, raw = run_pass(workload, calibrator)
            passes.append((workload.collect(results, op_seconds), raw))
    return passes


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_medians(passes: list) -> list[float]:
    """Median calibrated seconds of each operation over the passes."""
    return [statistics.median(times) for times in zip(*(p.op_seconds for p in passes))]


def end_to_end(passes: list, setup_s: float) -> dict:
    """Medians over passes of the timed seconds (calibrated where the
    workload is; see calibrate.py)."""
    wall = statistics.median(p.wall for p in passes)
    s_to_ci = sum(w * t for w, t in zip(passes[0].ci_weights, op_medians(passes)))
    return {
        "wall_s": (wall, "s"),
        "work_per_s": (passes[0].work / wall, "1/s"),
        "s_to_ci": (s_to_ci, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(tracers: list, traced: list, untraced: list, fanout_efficiency: float) -> dict:
    """Per-pass layer figures from the traced passes (medians over passes)."""
    from spans import summarise

    summaries = [summarise(t) for t in tracers]

    def get(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in summaries)

    def per_node(layer: str) -> float:
        nodes = get(layer + ".nodes")
        return get(layer + ".s") / nodes * 1e9 if nodes else 0.0

    out = {}
    for layer in ("accel.inter_sums", "accel.radial_sums"):
        out[layer + ".calls"] = (get(layer + ".calls"), "count")
        out[layer + ".s"] = (get(layer + ".s"), "s")
        out[layer + ".nodes"] = (get(layer + ".nodes"), "count")
        out[layer + ".ns_per_node"] = (per_node(layer), "ns")
    out["accel.inter_sums.bytes_computed"] = (get("accel.inter_sums.bytes_computed"), "B")
    mc_s = get("mc.s")
    out["accel.inter_sums.share_of_mc"] = (get("accel.inter_sums.s") / mc_s if mc_s else 0.0, "ratio")
    out["mc.calls"] = (get("mc.calls"), "count")
    out["mc.chunks"] = (get("mc.chunks"), "count")
    out["mc.trials"] = (get("mc.trials"), "count")
    out["mc.s"] = (mc_s, "s")
    out["mc.self_s"] = (get("mc.self_s"), "s")
    out["mc.var_per_trial"] = (statistics.median(p.var_per_trial for p in traced), "1")
    out["mc.fanout_efficiency"] = (fanout_efficiency, "ratio")
    for layer in ("coverage.gc", "coverage.exact"):
        for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")):
            out[f"{layer}.{field}"] = (get(f"{layer}.{field}"), unit)
    out["coverage.exact.integrand_evals"] = (get("coverage.exact.integrand_evals"), "count")
    for layer in ("laplace.intra", "laplace.inter", "laplace.coexist",
                  "special.hyp2f1", "config.build", "cli.run_sweep"):
        out[layer + ".calls"] = (get(layer + ".calls"), "count")
        out[layer + ".s"] = (get(layer + ".s"), "s")
    out["cli.self_s"] = (get("cli.run_sweep.self_s"), "s")
    out["cli.csv_bytes"] = (get("cli.csv_bytes"), "B")
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
            tiny: bool = False, setup_runs: int = SETUP_RUNS, min_passes: int = 3) -> dict:
    """Run one workload; returns metrics, check tallies and report lines."""
    from probe import probe
    from workloads import WORKLOADS

    setup_s = setup_seconds(setup_runs)
    workload = WORKLOADS[name](seed, out_dir, tiny=tiny)
    probe()  # finish lazy imports and first-call set-up before timing
    workers = workload.workers
    report = []
    if not trace:
        timed = run_passes(workload, seconds, min_passes, workers)
        passes = [p for p, _ in timed]
        metrics = end_to_end(passes, setup_s)
        raw = [r for _, r in timed]
        report.append(
            f"{len(passes)} passes on {workers} worker(s); raw pass s: median "
            f"{statistics.median(raw):.4f}, best {min(raw):.4f}, worst {max(raw):.4f}; "
            f"reported median {metrics['wall_s'][0]:.4f}")
        report.append("work_per_s counts " + ("MC trials (trials_per_s)" if workload.uses_mc
                                             else "GC and exact coverage points"))
        if name == "analytic-presets":
            points = passes[0].work // len(workload.methods)
            medians = op_medians(passes)
            for method in workload.methods:
                phase_s = sum(t for (m, *_), t in zip(workload.sweeps, medians) if m == method)
                report.append(f"{method}_points_per_s {points / phase_s:.1f} 1/s ({points} points)")
    else:
        # Traced passes use one worker because spans recorded in pool
        # workers never reach this process.
        share = seconds / (3 if workload.uses_mc else 2)
        one = run_passes(workload, share, 1, 1)
        untraced = [p for p, _ in one]
        passes = list(untraced)
        fanout_efficiency = 0.0
        if workload.uses_mc:
            # raw seconds: calibration follows one core, this compares 1 with 2
            two = run_passes(workload, share, 1, 2)
            passes += [p for p, _ in two]
            fanout_efficiency = (statistics.median(r for _, r in one)
                                 / (2.0 * statistics.median(r for _, r in two)))
        tracers: list = []
        traced = [p for p, _ in run_passes(workload, share, 1, 1, tracers)]
        passes += traced
        metrics = per_layer(tracers, traced, untraced, fanout_efficiency)
        mc_s = metrics["mc.s"][0]
        if mc_s:
            accel = metrics["accel.inter_sums.s"][0] + metrics["accel.radial_sums.s"][0]
            report.append(
                f"mc.s {mc_s:.4f} s = _accel {accel:.4f} s + mc.self_s "
                f"{metrics['mc.self_s'][0]:.4f} s; inter_sums share "
                f"{metrics['accel.inter_sums.share_of_mc'][0]:.1%} (ROADMAP cProfile: 64 %)")
        report.append(f"{len(untraced)} untraced, {len(traced)} traced passes; "
                      f"{sum(len(t) for t in tracers)} spans")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = [m for p in passes for m in p.messages]
    # Identical passes must repeat their outputs exactly, on any worker count.
    for index, p in enumerate(passes[1:], start=2):
        if p.fingerprint != passes[0].fingerprint:
            failed += 1
            messages.append(f"pass {index} output differs from pass 1")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "report": report,
        "why": workload.why,
    }


def _run_one(args) -> int:
    _import_package()
    out_dir = os.path.join(HERE, ".out", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(out_dir))
    print(f"workload {args.workload} (seed {args.seed}): {result['why']}")
    for line in result["report"]:
        print("  " + line)
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  checks: {attempted} operations, {failed} failed "
          f"(failed_frac {failed / attempted if attempted else math.nan:.3g})")
    for message in result["messages"][:50]:
        print("  FAIL " + message)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory stays attributable."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
