"""Monte Carlo ground truth: the vectorised network simulator and estimators.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream derived from (seed, chunk index) and chunks are reduced in index
order, so estimates are bit-for-bit reproducible and independent of how
many workers execute them.  Thresholds share realizations (common random
numbers), which makes the empirical coverage exactly monotone across the
threshold grid within one run.

The per-node power-law accumulation runs through the two NumPy kernels
``radial_sums`` and ``inter_sums``; they are module attributes so that
profilers and tests can wrap them in place.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coverage import (
    BoundSide,
    CoverageResult,
    Interference,
    Method,
    Scenario,
    Unordered,
)
from .metrics import MetricResult, rate_from_threshold
from .params import FixedSize, NetworkConfig

__all__ = [
    "InterferenceField",
    "McEstimate",
    "SimSpec",
    "estimate_coverage",
    "estimate_laplace",
    "estimate_metrics",
]

WORKERS_ENV_VAR = "CLUSTERCOV_WORKERS"


class InterferenceField(Enum):
    INTRA = "intra"
    INTER = "inter"
    COEXIST = "coexist"


@dataclass(frozen=True)
class SimSpec:
    """Everything a simulation needs; identical specs give identical output.

    chunk_trials fixes the trial partition (it is part of the random-stream
    layout, not a performance knob that may silently change results);
    workers only controls execution and never affects estimates (None reads
    the CLUSTERCOV_WORKERS environment variable, default 1).
    """

    config: NetworkConfig
    scenario: Scenario
    trials: int
    seed: int
    gamma_grid: tuple[float, ...] = ()
    chunk_trials: int = 512
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.chunk_trials < 1:
            raise ValueError(f"chunk_trials must be >= 1, got {self.chunk_trials}")
        if not all(math.isfinite(g) and g > 0.0 for g in self.gamma_grid):
            raise ValueError("SINR thresholds must be positive and finite (linear units)")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int

    def ci_halfwidth(self, z: float = 1.96) -> float:
        return z * self.stderr


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def radial_sums(
    r: np.ndarray,
    h: np.ndarray,
    idx: np.ndarray,
    n_out: int,
    neg_alpha: float,
) -> np.ndarray:
    """Per-trial sums of h * r**neg_alpha for origin-centred fields.

    ``r`` holds node distances, ``h`` the fading draws, ``idx`` the trial
    index of each node, ``neg_alpha`` the (negative) path-loss exponent.
    """
    if len(r) == 0:
        return np.zeros(n_out)
    return np.bincount(idx, weights=h * r**neg_alpha, minlength=n_out)


def inter_sums(
    parent_r: np.ndarray,
    trial_of_parent: np.ndarray,
    node_parent: np.ndarray,
    off_r: np.ndarray,
    off_th: np.ndarray,
    h: np.ndarray,
    n_out: int,
    neg_alpha: float,
) -> np.ndarray:
    """Per-trial sums of h * ||parent + offset||**neg_alpha.

    Each parent sits on its trial's positive x-axis at distance
    ``parent_r`` (valid by isotropy); offsets are polar (off_r, off_th).
    """
    if len(off_r) == 0:
        return np.zeros(n_out)
    x = parent_r[node_parent] + off_r * np.cos(off_th)
    y = off_r * np.sin(off_th)
    d2 = x * x + y * y
    return np.bincount(
        trial_of_parent[node_parent],
        weights=h * d2 ** (0.5 * neg_alpha),
        minlength=n_out,
    )


def _chunk_sizes(trials: int, chunk_trials: int) -> list[int]:
    full, rest = divmod(trials, chunk_trials)
    return [chunk_trials] * full + ([rest] if rest else [])


def _typical_sizes(
    rng: np.random.Generator, size_model, n_trials: int
) -> np.ndarray:
    """Cluster sizes of the typical cluster.

    Poisson model: one typical node plus Poisson(mean - 1) others, matching
    the analytical in-cluster interferer count exactly, so the typical
    cluster is never empty.
    """
    if isinstance(size_model, FixedSize):
        return np.full(n_trials, size_model.n, dtype=np.int64)
    if size_model.mean < 1.0:
        raise ValueError(
            f"the typical cluster needs a mean size >= 1, got {size_model.mean}"
        )
    sizes = 1 + rng.poisson(size_model.mean - 1.0, size=n_trials)
    return sizes.astype(np.int64)


def _simulate_chunk(args: tuple) -> dict:
    """Simulate one chunk of trials; returns per-chunk accumulators.

    The draw order below is part of the reproducibility contract: typical
    clusters first, then cross-cluster geometry, then the coexisting field.
    """
    (config, scenario, n_trials, seed, chunk_index, gamma_grid, field_name,
     s_grid, want_sinr) = args
    link = config.link
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )
    intra_only = scenario.interference is Interference.INTRA_LIMITED
    neg_alpha = -link.alpha
    window_area = math.pi * config.window_radius**2

    # A transform-only request pays for exactly the field it asks about.
    full = field_name is None
    need_typical = full or field_name == InterferenceField.INTRA.value
    need_inter = full or field_name == InterferenceField.INTER.value
    need_co = full or field_name == InterferenceField.COEXIST.value

    i_intra = np.zeros(n_trials)
    r_typ = h_typ = None
    if need_typical:
        # Typical cluster: radii only (interference depends on distance alone).
        sizes0 = _typical_sizes(rng, scenario.size_model, n_trials)
        total0 = int(sizes0.sum())
        trial_of_node0 = np.repeat(np.arange(n_trials, dtype=np.intp), sizes0)
        r0 = link.a * np.sqrt(rng.uniform(size=total0))
        h0 = rng.exponential(1.0, size=total0)

        seg_start = np.zeros(n_trials, dtype=np.intp)
        np.cumsum(sizes0[:-1], out=seg_start[1:])
        if isinstance(scenario.ordering, Unordered):
            # nodes are exchangeable, so the first one is a uniform pick
            typical_pos = seg_start
        else:
            order = np.lexsort((r0, trial_of_node0))
            if scenario.ordering.k is None:
                rank = sizes0 - 1
            else:
                rank = scenario.ordering.k - 1
            typical_pos = order[seg_start + rank]

        r_typ = r0[typical_pos]
        h_typ = h0[typical_pos]
        h0_interf = h0.copy()
        h0_interf[typical_pos] = 0.0
        i_intra = link.p_x * link.eta * radial_sums(
            r0, h0_interf, trial_of_node0, n_trials, neg_alpha
        )

    if not need_inter or intra_only or link.lambda_g == 0.0:
        i_inter = np.zeros(n_trials)
    else:
        n_clusters = rng.poisson(link.lambda_g * window_area, size=n_trials)
        total_clusters = int(n_clusters.sum())
        trial_of_cluster = np.repeat(np.arange(n_trials, dtype=np.intp), n_clusters)
        # Each cluster is rotated into the frame where its parent lies on
        # the positive x-axis (valid by isotropy), saving one angle draw.
        parent_r = config.window_radius * np.sqrt(rng.uniform(size=total_clusters))
        if isinstance(scenario.size_model, FixedSize):
            csizes = np.full(total_clusters, scenario.size_model.n, dtype=np.int64)
        else:
            csizes = rng.poisson(scenario.size_model.mean, size=total_clusters)
        total_nodes = int(csizes.sum())
        cluster_of_node = np.repeat(np.arange(total_clusters, dtype=np.intp), csizes)
        off_r = link.a * np.sqrt(rng.uniform(size=total_nodes))
        off_th = rng.uniform(0.0, 2.0 * math.pi, size=total_nodes)
        h_inter = rng.exponential(1.0, size=total_nodes)
        i_inter = link.p_x * link.eta * inter_sums(
            parent_r, trial_of_cluster, cluster_of_node, off_r, off_th,
            h_inter, n_trials, neg_alpha,
        )

    if not need_co or intra_only or link.lambda_co == 0.0:
        i_co = np.zeros(n_trials)
    else:
        n_co = rng.poisson(link.lambda_co * window_area, size=n_trials)
        total_co = int(n_co.sum())
        trial_of_co = np.repeat(np.arange(n_trials, dtype=np.intp), n_co)
        r_co = config.window_radius * np.sqrt(rng.uniform(size=total_co))
        h_co = rng.exponential(1.0, size=total_co)
        i_co = link.p_z * link.eta * radial_sums(
            r_co, h_co, trial_of_co, n_trials, neg_alpha
        )

    sigma2 = 0.0 if intra_only else link.sigma2
    out: dict = {"trials": n_trials}
    if gamma_grid or want_sinr:
        num = link.p_x0 * link.eta * h_typ * r_typ**-link.alpha
        den = i_intra + i_inter + i_co + sigma2
    if gamma_grid:
        gammas = np.asarray(gamma_grid)
        out["covered"] = (num[None, :] >= gammas[:, None] * den[None, :]).sum(axis=1)
    if field_name is not None:
        i_field = {
            InterferenceField.INTRA.value: i_intra,
            InterferenceField.INTER.value: i_inter,
            InterferenceField.COEXIST.value: i_co,
        }[field_name]
        damp = np.exp(-np.asarray(s_grid)[:, None] * i_field[None, :])
        out["laplace_s1"] = damp.sum(axis=1)
        out["laplace_s2"] = (damp * damp).sum(axis=1)
    if want_sinr:
        with np.errstate(divide="ignore"):
            out["sinr"] = num / den
        # same comparison as the counters, so trace flags always agree
        out["covered_first"] = num >= gamma_grid[0] * den
    return out


def _run_chunks(
    spec: SimSpec,
    gamma_grid: tuple[float, ...],
    field: InterferenceField | None,
    s_grid: tuple[float, ...],
    want_sinr: bool,
) -> list[dict]:
    sizes = _chunk_sizes(spec.trials, spec.chunk_trials)
    args = [
        (
            spec.config,
            spec.scenario,
            size,
            spec.seed,
            index,
            gamma_grid,
            field.value if field is not None else None,
            s_grid,
            want_sinr,
        )
        for index, size in enumerate(sizes)
    ]
    workers = _resolve_workers(spec.workers)
    if workers == 1 or len(args) == 1:
        return [_simulate_chunk(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_simulate_chunk, args))


def _bernoulli_estimate(count: int, trials: int) -> McEstimate:
    mean = count / trials
    stderr = 0.0
    if trials > 1:
        stderr = math.sqrt(mean * (1.0 - mean) / (trials - 1))
    return McEstimate(mean=mean, stderr=stderr, trials=trials)


def estimate_coverage(spec: SimSpec, trace_path=None) -> list[McEstimate]:
    """Coverage estimates, one per threshold in spec.gamma_grid.

    All thresholds share realizations, so the estimates are exactly
    nonincreasing across the grid.  ``trace_path`` optionally writes a
    per-trial CSV (trial, sinr, covered flag at the first threshold).
    """
    if not spec.gamma_grid:
        raise ValueError("spec.gamma_grid must contain at least one threshold")
    chunks = _run_chunks(spec, spec.gamma_grid, None, (), trace_path is not None)
    counts = np.sum([c["covered"] for c in chunks], axis=0)
    if trace_path is not None:
        _write_trace(trace_path, chunks)
    return [_bernoulli_estimate(int(count), spec.trials) for count in counts]


def _write_trace(path, chunks: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "sinr", "covered"])
        trial = 0
        for chunk in chunks:
            for sinr, covered in zip(chunk["sinr"], chunk["covered_first"]):
                writer.writerow([trial, repr(float(sinr)), int(covered)])
                trial += 1


def estimate_laplace(
    spec: SimSpec,
    interf_field: InterferenceField,
    s_grid: tuple[float, ...],
) -> list[McEstimate]:
    """Empirical transforms mean(exp(-s * I_field)), one per grid point."""
    if not s_grid:
        raise ValueError("s_grid must contain at least one point")
    if any(s < 0.0 for s in s_grid):
        raise ValueError("transform grid points must be nonnegative")
    chunks = _run_chunks(spec, (), interf_field, tuple(s_grid), False)
    s1 = np.sum([c["laplace_s1"] for c in chunks], axis=0)
    s2 = np.sum([c["laplace_s2"] for c in chunks], axis=0)
    n = spec.trials
    out = []
    for total, total_sq in zip(s1, s2):
        mean = total / n
        var = max(0.0, (total_sq - total * total / n) / (n - 1)) if n > 1 else 0.0
        out.append(McEstimate(mean=float(mean), stderr=math.sqrt(var / n), trials=n))
    return out


def _mc_coverage_result(est: McEstimate, gamma_th: float) -> CoverageResult:
    return CoverageResult(
        value=est.mean,
        method=Method.MONTE_CARLO,
        bound_side=BoundSide.ESTIMATE,
        gamma_th=gamma_th,
        ci_halfwidth=est.ci_halfwidth(),
    )


def estimate_metrics(spec: SimSpec) -> list[MetricResult]:
    """ASE/EE built on Monte Carlo coverage, one result per threshold."""
    size = spec.scenario.size_model
    n_nodes = size.n if isinstance(size, FixedSize) else size.mean
    link = spec.config.link
    estimates = estimate_coverage(spec)
    out = []
    for gamma_th, est in zip(spec.gamma_grid, estimates):
        rate = rate_from_threshold(gamma_th)
        cov = _mc_coverage_result(est, gamma_th)
        out.append(
            MetricResult(
                rate=rate,
                coverage=cov,
                ase=n_nodes * link.lambda_g * rate * est.mean,
                ee=rate * est.mean / link.p_x,
                ase_stderr=n_nodes * link.lambda_g * rate * est.stderr,
                ee_stderr=rate * est.stderr / link.p_x,
            )
        )
    return out
