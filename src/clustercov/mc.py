"""Monte Carlo ground truth: the vectorised network simulator and estimators.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream derived from (seed, chunk index) and chunks are reduced in index
order, so estimates are bit-for-bit reproducible and independent of how
many workers execute them.

A coverage trial draws three fields, one sampler each, in this order from
its chunk's stream (the order is part of the reproducibility contract):
``_typical_cluster`` (the typical link and the in-cluster interference),
``_cross_clusters`` and ``_coexisting`` (the other clusters and the
coexisting PPP inside the window).  A transform request draws only its own
field, from the start of the stream.  The intra-limited case is the
scenario's effective link, lambda_g = lambda_co = sigma2 = 0, and a zero
density draws nothing.

Coverage is estimated by conditional Monte Carlo: under Rayleigh fading on
the typical link, P(SINR >= gamma | everything else) = exp(-gamma x) with
x = r**alpha (I + sigma2) / (p_x0 eta), so each trial contributes that
probability instead of a 0/1 indicator.  The estimate stays unbiased and
its variance falls (Rao-Blackwellisation), but it holds only while the
typical link's fading is Rayleigh.  Thresholds share realizations (common
random numbers), and each summand is nonincreasing in gamma, so the
estimated coverage is exactly monotone across the grid within one run.

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

from .coverage import Scenario, Unordered
from .params import FixedSize, LinkParams, NetworkConfig, require_int

__all__ = [
    "InterferenceField",
    "McEstimate",
    "SimSpec",
    "estimate_coverage",
    "estimate_laplace",
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
        require_int("trials", self.trials, 1)
        require_int("chunk_trials", self.chunk_trials, 1)
        require_int("seed", self.seed, 0)
        if self.workers is not None:
            require_int("workers", self.workers, 1)
        if not all(math.isfinite(g) and g > 0.0 for g in self.gamma_grid):
            raise ValueError("SINR thresholds must be positive and finite (linear units)")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    trials: int


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
    The squared distance is the law of cosines in its half-angle form,
    (R - r)**2 + 4 R r cos(th / 2)**2, a sum of nonnegative terms that
    keeps its relative precision where the node nearly sits on the origin.
    """
    big_r = parent_r[node_parent]
    half_cos = np.cos(0.5 * off_th)
    d2 = (big_r - off_r) ** 2 + 4.0 * big_r * off_r * half_cos * half_cos
    per_parent = np.bincount(
        node_parent, weights=h * d2 ** (0.5 * neg_alpha), minlength=len(parent_r)
    )
    return np.bincount(trial_of_parent, weights=per_parent, minlength=n_out)


def _chunk_sizes(trials: int, chunk_trials: int) -> list[int]:
    full, rest = divmod(trials, chunk_trials)
    return [chunk_trials] * full + ([rest] if rest else [])


def _window_points(rng, density: float, window: float, n: int):
    """A PPP in the disc of radius window, per trial: (trial index, distance) of each point."""
    counts = rng.poisson(density * (math.pi * window**2), size=n)
    trial_of_point = np.repeat(np.arange(n, dtype=np.intp), counts)
    return trial_of_point, window * np.sqrt(rng.uniform(size=len(trial_of_point)))


def _typical_cluster(rng, scenario: Scenario, link: LinkParams, n: int):
    """The typical node's own cluster: (r_typ, h_typ, i_intra) per trial.

    Only radii are drawn (in-cluster interference depends on distance
    alone).  Poisson sizes are the typical node plus Poisson(mean - 1)
    others, the analytical in-cluster interferer count.
    """
    size_model = scenario.size_model
    if isinstance(size_model, FixedSize):
        sizes = np.full(n, size_model.n, dtype=np.int64)
    else:
        sizes = 1 + rng.poisson(size_model.mean - 1.0, size=n)
    trial_of_node = np.repeat(np.arange(n, dtype=np.intp), sizes)
    r = link.a * np.sqrt(rng.uniform(size=len(trial_of_node)))
    h = rng.exponential(1.0, size=len(r))
    seg_start = np.zeros(n, dtype=np.intp)
    np.cumsum(sizes[:-1], out=seg_start[1:])
    if isinstance(scenario.ordering, Unordered):
        # nodes are exchangeable, so the first one is a uniform pick
        typical = seg_start
    else:
        k = scenario.ordering.k
        rank = sizes - 1 if k is None else k - 1
        typical = np.lexsort((r, trial_of_node))[seg_start + rank]

    r_typ, h_typ = r[typical], h[typical]
    h[typical] = 0.0  # the typical node does not interfere with itself
    i_intra = link.p_x * link.eta * radial_sums(r, h, trial_of_node, n, -link.alpha)
    return r_typ, h_typ, i_intra


def _cross_clusters(rng, scenario: Scenario, link: LinkParams, window: float, n: int):
    """Per-trial interference from the clusters with a parent in the window.

    Other clusters hold n nodes (fixed) or Poisson(nbar), not 1 + Poisson.
    Each is rotated into the frame where its parent lies on the positive
    x-axis (valid by isotropy), saving one angle draw.
    """
    if link.lambda_g == 0.0:
        return np.zeros(n)
    trial_of_cluster, parent_r = _window_points(rng, link.lambda_g, window, n)
    size_model = scenario.size_model
    if isinstance(size_model, FixedSize):
        sizes = np.full(len(parent_r), size_model.n, dtype=np.int64)
    else:
        sizes = rng.poisson(size_model.mean, size=len(parent_r))
    cluster_of_node = np.repeat(np.arange(len(parent_r), dtype=np.intp), sizes)
    nodes = len(cluster_of_node)
    off_r = link.a * np.sqrt(rng.uniform(size=nodes))
    off_th = rng.uniform(0.0, 2.0 * math.pi, size=nodes)
    h = rng.exponential(1.0, size=nodes)
    return link.p_x * link.eta * inter_sums(
        parent_r, trial_of_cluster, cluster_of_node, off_r, off_th, h, n, -link.alpha
    )


def _coexisting(rng, link: LinkParams, window: float, n: int):
    """Per-trial interference from the coexisting PPP inside the window."""
    if link.lambda_co == 0.0:
        return np.zeros(n)
    trial_of_node, r = _window_points(rng, link.lambda_co, window, n)
    h = rng.exponential(1.0, size=len(r))
    return link.p_z * link.eta * radial_sums(r, h, trial_of_node, n, -link.alpha)


def _simulate_chunk(args: tuple) -> dict:
    """Simulate one chunk of trials; returns per-chunk accumulators.

    Every trial gives one value exp(-t * x) per grid point t: for coverage
    t is the SINR threshold and x the typical link's conditional coverage
    exponent, for a transform t is the transform variable and x the field's
    interference.  The chunk returns their sum and sum of squares per point.
    """
    spec, field, index, n, grid, want_trace = args
    scenario = spec.scenario
    link = scenario.effective_link(spec.config.link)
    window = spec.config.window_radius
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)))
    if field is InterferenceField.INTRA:
        x = _typical_cluster(rng, scenario, link, n)[2]
    elif field is InterferenceField.INTER:
        x = _cross_clusters(rng, scenario, link, window, n)
    elif field is InterferenceField.COEXIST:
        x = _coexisting(rng, link, window, n)
    else:
        r_typ, h_typ, i_intra = _typical_cluster(rng, scenario, link, n)
        i_inter = _cross_clusters(rng, scenario, link, window, n)
        i_co = _coexisting(rng, link, window, n)
        den = i_intra + i_inter + i_co + link.sigma2
        x = den * r_typ**link.alpha / (link.p_x0 * link.eta)
    values = np.exp(-np.asarray(grid)[:, None] * x[None, :])
    out = {"sum": values.sum(axis=1), "sum_sq": (values * values).sum(axis=1)}
    if want_trace:
        with np.errstate(divide="ignore"):
            out["sinr"] = link.p_x0 * link.eta * h_typ * r_typ**-link.alpha / den
        out["p_covered"] = values[0]
    return out


def _estimate(
    spec: SimSpec, field: InterferenceField | None, grid: tuple[float, ...], trace_path=None
) -> list[McEstimate]:
    """Sample mean and standard error of exp(-t * x) at every grid point t."""
    args = [
        (spec, field, index, size, grid, trace_path is not None)
        for index, size in enumerate(_chunk_sizes(spec.trials, spec.chunk_trials))
    ]
    workers = _resolve_workers(spec.workers)
    if workers == 1 or len(args) == 1:
        chunks = [_simulate_chunk(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_simulate_chunk, args))
    if trace_path is not None:
        _write_trace(trace_path, chunks)
    n = spec.trials
    totals = np.sum([c["sum"] for c in chunks], axis=0)
    totals_sq = np.sum([c["sum_sq"] for c in chunks], axis=0)
    out = []
    for total, total_sq in zip(totals, totals_sq):
        var = max(0.0, (total_sq - total * total / n) / (n - 1)) if n > 1 else 0.0
        out.append(McEstimate(mean=float(total / n), stderr=math.sqrt(var / n), trials=n))
    return out


def estimate_coverage(spec: SimSpec, trace_path=None) -> list[McEstimate]:
    """Coverage estimates, one per threshold in spec.gamma_grid.

    Each trial contributes its conditional coverage probability (see the
    module docstring), and all thresholds share realizations, so the
    estimates are exactly nonincreasing across the grid.  ``trace_path``
    optionally writes a per-trial CSV (trial, sinr, p_covered), where
    ``sinr`` is the realized SINR with the typical link's fading drawn and
    ``p_covered`` the trial's conditional coverage at the first threshold.
    """
    if not spec.gamma_grid:
        raise ValueError("spec.gamma_grid must contain at least one threshold")
    return _estimate(spec, None, spec.gamma_grid, trace_path)


def _write_trace(path, chunks: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "sinr", "p_covered"])
        trial = 0
        for chunk in chunks:
            for sinr, p_covered in zip(chunk["sinr"], chunk["p_covered"]):
                writer.writerow([trial, repr(float(sinr)), repr(float(p_covered))])
                trial += 1


def estimate_laplace(
    spec: SimSpec,
    interf_field: InterferenceField,
    s_grid: tuple[float, ...],
) -> list[McEstimate]:
    """Empirical transforms mean(exp(-s * I_field)), one per grid point."""
    if not s_grid:
        raise ValueError("s_grid must contain at least one point")
    if not all(math.isfinite(s) and s >= 0.0 for s in s_grid):
        raise ValueError("transform grid points must be finite and nonnegative")
    return _estimate(spec, interf_field, tuple(s_grid))
