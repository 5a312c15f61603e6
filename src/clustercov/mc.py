"""Monte Carlo ground truth: the vectorised network simulator and estimators.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream derived from (seed, chunk index) and chunks are reduced in index
order, so estimates are bit-for-bit reproducible and independent of how
many workers execute them.

A coverage trial draws three fields, one sampler each, in this order from
its chunk's stream (the order is part of the reproducibility contract):
``_typical_cluster`` (the typical link and the in-cluster loads),
``_cross_clusters`` and ``_coexisting`` (the other clusters and the
coexisting PPP inside the near disc).  A transform request draws only its
own field, from the start of the stream.  A zero density draws nothing,
so the in-cluster-interference-limited case (a link with lambda_g =
lambda_co = sigma2 = 0) draws the typical cluster alone.

Only the near disc of radius R0 = min(W, NEAR_RADII * a) is drawn, with W
the window radius and a the cluster radius.  Parents form a PPP, so the
clusters and coexisting nodes of the annulus (R0, W] are independent of
everything inside R0, and given the typical link their effect is exactly
a probability generating functional: exp(-Lambda_far(s)) at
s = gamma r**alpha / (p_x0 eta), integrated by ``_annulus_exponent``
instead of sampled.  W may be infinite (the whole plane, no truncation
bias); for W <= R0 the annulus is empty and nothing changes.

Coverage is estimated by conditional Monte Carlo, over the typical link's
fading and over the in-cluster interferers' fading.  Under Rayleigh fading
on the typical link, P(SINR >= gamma | everything else) =
exp(-gamma x_all) with x_all = r**alpha (I + sigma2) / (p_x0 eta) and I the
near-disc interference.  The in-cluster part of I is a sum of
h_j p_x eta rho_j**-alpha over the other nodes of the typical cluster, and
E[exp(-gamma h b)] = 1 / (1 + gamma b) for exponential h, the identity the
closed forms use too.  So the in-cluster fading is not drawn: each trial
contributes exp(-gamma x - Lambda_far(s)) / prod_j (1 + gamma b_j), with
x = r**alpha (I_inter + I_co + sigma2) / (p_x0 eta) the cross-cluster,
coexisting and noise part, b_j = (p_x / p_x0) (r / rho_j)**alpha, and the
far factor exp(-Lambda_far(s)) at s = gamma r**alpha / (p_x0 eta) instead of
a 0/1 indicator.  The estimate keeps the expectation of the fully sampled
window and its variance falls (Rao-Blackwellisation); the node positions,
cluster sizes (a Poisson one given at least one interferer, below),
ordering, cross clusters and coexisting nodes are all still drawn, so
Monte Carlo still checks the geometry of the in-cluster transform.  It
holds only while the fading is Rayleigh.  Thresholds share realizations
(common random numbers), and each summand is nonincreasing in gamma, so
the estimated coverage is exactly monotone across the grid within one
run.  Integrating out the interferers' fading matters most for
the farthest node at high thresholds: all of its interferers are closer
than the signal, coverage needs all their fading small at once, and a few
thousand drawn trials rarely see that event.

The in-cluster radii are Latin-hypercube stratified: consecutive trials of
a chunk form replicates of REPLICATE_TRIALS, and within a replicate node j
of each trial takes a distinct stratum of (r / a)**2, in an independent
random order per node column.  Every trial on its own still draws the
model literally (i.i.d. uniform nodes on the disc), so the estimate stays
unbiased, while the additive part of its variance in those radii cancels
across the replicate.  Trials within a replicate are dependent, replicates
are i.i.d., so the standard error comes from the replicate sums.

A Poisson typical cluster's size is stratified too, and its rarest
stratum is not drawn at all.  The cluster holds the typical node and J ~
Poisson(nbar - 1) in-cluster interferers; the lone node, J = 0, has the
probability w0 = exp(-(nbar - 1)), and for the farthest node at high
thresholds it carries most of the coverage while a few thousand trials
hold few lone nodes or none.  So a trial draws J given J >= 1, from a
one-column Latin hypercube over its replicate drawn before the radii,
and contributes (1 - w0) Y + w0 Y_lone: Y its value, Y_lone the value of
the same trial cut to node 0 alone (no in-cluster product, node 0's
radius as the typical link, the same cross-cluster and coexisting
draws).  Each trial keeps the model's expectation and replicates stay
i.i.d., so the estimate stays unbiased and the replicate standard error
holds.  Monte Carlo still samples the J >= 1 geometry, and the lone term
still uses a drawn node-0 radius and drawn fields; only the weight w0
and J's law given J >= 1 come from the size model exactly.  Fixed sizes
draw as they did.

The per-node work runs through three NumPy kernels: ``radial_sums`` and
``inter_sums`` accumulate the drawn coexisting and cross-cluster
interference, and ``intra_fading`` divides by each trial's in-cluster
product.  They are module attributes so that profilers and tests can wrap
them in place.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import leggauss

from .params import FixedSize, LinkParams, NetworkConfig, Scenario, Unordered, require_int

__all__ = [
    "InterferenceField",
    "McEstimate",
    "SimSpec",
    "estimate_coverage",
    "estimate_laplace",
]

WORKERS_ENV_VAR = "CLUSTERCOV_WORKERS"

# Radius of the sampled near disc in cluster radii.  Like chunk_trials it is
# part of the random-stream layout: changing it changes every estimate on a
# window wider than the near disc.
NEAR_RADII = 3.0

# Trials per Latin-hypercube replicate (R): consecutive trials of a chunk
# share the strata of their in-cluster radii.  Part of the stream layout and
# of the standard error, which comes from the replicate sums.
REPLICATE_TRIALS = 16

# The far-field rule: Gauss-Legendre nodes in u = (R0/x)**(alpha - 2) over
# the annulus, which maps an infinite window to a finite interval and makes
# the x**(1 - alpha) tail of the integrand flat, times a polar rule over
# each cluster disc (Gauss-Legendre in the offset radius, midpoints in the
# angle).  The disc never covers the origin, since R0 >= 3 a wherever the
# annulus is non-empty.
_RADIAL_NODES = 48
_DISC_NODES = 8
# Coverage needs Lambda_far at a different s per trial and threshold, so it
# is tabulated on a lattice fixed by the link alone: _TABLE_PER_DECADE
# points per decade of s / s_a, s_a = a**alpha / (p_x0 eta) (s at gamma = 1
# and r = a), from 10**-_TABLE_FLOOR_DECADES s_a up to two points past the
# largest s of the request.  The interpolant on an interval depends only on
# its neighbouring nodes, so a trial's value does not depend on the
# request's other thresholds.  The _FAR_TABLES most recently used tables
# are kept (see ``_far_table``).
_TABLE_PER_DECADE = 40
_TABLE_FLOOR_DECADES = 3
_FAR_TABLES = 64
# Poisson typical-cluster size laws kept, one per mean (see ``_interferer_cdf``).
_SIZE_TABLES = 64


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
    the CLUSTERCOV_WORKERS environment variable, default 1).  gamma_grid
    may be any sequence of thresholds and is kept as a tuple of floats.
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
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean over ``trials`` trials and its standard error.

    ``stderr`` estimates the standard deviation of ``mean`` from the spread
    of the i.i.d. replicate sums: with S_j the sum of replicate j's k_j
    trials and m replicates, it is sqrt(m / (m - 1) * sum (S_j - k_j
    mean)**2) / trials, and 0.0 for m = 1.  A request of at most
    REPLICATE_TRIALS trials is unstratified and uses replicates of one
    trial, the usual i.i.d. standard error; it is 0.0 for a single trial.
    The INTER and COEXIST transforms draw no in-cluster radii, so their
    trials are i.i.d. and they always use replicates of one trial.
    """

    mean: float
    stderr: float
    trials: int


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return workers
    value = os.environ.get(WORKERS_ENV_VAR, "1")
    if not value.strip().isdecimal() or int(value) < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {value!r}")
    return int(value)


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


def intra_fading(
    load: np.ndarray,
    seg_start: np.ndarray,
    grid: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Divide values[g, i] by prod_j (1 + grid[g] * load[j]) over trial i's nodes, in place.

    ``load`` holds every node's load, trial after trial, ``seg_start`` the
    index of each trial's first node (every trial holds at least one) and
    ``values`` the (grid, trials) array, which is returned.  A term or a
    product past the float range is inf, and the quotient is then 0, the
    factor's limit, so that overflow is silenced here.
    """
    with np.errstate(over="ignore"):
        terms = np.multiply.outer(grid, load)
        terms += 1.0
        values /= np.multiply.reduceat(terms, seg_start, axis=1)
    return values


def _chunk_sizes(trials: int, chunk_trials: int) -> list[int]:
    full, rest = divmod(trials, chunk_trials)
    return [chunk_trials] * full + ([rest] if rest else [])


def _window_points(rng, density: float, radius: float, n: int):
    """A PPP in the disc of the given radius, per trial: (trial index, distance) of each point."""
    counts = rng.poisson(density * (math.pi * radius**2), size=n)
    trial_of_point = np.repeat(np.arange(n, dtype=np.intp), counts)
    return trial_of_point, radius * np.sqrt(rng.random(len(trial_of_point)))


def _latin_hypercube(rng, n: int, columns: int, replicate: int) -> np.ndarray:
    """(n, columns) uniforms, Latin-hypercube stratified within each replicate.

    Consecutive rows form replicates of ``replicate`` rows, the last one
    possibly of k < replicate rows.  In a replicate of k rows each column
    holds one value in each stratum [i / k, (i + 1) / k): stratum
    perm[row], with perm an independent uniformly random permutation per
    (replicate, column), plus a uniform jitter.  Every row on its own is
    still i.i.d. uniform.  Draws the permutation keys of the full
    replicates, then those of the partial one, then the jitters.
    """
    full = n - n % replicate
    keys = rng.random((full // replicate, columns, replicate))
    tail_keys = rng.random((columns, n - full))
    u = rng.random((n, columns))
    # in place on the jitter: (stratum + jitter) / k
    head = u[:full].reshape(-1, replicate, columns)
    head += np.argsort(keys, axis=-1).transpose(0, 2, 1)
    head /= replicate
    if full < n:
        u[full:] += np.argsort(tail_keys, axis=-1).T
        u[full:] /= n - full
    return u


@functools.lru_cache(maxsize=_SIZE_TABLES)
def _interferer_cdf(mean: float) -> np.ndarray:
    """The CDF of the typical cluster's interferer count J ~ Poisson(mean - 1) at J = 0, 1, ...

    Built from the log pmf, so that neither (mean - 1)**J nor J! overflows
    and the terms near the mode keep their digits where exp(-(mean - 1))
    underflows, and cut where the pmf is far below the float resolution:
    past mean - 1 + 20 sqrt(mean - 1) + 40.  Read-only, since requests
    share it.
    """
    mu = mean - 1.0
    k = np.arange(math.ceil(mu + 20.0 * math.sqrt(mu)) + 40)
    log_pmf = k * math.log(mu) - mu
    log_pmf -= [math.lgamma(j + 1.0) for j in range(len(k))]
    cdf = np.cumsum(np.exp(log_pmf))
    cdf.flags.writeable = False
    return cdf


def _lone_weight(size_model) -> float:
    """w0 = P(J = 0) = exp(-(mean - 1)), the lone-node stratum taken exactly; 0 where none is.

    Nothing is forced for a fixed size, for a Poisson mean of 1 (every
    trial is a lone node, so the drawn trial is already exact) or where w0
    underflows to 0 (a mean above about 746).
    """
    if isinstance(size_model, FixedSize) or size_model.mean == 1.0:
        return 0.0
    return float(_interferer_cdf(size_model.mean)[0])


def _typical_sizes(rng, size_model, n: int, replicate: int) -> np.ndarray:
    """Each trial's typical-cluster size: the typical node plus J in-cluster interferers.

    A Poisson size draws J given J >= 1, the lone-node stratum J = 0 being
    taken exactly (``_lone_weight``): J inverts the Poisson(mean - 1) CDF
    at w0 + V (1 - w0), searching right, so that a point on cdf[0] = w0
    gives J = 1.  V is a one-column Latin hypercube over the replicates, so
    J is stratified across each replicate's trials.  Where w0 underflows
    to 0 this is the plain CDF's inversion, and a mean of 1 draws nothing.
    """
    if isinstance(size_model, FixedSize):
        return np.full(n, size_model.n, dtype=np.int64)
    if size_model.mean == 1.0:
        return np.ones(n, dtype=np.int64)
    w0 = _lone_weight(size_model)
    u = _latin_hypercube(rng, n, 1, replicate)[:, 0]
    u *= 1.0 - w0
    u += w0
    return 1 + np.searchsorted(_interferer_cdf(size_model.mean), u, side="right")


def _typical_cluster(rng, scenario: Scenario, link: LinkParams, n: int, replicate: int):
    """The typical node's own cluster: (r_typ, load, seg_start, r_first).

    Only radii are drawn: the in-cluster interferers' fading is integrated
    out, not sampled (see the module docstring).  ``load`` holds every
    node's load, trial after trial, and ``seg_start`` the index of each
    trial's first node: node j at radius rho_j has the load
    b_j = (p_x / p_x0) (r_typ / rho_j)**alpha, and the typical node 0 (it
    does not interfere with itself).  ``r_first`` is each trial's node 0
    radius, the typical link of the trial cut to node 0 alone.  Sizes come
    from ``_typical_sizes``, drawn first.  Node j of every trial takes
    column j of a Latin hypercube over the trials' replicates (a trial
    without a node j skips its column-j value), so (r / a)**2 is
    stratified per node column while each trial keeps i.i.d. uniform nodes.
    """
    sizes = _typical_sizes(rng, scenario.size_model, n, replicate)
    trial_of_node = np.repeat(np.arange(n, dtype=np.intp), sizes)
    columns = int(sizes.max())
    u = _latin_hypercube(rng, n, columns, replicate)[np.arange(columns) < sizes[:, None]]
    r = link.a * np.sqrt(u)
    seg_start = np.zeros(n, dtype=np.intp)
    np.cumsum(sizes[:-1], out=seg_start[1:])
    if isinstance(scenario.ordering, Unordered):
        # nodes are exchangeable, so the first one is a uniform pick
        typical = seg_start
    elif scenario.ordering.k is None:
        # the farthest node: the last index attaining its trial's largest
        # radius, which is the node a stable sort puts last, ties included,
        # found without the sort (every trial holds at least one node)
        at_max = r == np.maximum.reduceat(r, seg_start)[trial_of_node]
        typical = np.maximum.reduceat(np.where(at_max, np.arange(len(r)), -1), seg_start)
    else:
        # a numeric rank comes with a fixed size, so each trial is one row
        by_radius = np.argsort(r.reshape(n, -1), axis=1, kind="stable")
        typical = seg_start + by_radius[:, scenario.ordering.k - 1]

    r_typ = r[typical]
    load = (r_typ[trial_of_node] / r) ** link.alpha
    load *= link.p_x / link.p_x0
    load[typical] = 0.0
    return r_typ, load, seg_start, r[seg_start]


def _cross_clusters(rng, scenario: Scenario, link: LinkParams, radius: float, n: int):
    """Per-trial interference from the clusters with a parent in the near disc.

    Other clusters hold n nodes (fixed) or Poisson(nbar), not 1 + Poisson.
    Each is rotated into the frame where its parent lies on the positive
    x-axis (valid by isotropy), saving one angle draw.
    """
    if link.lambda_g == 0.0:
        return np.zeros(n)
    trial_of_cluster, parent_r = _window_points(rng, link.lambda_g, radius, n)
    size_model = scenario.size_model
    if isinstance(size_model, FixedSize):
        sizes = np.full(len(parent_r), size_model.n, dtype=np.int64)
    else:
        sizes = rng.poisson(size_model.mean, size=len(parent_r))
    cluster_of_node = np.repeat(np.arange(len(parent_r), dtype=np.intp), sizes)
    nodes = len(cluster_of_node)
    off_r = link.a * np.sqrt(rng.random(nodes))
    off_th = rng.random(nodes) * (2.0 * math.pi)
    h = rng.standard_exponential(nodes)
    return link.p_x * link.eta * inter_sums(
        parent_r, trial_of_cluster, cluster_of_node, off_r, off_th, h, n, -link.alpha
    )


def _coexisting(rng, link: LinkParams, radius: float, n: int):
    """Per-trial interference from the coexisting PPP inside the near disc."""
    if link.lambda_co == 0.0:
        return np.zeros(n)
    trial_of_node, r = _window_points(rng, link.lambda_co, radius, n)
    h = rng.standard_exponential(len(r))
    return link.p_z * link.eta * radial_sums(r, h, trial_of_node, n, -link.alpha)


def _near_radius(config: NetworkConfig) -> float:
    """R0, the radius of the disc whose parents and coexisting nodes are drawn."""
    return min(config.window_radius, NEAR_RADII * config.link.a)


def _unit_disc_rule():
    """(offset radius, cos(angle / 2), weight) of nodes averaging over the unit disc.

    Gauss-Legendre in the radius with its 2 rho density and the angle
    average folded into the weights, midpoints in the angle over [0, pi]
    (the field is symmetric about the parent's axis).
    """
    t, w = leggauss(_DISC_NODES)
    rho = 0.5 * (t + 1.0)
    half_angle = 0.5 * math.pi * (np.arange(_DISC_NODES) + 0.5) / _DISC_NODES
    return rho, np.cos(half_angle), w * rho / _DISC_NODES


_RADIAL_RULE = leggauss(_RADIAL_NODES)
_UNIT_DISC = _unit_disc_rule()
_POINT = (np.zeros(1), np.ones(1), np.ones(1))  # the a = 0 "disc"


def _annulus_exponent(c, density: float, a: float, size, inner: float, outer: float,
                      alpha: float) -> np.ndarray:
    """-log of the transform of the clusters with a parent at distance (inner, outer].

    Parents form a PPP of the given density and each cluster holds size
    nodes uniform in a disc of radius a around its parent, so by the PGFL
    the exponent is 2 pi density int [1 - G(x)] x dx, with G = g**n for a
    fixed size, exp(-nbar (1 - g)) for a Poisson size, and
    g(x) = E_y[1 / (1 + c |x + y|**-alpha)] over the disc.  The coexisting
    PPP is a = 0 with one node per parent.  c holds the loads s p eta
    (any shape); outer may be infinite.  Exactly 0 at c = 0.

    1 - g = sum_y w_y c / (d_y**alpha + c) is summed directly, so that it
    keeps its relative precision at small c.  d**alpha is computed once, as
    an (x node, disc node) array (48 x 64 for a cluster disc, 48 x 1 for the
    coexisting points), and the loads go through it in blocks of 32: one
    add, one divide in place, then one weighted reduction over all disc
    nodes (a matrix-vector product).  The only temporary is one block
    buffer of at most 32 x 48 x 64 doubles (768 KiB), whatever the number
    of loads.  Each load's value is computed alone, by the same operations
    on the same shapes, so it does not depend on the other loads or on its
    position in a block: a table's lattice value is the same bits for any
    lattice length.
    """
    c = np.asarray(c, dtype=float)
    if density == 0.0 or inner >= outer:
        return np.zeros_like(c)
    k = alpha - 2.0
    t, w = _RADIAL_RULE
    u_lo = (inner / outer) ** k
    u = u_lo + 0.5 * (1.0 - u_lo) * (t + 1.0)
    x = (inner * u ** (-1.0 / k))[:, None, None]
    # x dx = inner**2 / k * u**(-alpha / k) du
    radial_weight = 0.5 * (1.0 - u_lo) * w * inner**2 / k * u ** (-alpha / k)
    rho, half_cos, disc_weight = _UNIT_DISC if a > 0.0 else _POINT
    offset = (a * rho)[:, None]
    d_alpha = ((x - offset) ** 2 + 4.0 * x * offset * half_cos * half_cos) ** (0.5 * alpha)
    d_alpha = d_alpha.reshape(len(u), -1)  # (x node, offset radius x half-angle)
    node_weight = np.repeat(disc_weight, len(half_cos))
    loads = c.reshape(-1)
    block = 32
    tail = np.empty((len(loads), len(u)))
    buf = np.empty((min(len(loads), block),) + d_alpha.shape)
    for start in range(0, len(loads), block):
        load = loads[start:start + block, None, None]
        terms = buf[:len(load)]
        np.add(d_alpha, load, out=terms)
        np.divide(load, terms, out=terms)
        np.matmul(terms, node_weight, out=tail[start:start + block])
    tail = tail.reshape(c.shape + u.shape)
    if isinstance(size, FixedSize):
        # a saturated load gives log1p(-1) = -inf, whose limit is the bracket 1
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-np.minimum(tail, 1.0))
        bracket = -np.expm1(size.n * log_miss)
    else:
        bracket = -np.expm1(-size.mean * tail)
    return 2.0 * math.pi * density * (bracket * radial_weight).sum(axis=-1)


def _field_exponent(link: LinkParams, size, inner: float, outer: float,
                    field: InterferenceField, s) -> np.ndarray:
    """-log of one field's exact transform over the annulus (inner, outer]."""
    s = np.asarray(s, dtype=float)
    if field is InterferenceField.INTER:
        return _annulus_exponent(
            s * (link.p_x * link.eta), link.lambda_g, link.a, size, inner, outer, link.alpha
        )
    return _annulus_exponent(
        s * (link.p_z * link.eta), link.lambda_co, 0.0, FixedSize(1), inner, outer, link.alpha
    )


def _far_exponent(spec: SimSpec, field: InterferenceField, s) -> np.ndarray:
    """Lambda_far(s): -log of one field's exact transform over the annulus (R0, W]."""
    return _field_exponent(spec.config.link, spec.scenario.size_model, _near_radius(spec.config),
                           spec.config.window_radius, field, s)


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``PchipInterpolator(x, y).c`` of SciPy for three or more increasing points.

    x must strictly increase and y must not decrease.  Lambda_far strictly
    increases in s, but log Lambda saturates in floating point far out:
    from thresholds of about 190 dB the table has flat secants (38 of 922
    at gamma = 1e20 on the reference link).  PCHIP's interior slopes are
    the weighted harmonic means of the neighbouring secants, 0 next to a
    flat one (here by a division by zero, silenced as SciPy silences
    it), and its end slopes the three-point ones clamped at 0.  The
    operations and their order are SciPy's ``_find_derivatives``,
    ``_edge_case`` and ``CubicHermiteSpline``, so the (4, len(x) - 1)
    coefficients (highest power first, in powers of x - x[i]) are its
    coefficients bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore"):  # a flat secant gives the slope 0
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[0] = max(((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1]), 0.0)
    d[-1] = max(((2 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2]), 0.0)
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True)
class _FarTable:
    """Lambda_far(s) of both fields, tabulated for one link, annulus and size model.

    A monotone cubic (PCHIP) in log Lambda against log s, and Lambda's
    linear limit below the grid, so the table is nondecreasing in s like
    Lambda itself and the estimate stays monotone in the threshold.

    ``_pchip_coefficients`` builds SciPy's PCHIP coefficients bit for bit
    for these tables, without importing ``scipy.interpolate`` (whose import
    pulls in ``scipy.optimize`` and ``scipy.linalg`` and costs more than a
    short MC request).  The lookup reads them by lattice arithmetic, since
    the breakpoints are uniform in log s, instead of by PPoly's per-point
    interval search, which costs more than a chunk's draws.  The lattice is
    uniform only up to rounding, so the arithmetic index is then moved by
    at most one step each way, to PPoly's interval x[i] <= log s < x[i + 1]
    (the last interval closed).  Each step is one ``take`` and one compare
    against guarded copies of the interval ends, whose first lower end is
    -inf and last upper end +inf, so no step leaves the table.  The cubic
    is evaluated in place in PPoly's order and the linear limit is applied
    to the points below the grid alone, so the values are SciPy's
    ``PchipInterpolator`` values bit for bit for any finite s.

    Tables are shared between requests (see ``_far_table``), so every
    array is read-only.
    """

    s_lo: float
    lam_lo: float
    x: np.ndarray  # breakpoints, log s
    coef: np.ndarray  # (4, len(x) - 1), highest power first, in powers of log s - x[i]
    x_lo: np.ndarray = dataclasses.field(init=False, repr=False)  # x[:-1], x_lo[0] = -inf
    x_hi: np.ndarray = dataclasses.field(init=False, repr=False)  # x[1:], x_hi[-1] = +inf

    def __post_init__(self) -> None:
        x_lo, x_hi = self.x[:-1].copy(), self.x[1:].copy()
        x_lo[0], x_hi[-1] = -math.inf, math.inf
        object.__setattr__(self, "x_lo", x_lo)
        object.__setattr__(self, "x_hi", x_hi)
        for array in (self.x, self.coef, x_lo, x_hi):
            array.flags.writeable = False

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        x = self.x
        log_s = np.maximum(flat, self.s_lo)
        np.log(log_s, out=log_s)
        pos = log_s - x[0]
        pos *= len(x) - 1
        pos /= x[-1] - x[0]
        i = pos.astype(np.intp)  # pos >= 0, since log s >= x[0]
        np.minimum(i, len(x) - 2, out=i)
        i -= log_s < self.x_lo.take(i)
        i += log_s >= self.x_hi.take(i)
        d = np.subtract(log_s, x.take(i), out=pos)
        c0, c1, c2, c3 = self.coef
        # c3 + c2 d + c1 (d d) + c0 ((d d) d), summed left to right
        value = c2.take(i)
        value *= d
        value += c3.take(i)
        power = d * d
        term = c1.take(i)
        term *= power
        value += term
        power *= d
        c0.take(i, out=term)
        term *= power
        value += term
        np.exp(value, out=value)
        below = flat < self.s_lo
        if below.any():
            value[below] = self.lam_lo * (flat[below] / self.s_lo)
        return value.reshape(s.shape)


def _far_table(spec: SimSpec) -> _FarTable | None:
    """The far factor's table over the request's s range; None if there is no far field.

    The table is memoised on what its build reads: the link, R0, W, the
    size model and the lattice's top point.  So requests that differ only
    in seed, trial count, ordering or workers, or in thresholds with the
    same largest lattice point, share one table.
    """
    floor = -_TABLE_PER_DECADE * _TABLE_FLOOR_DECADES
    # r_typ <= a, so no trial's s exceeds max(gamma) s_a
    top = math.ceil(_TABLE_PER_DECADE * math.log10(max(spec.gamma_grid))) + 2
    try:
        return _build_far_table(spec.config.link, _near_radius(spec.config),
                                spec.config.window_radius, spec.scenario.size_model,
                                max(top, floor + 2))
    except OverflowError:
        raise ValueError(
            f"SINR threshold {max(spec.gamma_grid)!r} is too large: "
            "the far-field table's s lattice overflows"
        ) from None


@functools.lru_cache(maxsize=_FAR_TABLES)
def _build_far_table(link: LinkParams, inner: float, outer: float, size,
                     top: int) -> _FarTable | None:
    """The table of both fields over the annulus (inner, outer] on lattice points up to top."""
    k = np.arange(-_TABLE_PER_DECADE * _TABLE_FLOOR_DECADES, top + 1)
    with np.errstate(over="ignore"):  # an overflow is reported below
        s = link.a**link.alpha / (link.p_x0 * link.eta) * 10.0 ** (k / _TABLE_PER_DECADE)
    if not np.isfinite(s).all():
        raise OverflowError("the far-field table's s lattice overflows")
    lam = _field_exponent(link, size, inner, outer, InterferenceField.INTER, s)
    lam += _field_exponent(link, size, inner, outer, InterferenceField.COEXIST, s)
    if not lam.any():
        return None
    log_s, log_lam = np.log(s), np.log(lam)
    # the interpolant at x[0] is exactly log_lam[0]
    return _FarTable(s[0], float(np.exp(log_lam[0])), log_s, _pchip_coefficients(log_s, log_lam))


def _conditional_values(t: np.ndarray, x: np.ndarray, scale, far) -> np.ndarray:
    """exp(-t x - far(t scale)) on the (grid, trials) array; far None: no far field."""
    exponent = -t[:, None] * x[None, :]
    if far is not None:
        exponent -= far(t[:, None] * scale[None, :])
    return np.exp(exponent, out=exponent)


def _simulate_chunk(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one chunk of trials: (replicate sums S_j, replicate sizes k_j).

    Consecutive trials form replicates of ``replicate`` trials, the last
    one possibly shorter.  S_j is a (grid, replicates) array, the sum of
    replicate j's values at every grid point; ``_estimate`` turns the
    chunks' sums into means and standard errors.

    Every trial gives one value per grid point t.  For the INTER and
    COEXIST transforms t is the transform variable and the value
    exp(-t * x), x the field's near-disc interference; for INTRA it is
    1 / prod_j (1 + t * p_x eta rho_j**-alpha), the interferers' fading
    integrated out.  For coverage t is the SINR threshold and the value
    exp(-t * x - far(t * scale)) / prod_j (1 + t * b_j): x the typical
    link's conditional coverage exponent against the drawn cross-cluster
    and coexisting nodes and the noise, scale = r_typ**alpha / (p_x0 eta),
    so that t * scale is the far field's s, and b_j the in-cluster loads
    of ``_typical_cluster``; ``far`` is the coverage request's table, or
    None where there is no far field.  A Poisson typical cluster with a
    lone-node weight w0 > 0 (``_lone_weight``) gives (1 - w0) times that
    value plus w0 times the lone node's: for INTRA exactly 1, for coverage
    the value without the in-cluster product at node 0's radius, which for
    the unordered typical node (node 0) is the value before that product.
    """
    spec, field, index, n, grid, far, replicate = args
    scenario = spec.scenario
    link = spec.config.link
    radius = _near_radius(spec.config)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)))
    t = np.asarray(grid)
    load = scale = None
    if field is InterferenceField.INTRA:
        r_typ, load, seg_start, _ = _typical_cluster(rng, scenario, link, n, replicate)
        # the loads of s: b_j (p_x0 eta) / r_typ**alpha = p_x eta rho_j**-alpha
        sizes = np.diff(seg_start, append=len(load))
        load *= np.repeat(link.p_x0 * link.eta / r_typ**link.alpha, sizes)
        x = np.zeros(n)
    elif field is InterferenceField.INTER:
        x = _cross_clusters(rng, scenario, link, radius, n)
    elif field is InterferenceField.COEXIST:
        x = _coexisting(rng, link, radius, n)
    else:
        r_typ, load, seg_start, r_first = _typical_cluster(rng, scenario, link, n, replicate)
        i_inter = _cross_clusters(rng, scenario, link, radius, n)
        i_co = _coexisting(rng, link, radius, n)
        near = i_inter + i_co + link.sigma2
        scale = r_typ**link.alpha / (link.p_x0 * link.eta)
        x = near * scale
    values = _conditional_values(t, x, scale, far)
    w0 = 0.0 if load is None else _lone_weight(scenario.size_model)
    if w0:
        # w0 times the lone-node stratum's value: the same trial cut to node
        # 0 alone, so without the in-cluster product and on node 0's link
        if field is InterferenceField.INTRA:
            lone = w0
        elif isinstance(scenario.ordering, Unordered):
            lone = values * w0  # node 0 is the typical node
        else:
            scale = r_first**link.alpha / (link.p_x0 * link.eta)
            lone = _conditional_values(t, near * scale, scale, far)
            lone *= w0
    if load is not None:
        intra_fading(load, seg_start, t, values)
    if w0:
        values *= 1.0 - w0
        values += lone
    starts = np.arange(0, n, replicate)
    return np.add.reduceat(values, starts, axis=1), np.minimum(n - starts, replicate)


def _estimate(
    spec: SimSpec, field: InterferenceField | None, grid: tuple[float, ...]
) -> list[McEstimate]:
    """Mean and standard error (see ``McEstimate``) of each trial's value at every grid point t.

    The mean is the chunks' totals, summed in chunk order, over n trials.
    The standard error takes two passes over every chunk's replicate sums
    in index order: the mean first, then the squared deviations from it.
    A request of at most REPLICATE_TRIALS trials would form a single
    replicate, whose spread is unknown, so it is drawn unstratified, in
    replicates of one trial.  The INTER and COEXIST transforms draw no
    in-cluster radii, so nothing is stratified and their trials are i.i.d.:
    replicates of one trial give the standard error n - 1 degrees of
    freedom instead of n / REPLICATE_TRIALS - 1.  Only coverage (field
    None) has a far table; a transform is estimated for its near-disc field
    alone.
    """
    far = _far_table(spec) if field is None else None
    stratified = field is None or field is InterferenceField.INTRA
    replicate = REPLICATE_TRIALS if stratified and spec.trials > REPLICATE_TRIALS else 1
    args = [
        (spec, field, index, size, grid, far, replicate)
        for index, size in enumerate(_chunk_sizes(spec.trials, spec.chunk_trials))
    ]
    workers = _resolve_workers(spec.workers)
    if workers == 1 or len(args) == 1:
        chunks = [_simulate_chunk(a) for a in args]
    else:
        # imported here: the pool brings in multiprocessing, socket,
        # subprocess and logging, which a one-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        # about four runs of contiguous chunks per worker: one pickled task
        # per chunk costs about as much as simulating it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_simulate_chunk, args, chunksize=-(-len(args) // (4 * workers))))
    n = spec.trials
    means = np.array([part.sum(axis=1) for part, _ in chunks]).sum(axis=0) / n
    sums = np.concatenate([part for part, _ in chunks], axis=1)
    sizes = np.concatenate([part for _, part in chunks])
    m = len(sizes)
    dev = sums - means[:, None] * sizes
    out = []
    for mean, spread in zip(means, (dev * dev).sum(axis=1)):
        stderr = math.sqrt(m / (m - 1) * spread) / n if m > 1 else 0.0
        out.append(McEstimate(mean=float(mean), stderr=stderr, trials=n))
    return out


def estimate_coverage(spec: SimSpec) -> list[McEstimate]:
    """Coverage estimates, one per threshold in spec.gamma_grid.

    Each trial contributes its conditional coverage probability (see the
    module docstring), and all thresholds share realizations, so the
    estimates are exactly nonincreasing across the grid.
    """
    if not spec.gamma_grid:
        raise ValueError("spec.gamma_grid must contain at least one threshold")
    return _estimate(spec, None, spec.gamma_grid)


def estimate_laplace(
    spec: SimSpec,
    interf_field: InterferenceField,
    s_grid: tuple[float, ...],
) -> list[McEstimate]:
    """Transforms E[exp(-s * I_field)], one per grid point.

    For INTER and COEXIST each trial contributes exp(-s I_near), its
    sampled near-disc interference, and the annulus's exact factor
    exp(-Lambda_far(s)) is a constant per grid point, so the estimate's
    mean and standard error are both multiplied by it.  For INTRA (no far
    part) each trial contributes its drawn radii's transform with the
    interferers' fading integrated out, 1 / prod_j (1 + s p_x eta
    rho_j**-alpha), and with a Poisson size (1 - w0) times that plus w0,
    the lone node's exact 1.  s = 0 gives exactly 1.

    At small s the INTRA standard error understates the error: the deficit
    1 - L then comes from rare in-cluster interferers very close to the
    receiver, which few trials draw; the tail is in the radii, so
    integrating out the fading does not mend it.  On the reference link
    (beta about 7e-9) at 8,192 trials over seeds 0-39, s = 1e3 gives an rms
    z against ``laplace_intra`` of 3.2 for a fixed size of 6 and 4.2 for a
    Poisson mean of 6 (max |z| 10 and 15), and 1.3 and 1.6 at s = 1e4,
    against about 1 from s = 1e5; this is why
    ``test_intra_matches_closed_form`` starts at s = 1e6.
    """
    s_grid = tuple(s_grid)
    if not s_grid:
        raise ValueError("s_grid must contain at least one point")
    if not isinstance(interf_field, InterferenceField):
        raise ValueError(f"interf_field must be an InterferenceField member, got {interf_field!r}")
    if not all(math.isfinite(s) and s >= 0.0 for s in s_grid):
        raise ValueError("transform grid points must be finite and nonnegative")
    estimates = _estimate(spec, interf_field, s_grid)
    if interf_field is InterferenceField.INTRA:
        return estimates
    factors = np.exp(-_far_exponent(spec, interf_field, s_grid)).tolist()
    return [McEstimate(e.mean * f, e.stderr * f, e.trials) for e, f in zip(estimates, factors)]
