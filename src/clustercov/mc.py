"""Monte Carlo ground truth: the vectorised network simulator and estimators.

Trials are partitioned into fixed-size chunks; every chunk owns an RNG
stream derived from (seed, chunk index) and chunks are reduced in index
order, so estimates are bit-for-bit reproducible and independent of how
many workers execute them.  Contiguous chunks are simulated in runs of at
most RUN_TRIALS trials, one vectorised pass per run (``_simulate_run``):
each chunk draws from its own stream in the order it would alone, and all
the work after the draws is elementwise, per trial or per replicate, so a
chunk's output is the same bits in any run.  A run saves the fixed NumPy
and Python cost of a pass per chunk; its cap bounds its arrays (see
RUN_TRIALS).

A coverage trial draws one field, the typical node's own cluster
(``_typical_cluster``: the typical link and the in-cluster loads), from
the start of its chunk's stream.  The other clusters and the coexisting
nodes are independent of it, so they enter by their exact transform
exp(-Lambda(s)) over the window (0, W], s = gamma r**alpha / (p_x0 eta),
read from the request's table (``_far_table``; Lambda and its table are
``field``'s).  A transform request (INTER or COEXIST) draws its own field
inside the near disc of radius R0 = min(W, NEAR_RADII * a), a the
cluster radius, from the start of the stream, and takes the annulus
(R0, W] exactly; it is the one simulation of those fields.  A zero
density draws nothing.

Coverage is estimated by conditional Monte Carlo, over the typical link's
fading, over the in-cluster interferers' fading and over the other
fields.  Under Rayleigh fading on the typical link, P(SINR >= gamma |
everything else) = exp(-gamma x_all) with x_all = r**alpha (I + sigma2) /
(p_x0 eta) and I the interference.  The in-cluster part of I is a sum of
h_j p_x eta rho_j**-alpha over the other nodes of the typical cluster, and
E[exp(-gamma h b)] = 1 / (1 + gamma b) for exponential h, the identity the
closed forms use too.  So neither that fading nor the other fields are
drawn: each trial contributes exp(-gamma x - Lambda(s)) /
prod_j (1 + gamma b_j), with x = r**alpha sigma2 / (p_x0 eta) the noise
part and b_j = (p_x / p_x0) (r / rho_j)**alpha.  The estimate keeps the
expectation of the fully sampled window and its variance falls
(Rao-Blackwellisation).  What Monte Carlo still checks by sampling is the
typical cluster: its node positions, its size law (a Poisson one given at
least one interferer, below) and the ordering; the other clusters' PGFL
is checked by the INTER transform, which draws them, and by the
nested-quadrature oracle.  It holds only while the fading is Rayleigh.
Thresholds share realizations (common random numbers), and each summand
is nonincreasing in gamma, so the estimated coverage is exactly monotone
across the grid within one run.  Integrating out the interferers' fading
matters most for the farthest node at high thresholds: all of its
interferers are closer than the signal, coverage needs all their fading
small at once, and a few thousand drawn trials rarely see that event.

The typical cluster is drawn by randomised quasi-Monte Carlo (Owen 1997;
L'Ecuyer and Lemieux 2000).  Consecutive trials of a chunk form replicates
of N trials, and each replicate is one scrambled Sobol' net of N points
(``_net_dims``): trial i of the replicate is the net's point i, and the
net's dimensions give its draws.  Every dimension of every replicate
takes an independent random linear scramble and digital shift, so each
trial on its own still draws the model literally (i.i.d. uniform nodes
on the disc) and the estimate stays unbiased, while across a replicate
the points fill the net's strata jointly in every dimension, so the part
of the variance that is smooth in the draws, not only its additive part,
cancels.  Replicates are independent, so the standard error comes from
the replicate sums, with about n / N - 1 degrees of freedom.  N is the
largest power of two up to NET_POINTS, chunk_trials and trials /
MIN_REPLICATES (``_net_points``), and N = 1 draws i.i.d. uniforms; a
chunk's last replicate of k < N trials takes its net's first k points.

A Poisson typical cluster's size is drawn by the same net, and its rarest
stratum is not drawn at all.  The cluster holds the typical node and J ~
Poisson(nbar - 1) in-cluster interferers; the lone node, J = 0, has the
probability w0 = exp(-(nbar - 1)), and for the farthest node at high
thresholds it carries most of the coverage while a few thousand trials
hold few lone nodes or none.  So a trial draws J given J >= 1, from the
net's dimension 0, and node j takes dimension j + 1 (with a fixed size,
node j takes dimension j).  A chunk's stream starts with the scramble
words of every replicate's net for the dimensions it reads: dimension 0
first where J is drawn, then the node dimensions up to the chunk's
largest cluster, at most the 64 tabled ones (a trial without a node j
pads: it skips its point's value there), and any node dimension past the
table draws plain uniforms next.  The trial
contributes (1 - w0) Y + w0 Y_lone: Y its value, Y_lone the value of the
same trial cut to node 0 alone (no in-cluster product, node 0's radius
as the typical link).  Each trial keeps the model's expectation and
replicates stay i.i.d., so the estimate stays unbiased and the replicate
standard error holds.  Monte Carlo still samples the J >= 1 geometry, and
the lone term still uses a drawn node-0 radius; only the weight w0 and
J's law given J >= 1 come from the size model exactly.

The per-node work runs through three NumPy kernels: ``radial_sums`` and
``inter_sums`` accumulate a transform's drawn coexisting and cross-cluster
interference, and ``intra_fading`` divides by each trial's in-cluster
product.  They are module attributes so that profilers and tests can wrap
them in place.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import field
from .params import FixedSize, LinkParams, NetworkConfig, Scenario, Unordered, require_int

__all__ = [
    "InterferenceField",
    "McEstimate",
    "SimSpec",
    "estimate_coverage",
    "estimate_laplace",
]

WORKERS_ENV_VAR = "CLUSTERCOV_WORKERS"

# Radius, in cluster radii, of the near disc that the INTER and COEXIST
# transforms draw (coverage draws neither field).  Like chunk_trials it is
# part of their random-stream layout: changing it changes every transform
# estimate on a window wider than the near disc.
NEAR_RADII = 2.0

# The most trials of one run of contiguous chunks, simulated in one
# vectorised pass (``_simulate_run``): four default chunks.  It is not part
# of the stream layout (a chunk's output does not depend on its run).  A
# run saves each chunk's fixed NumPy and Python cost, but its typical
# clusters' arrays grow with it.  On the reference network (2-core VM), a
# one-threshold 98,304-trial request took 0.79 times as long in runs of
# 2,048 trials as with one pass per chunk, within 5 % of that in runs of
# 4,096 and 8,192, and 1.12 times as long in runs of 32,768, whose arrays
# no longer fit the cache; its peak traced allocation was 0.33 MiB in
# chunks, 1.06 MiB in runs of 2,048, 2.06 at 4,096, 4.05 at 8,192 and 16.0
# at 32,768.
RUN_TRIALS = 2048
# The most values in one block of a run's value pass (``_simulate_run``):
# a block takes as many grid rows as fit, so that its arrays are no larger
# than one default chunk's at 16 thresholds.  The whole 16 x 2,048 grid at
# once took 0.65 us per trial, against 0.33 in blocks of 4 x 2,048 and
# 0.40 for a 512-trial chunk.  In a loop like the benchmark's, which runs
# NumPy work between requests, the whole grid raised the process's peak
# RSS by 3.5 MB, and blocks of 256 or 512 KiB brought 850-900 page faults
# per request, as the heap grew and was trimmed again.
_VALUE_BLOCK = 16 * 512

# The typical cluster's replicates: consecutive trials of a chunk form one
# scrambled Sobol' net of N points, N the largest power of two up to
# NET_POINTS, chunk_trials and trials / MIN_REPLICATES (``_net_points``), so
# that a request keeps at least MIN_REPLICATES replicates for its standard
# error, and from 4,096 trials on at least 64.  Larger nets cancel more
# variance but leave fewer replicates: capped at 256 points (32 replicates
# of an 8,192-trial request), TestCalibrationScan's gate failed on 10 of 20
# blocks of 30 held-out seeds, against 5 of 20 capped at 64 and under the
# 16-trial Latin hypercube, which the nets replaced.  Both are part of the
# stream layout.
NET_POINTS = 64
MIN_REPLICATES = 16
# Sobol' direction numbers m_(d, k) of the first 64 dimensions, k < 8: the
# net's generator column k in dimension d is the binary fraction
# m_(d, k) 2**-(k + 1), enough for nets of up to 2**8 points.  Joe and Kuo's
# new-joe-kuo-6.21201 table as SciPy ships it (scipy/stats/
# _sobol_direction_numbers.npz), with m_(d, k) for k past the primitive
# polynomial's degree s from its recurrence (coefficient a_i is bit s - i of
# the polynomial); dimension 0 is van der Corput's.  Dimensions past the
# table draw plain uniforms.
_SOBOL_M = np.array([
    (1, 1, 1, 1, 1, 1, 1, 1), (1, 3, 5, 15, 17, 51, 85, 255),
    (1, 3, 3, 9, 29, 23, 71, 197), (1, 3, 1, 5, 31, 29, 81, 147),
    (1, 1, 1, 11, 31, 55, 61, 157), (1, 1, 3, 3, 25, 9, 43, 251),
    (1, 3, 5, 13, 11, 37, 31, 227), (1, 1, 5, 5, 17, 9, 9, 45),
    (1, 1, 5, 5, 5, 53, 53, 113), (1, 1, 7, 11, 19, 37, 69, 91),
    (1, 1, 5, 1, 1, 27, 79, 35), (1, 1, 1, 3, 11, 43, 75, 43),
    (1, 3, 5, 5, 31, 35, 113, 51), (1, 3, 3, 9, 7, 49, 33, 163),
    (1, 1, 1, 15, 21, 21, 77, 157), (1, 3, 1, 13, 27, 49, 35, 133),
    (1, 1, 1, 15, 7, 5, 123, 103), (1, 3, 1, 15, 13, 25, 27, 109),
    (1, 1, 5, 5, 19, 61, 87, 187), (1, 3, 7, 11, 23, 15, 103, 65),
    (1, 3, 7, 13, 13, 15, 69, 81), (1, 1, 3, 13, 7, 35, 63, 113),
    (1, 3, 5, 9, 1, 25, 53, 137), (1, 3, 1, 13, 9, 35, 107, 57),
    (1, 3, 1, 5, 27, 61, 31, 149), (1, 1, 5, 11, 19, 41, 61, 213),
    (1, 3, 5, 3, 3, 13, 69, 157), (1, 1, 7, 13, 1, 19, 1, 181),
    (1, 3, 7, 5, 13, 19, 59, 247), (1, 1, 3, 9, 25, 29, 41, 3),
    (1, 3, 5, 13, 23, 1, 55, 151), (1, 3, 7, 3, 13, 59, 17, 43),
    (1, 3, 1, 3, 5, 53, 69, 255), (1, 1, 5, 5, 23, 33, 13, 175),
    (1, 1, 7, 7, 1, 61, 123, 139), (1, 1, 7, 9, 13, 61, 49, 223),
    (1, 3, 3, 5, 3, 55, 33, 55), (1, 3, 1, 15, 31, 13, 49, 245),
    (1, 3, 5, 15, 31, 59, 63, 97), (1, 3, 1, 11, 11, 11, 77, 249),
    (1, 3, 1, 11, 27, 43, 71, 9), (1, 1, 7, 15, 21, 11, 81, 45),
    (1, 3, 7, 3, 25, 31, 65, 79), (1, 3, 1, 1, 19, 11, 3, 205),
    (1, 1, 5, 9, 19, 21, 29, 157), (1, 3, 7, 11, 1, 33, 89, 185),
    (1, 3, 3, 3, 15, 9, 79, 71), (1, 3, 7, 11, 15, 39, 119, 27),
    (1, 1, 3, 1, 11, 31, 97, 225), (1, 1, 1, 3, 23, 43, 57, 177),
    (1, 3, 7, 7, 17, 17, 37, 71), (1, 3, 1, 5, 27, 63, 123, 213),
    (1, 1, 3, 5, 11, 43, 53, 133), (1, 3, 5, 5, 29, 17, 47, 173),
    (1, 3, 3, 11, 3, 1, 109, 9), (1, 1, 1, 5, 17, 39, 23, 5),
    (1, 3, 1, 5, 25, 15, 31, 103), (1, 1, 1, 11, 11, 17, 63, 105),
    (1, 1, 5, 11, 9, 29, 97, 231), (1, 1, 5, 15, 19, 45, 41, 7),
    (1, 3, 7, 7, 31, 19, 83, 137), (1, 1, 1, 3, 23, 15, 111, 223),
    (1, 1, 5, 13, 31, 15, 55, 25), (1, 1, 3, 13, 25, 47, 39, 87),
])
# Net coordinates carry _NET_BITS binary digits; _NET_DIAGONAL[k] is digit k
# alone (0 the most significant) and _NET_BELOW[k] the digits below it.
# _NET_DIGITS[d, k, i] is digit i of generator column k in dimension d.
_NET_BITS = 52
_NET_DIAGONAL = np.array([1 << (_NET_BITS - 1 - k) for k in range(8)], dtype=np.uint64)
_NET_BELOW = _NET_DIAGONAL - np.uint64(1)
_NET_DIGITS = ((_SOBOL_M << (7 - np.arange(8)))[:, :, None] >> (7 - np.arange(8)) & 1).astype(bool)


class InterferenceField(Enum):
    INTER = "inter"
    COEXIST = "coexist"


@dataclass(frozen=True)
class SimSpec:
    """Everything a simulation needs; identical specs give identical output.

    chunk_trials fixes the trial partition (it is part of the random-stream
    layout, not a performance knob that may silently change results);
    workers only controls execution and never affects estimates (None reads
    the CLUSTERCOV_WORKERS environment variable, default 1), and neither
    do the runs of at most RUN_TRIALS trials in which chunks are simulated
    (see ``_estimate``).  gamma_grid may be any sequence of thresholds and
    is kept as a tuple of floats.
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
    mean)**2) / trials, and 0.0 for m = 1.  Coverage draws each
    replicate as one scrambled net of N points (see the module
    docstring), N the largest power of two up to NET_POINTS, chunk_trials
    and trials / MIN_REPLICATES, so m is at least about MIN_REPLICATES;
    below 2 MIN_REPLICATES trials N = 1 and the standard
    error is the usual i.i.d. one, 0.0 for a single trial.  The INTER and
    COEXIST transforms draw no typical cluster, so their trials are i.i.d.
    and they always use replicates of one trial; their mean and stderr
    are the near disc's times the annulus's exact factor
    exp(-Lambda_far(s)).  A coverage trial's value holds the other fields'
    exact factor exp(-Lambda(s)) at its own s.  With a Poisson typical
    cluster each trial's value already mixes in the lone-node term, so the
    replicate sums and the stderr include it.
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


def _net_points(spec: SimSpec) -> int:
    """N, the points of each replicate's net: the largest power of two up to
    NET_POINTS, chunk_trials and trials / MIN_REPLICATES, and 1 (i.i.d.
    trials) where trials / MIN_REPLICATES is below 1."""
    cap = int(min(NET_POINTS, spec.chunk_trials, spec.trials // MIN_REPLICATES))
    return 1 << max(cap.bit_length() - 1, 0)


def _net_words(rng, n: int, points: int, dims: int) -> np.ndarray:
    """The scramble words of ``dims`` net dimensions of a chunk: (dims, replicates, m + 1) uint64.

    Consecutive trials form replicates of ``points`` = 2**m trials, the
    last one possibly shorter, and each replicate is one net.  Each
    dimension of each replicate draws m + 1 words of _NET_BITS random
    bits: its digital shift, then its linear scramble's columns 0, ...,
    m - 1 (see ``_net_dims``).  They come from one ``integers`` call,
    dimension by dimension, each dimension's replicates in order, and each
    word takes one 64-bit draw, so calls for dimensions 0, ..., j - 1 and
    then j, ... draw the words of one call for them all.
    """
    m = points.bit_length() - 1
    size = (dims, -(-n // points), m + 1)
    return rng.integers(0, 1 << _NET_BITS, size=size, dtype=np.uint64)


def _replicate_lengths(n: int, points: int) -> np.ndarray:
    """The trials k_j of an n-trial chunk's replicates: points each, the last possibly fewer."""
    return np.minimum(n - np.arange(0, n, points), points)


def _net_dims(words: np.ndarray, lengths: np.ndarray, first: int) -> np.ndarray:
    """(trials, dims) uniforms: dimensions first, ..., of each replicate's scrambled Sobol' net.

    ``words`` holds the scramble words (``_net_words``) of dims tabled
    dimensions, from ``first`` on, and of each replicate, and ``lengths``
    each replicate's trials: replicate j's rows are its net's first
    lengths[j] points, so a short replicate takes a prefix of its net.
    Every dimension of every replicate has an independent random linear
    matrix scramble (a lower-triangular binary matrix with unit diagonal,
    applied to the generator columns' digits: only its first m columns
    reach them, and column k is digit k and the word's digits below it)
    and then an independent digital shift (an XOR with _NET_BITS random
    bits), as ``scipy.stats.qmc.Sobol(scramble=True)`` does.  So every row
    on its own is uniform on the _NET_BITS-digit grid of [0, 1),
    replicates are independent, and a replicate's points keep the net's
    strata: one point in each interval [i / 2**m, (i + 1) / 2**m) of a
    dimension, and one in each elementary box of area 2**-m of dimensions
    0 and 1.  Point i is the XOR of the shift and the scrambled columns of
    i's set bits, built in binary order by doubling.  With 2**m = 1 each
    row is its shift alone: i.i.d. uniforms.  Each value depends on its
    own replicate's words alone, so replicates of several chunks decode in
    one call to the bits they get alone.
    """
    m = words.shape[2] - 1
    points = 1 << m
    dims = len(words)
    # the scramble's column k: digit k set, the digits above it cleared
    scramble = words[..., 1:] & _NET_BELOW[:m]
    scramble |= _NET_DIAGONAL[:m]
    # scrambled generator column j: the XOR of the scramble's columns at its digits
    digits = _NET_DIGITS[first:first + dims, None, :m, :m]
    columns = np.bitwise_xor.reduce(np.where(digits, scramble[:, :, None, :], 0), axis=-1)
    x = np.empty((points,) + words.shape[:2], dtype=np.uint64)  # (point, dimension, replicate)
    x[0] = words[..., 0]
    for k in range(m):
        np.bitwise_xor(x[:1 << k], columns[..., k], out=x[1 << k:2 << k])
    u = np.multiply(x.transpose(2, 0, 1), 2.0**-_NET_BITS).reshape(-1, dims)
    if lengths.min() < points:
        u = u[(np.arange(points) < lengths[:, None]).reshape(-1)]
    return u


def _size_law(size_model) -> tuple[float, np.ndarray | None]:
    """The typical cluster's size law: (w0, cdf), or (0.0, None) where no size is drawn.

    The cluster holds the typical node and J ~ Poisson(mean - 1) in-cluster
    interferers.  cdf is J's CDF at J = 0, 1, ..., built from the log pmf,
    so that neither (mean - 1)**J nor J! overflows and the terms near the
    mode keep their digits where exp(-(mean - 1)) underflows, and cut where
    the pmf is far below the float resolution: past mean - 1 +
    20 sqrt(mean - 1) + 40.  w0 = cdf[0] = P(J = 0) = exp(-(mean - 1)) is
    the weight of the lone-node stratum, which is taken exactly; it is 0
    where it underflows (a mean above about 746), and then nothing is
    forced.  A fixed size and a Poisson mean of 1 (every trial is a lone
    node, so the drawn trial is already exact) give (0.0, None).
    ``_estimate`` builds the law once per request.
    """
    if isinstance(size_model, FixedSize) or size_model.mean == 1.0:
        return 0.0, None
    mu = size_model.mean - 1.0
    k = np.arange(math.ceil(mu + 20.0 * math.sqrt(mu)) + 40)
    log_pmf = k * math.log(mu) - mu
    log_pmf -= [math.lgamma(j + 1.0) for j in range(len(k))]
    cdf = np.cumsum(np.exp(log_pmf))
    return float(cdf[0]), cdf


def _typical_sizes(words, size_model, law, lengths: np.ndarray) -> np.ndarray:
    """Each trial's typical-cluster size: the typical node plus J in-cluster interferers.

    ``law`` is ``_size_law(size_model)`` and ``lengths`` the trials of
    each replicate (``_replicate_lengths``).  A Poisson size draws J given
    J >= 1, the lone-node stratum J = 0 being taken exactly: J inverts the
    Poisson(mean - 1) CDF at w0 + V (1 - w0), searching right, so that a
    point on cdf[0] = w0 gives J = 1.  V is dimension 0 of the trial's
    replicate net (``_net_dims`` on the replicates' ``words``), so J is
    stratified across each replicate's trials jointly with the node radii,
    which take the net's next dimensions.  Where w0 underflows to 0 this is
    the plain CDF's inversion.  Without a CDF (a fixed size, or a mean of
    1) there is no J.
    """
    w0, cdf = law
    if cdf is None:
        size = size_model.n if isinstance(size_model, FixedSize) else 1
        return np.full(int(lengths.sum()), size, dtype=np.int64)
    u = _net_dims(words, lengths, 0)[:, 0]
    u *= 1.0 - w0
    u += w0
    return 1 + np.searchsorted(cdf, u, side="right")


def _typical_cluster(rngs, scenario: Scenario, link: LinkParams, law, ns, points: int):
    """The typical node's own cluster in a run of chunks: (r_typ, load, seg_start, r_first).

    Chunk c of the run holds ns[c] trials and draws from its own stream
    rngs[c]; the outputs are the chunks', joined in order, and each
    chunk's values are the bits it gets alone.  Only radii are drawn: the
    in-cluster interferers' fading is integrated out, not sampled (see the
    module docstring).  ``load`` holds every node's load, trial after
    trial, and ``seg_start`` the index of each trial's first node: node j
    at radius rho_j has the load b_j = (p_x / p_x0) (r_typ / rho_j)**alpha,
    and the typical node 0 (it does not interfere with itself).
    ``r_first`` is each trial's node 0 radius, the typical link of the
    trial cut to node 0 alone.  Sizes come from ``_typical_sizes`` under
    ``law``, the request's ``_size_law``.  A chunk's stream holds the
    scramble words of one Sobol' net per replicate of ``points`` trials
    (``_net_words``), drawn first and only for the dimensions the chunk
    reads.  A drawn size J is the net's dimension 0, whose words come
    first; node j of every trial then takes (r / a)**2 from the net's next
    dimension, j + 1 where a size is drawn and j otherwise, up to the
    chunk's largest cluster (a trial without a node j skips its value
    there), so the node dimensions' words follow up to that cluster, and
    dimensions past the table draw plain uniforms next.  The run decodes
    every chunk's words at once, each chunk's word block padded with
    unread zero dimensions up to the run's largest cluster.  So the radii
    are stratified jointly with J across a replicate's trials, while each
    trial keeps i.i.d. uniform nodes.
    """
    first = 0 if law[1] is None else 1
    lengths = np.concatenate([_replicate_lengths(n, points) for n in ns])
    words = None
    if first:
        words = np.concatenate([_net_words(rng, n, points, 1) for rng, n in zip(rngs, ns)], axis=1)
    sizes = _typical_sizes(words, scenario.size_model, law, lengths)
    n = len(sizes)
    ends = np.cumsum(ns)
    largest = np.maximum.reduceat(sizes, ends - ns)  # each chunk's largest cluster
    columns = int(largest.max())
    tabled = min(columns, len(_SOBOL_M) - first)
    words = np.zeros((tabled, len(lengths), points.bit_length()), dtype=np.uint64)
    past = np.zeros((n, columns - tabled))  # node dimensions past the table
    replicate = 0
    for rng, end, chunk_n, chunk_columns in zip(rngs, ends.tolist(), ns, largest.tolist()):
        dims = min(chunk_columns, tabled)
        block = _net_words(rng, chunk_n, points, dims)
        words[:dims, replicate:replicate + block.shape[1]] = block
        replicate += block.shape[1]
        if chunk_columns > dims:
            untabled = chunk_columns - dims
            past[end - chunk_n:end, :untabled] = rng.random((chunk_n, untabled))
    u = _net_dims(words, lengths, first)
    if columns > tabled:
        u = np.hstack([u, past])
    u = u[np.arange(columns) < sizes[:, None]]
    trial_of_node = np.repeat(np.arange(n, dtype=np.intp), sizes)
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


def _far_table(spec: SimSpec) -> field.FarTable | None:
    """The coverage table of Lambda over the request's s range; None if there is no field.

    The table is memoised on what its build reads: the link, W, the size
    model and the lattice's top point.  So requests that differ only in
    seed, trial count, ordering or workers, or in thresholds with the same
    largest lattice point, share one table.
    """
    floor = field.table_floor(spec.config.link)
    # r_typ <= a, so no trial's s exceeds max(gamma) s_a
    top = math.ceil(field.TABLE_PER_DECADE * math.log10(max(spec.gamma_grid))) + 2
    try:
        return field.far_table(spec.config.link, spec.config.window_radius,
                               spec.scenario.size_model, max(top, floor + 2))
    except OverflowError:
        raise ValueError(
            f"SINR threshold {max(spec.gamma_grid)!r} is too large: "
            "the far-field table's s lattice overflows"
        ) from None


def _conditional_values(t: np.ndarray, x: np.ndarray, scale, far) -> np.ndarray:
    """exp(-t x - far(t scale)) on the (grid, trials) array; far None: no other field."""
    exponent = -t[:, None] * x[None, :]
    if far is not None:
        exponent -= far(t[:, None] * scale[None, :])
    return np.exp(exponent, out=exponent)


def _simulate_run(args: tuple) -> list[tuple[np.ndarray, np.ndarray]]:
    """Simulate contiguous chunks in one pass: each chunk's (replicate sums S_j, sizes k_j).

    Chunk i of the request, of ``ns[i - first]`` trials, draws from its
    own stream, default_rng(SeedSequence(seed, spawn_key=(i,))), in the
    order it would alone, and everything after the draws is elementwise
    or per trial or per replicate, so each chunk's output is the same
    bits whatever run it is simulated in.  Consecutive trials of a chunk
    form replicates of ``points`` trials, one scrambled net each, the
    last one possibly shorter.  S_j is a (grid, replicates) array, the sum
    of replicate j's values at every grid point; ``_estimate`` turns the
    chunks' sums into means and standard errors.

    Every trial gives one value per grid point t.  For the INTER and
    COEXIST transforms t is the transform variable and the value
    exp(-t * x), x the field's near-disc interference; their far factor
    is applied by ``_estimate``.  For coverage t is the SINR threshold and
    the value exp(-t * sigma2 * scale - far(t * scale)) / prod_j (1 + t *
    b_j): scale = r_typ**alpha / (p_x0 eta), so that t * scale is the
    fields' s, and b_j the in-cluster loads of ``_typical_cluster``, the
    only field drawn; ``far`` is the coverage request's table of
    Lambda_(0, W], or None where there are no other clusters and no
    coexisting nodes.  ``law`` is the request's ``_size_law``, (0.0, None)
    for a transform, which draws no typical cluster.  A Poisson typical
    cluster with a lone-node weight w0 > 0 gives (1 - w0) times that value
    plus w0 times the lone node's: the value without the in-cluster
    product at node 0's radius, which for the unordered typical node (node
    0) is the value before the product.  Values are formed and summed a
    few grid rows at a time, at most _VALUE_BLOCK values per block.
    """
    spec, interf_field, first, ns, grid, far, law, points = args
    scenario = spec.scenario
    link = spec.config.link
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)))
            for index in range(first, first + len(ns))]
    t = np.asarray(grid)
    load = scale = None
    if interf_field is InterferenceField.INTER:
        radius = _near_radius(spec.config)
        x = np.concatenate([_cross_clusters(rng, scenario, link, radius, n)
                            for rng, n in zip(rngs, ns)])
    elif interf_field is InterferenceField.COEXIST:
        radius = _near_radius(spec.config)
        x = np.concatenate([_coexisting(rng, link, radius, n) for rng, n in zip(rngs, ns)])
    else:
        r_typ, load, seg_start, r_first = _typical_cluster(rngs, scenario, link, law, ns, points)
        scale = r_typ**link.alpha / (link.p_x0 * link.eta)
        x = link.sigma2 * scale
    w0, _ = law
    lone_scale = None
    if w0 and not isinstance(scenario.ordering, Unordered):
        lone_scale = r_first**link.alpha / (link.p_x0 * link.eta)
        lone_x = link.sigma2 * lone_scale
    lengths = [_replicate_lengths(n, points) for n in ns]
    starts = np.zeros(sum(map(len, lengths)), dtype=np.intp)
    np.cumsum(np.concatenate(lengths)[:-1], out=starts[1:])
    sums = np.empty((len(t), len(starts)))
    # a few grid rows at a time, at most _VALUE_BLOCK values
    rows = max(1, _VALUE_BLOCK // len(x))
    for lo in range(0, len(t), rows):
        block = t[lo:lo + rows]
        values = _conditional_values(block, x, scale, far)
        if w0:
            # w0 times the lone-node stratum's value: the same trial cut to
            # node 0 alone, so without the in-cluster product and on node 0's link
            if lone_scale is not None:
                lone = _conditional_values(block, lone_x, lone_scale, far)
                lone *= w0
            else:
                lone = values * w0  # node 0 is the typical node
        if load is not None:
            intra_fading(load, seg_start, block, values)
        if w0:
            values *= 1.0 - w0
            values += lone
        np.add.reduceat(values, starts, axis=1, out=sums[lo:lo + rows])
    return list(zip(np.split(sums, np.cumsum([len(k) for k in lengths[:-1]]), axis=1), lengths))


def _estimate(
    spec: SimSpec, interf_field: InterferenceField | None, grid: tuple[float, ...]
) -> list[McEstimate]:
    """Mean and standard error (see ``McEstimate``) of each trial's value at every grid point t.

    This is where a request is set up, once for all of its chunks: the
    coverage table of Lambda over the window (``_far_table``), the typical
    cluster's size law (``_size_law``) and N, the points of each
    replicate's net (``_net_points``: the largest power of two up to
    NET_POINTS, chunk_trials and trials / MIN_REPLICATES).  Contiguous
    chunks are simulated in runs of at most RUN_TRIALS trials (at least
    one chunk), one vectorised pass each (``_simulate_run``); with w
    workers a run also holds at most ceil(chunks / (4 w)) chunks, and a
    pool task at most ceil(runs / (4 w)) runs, so that each worker takes
    about four tasks.  A chunk's output does not depend on its run.  The mean is the chunks'
    totals, summed in chunk order, over n trials.  The standard
    error takes two passes over every chunk's replicate sums in index
    order: the mean first, then the squared deviations from it.  Its
    degrees of freedom are the replicates' count less one, n / N - 1 where
    N divides chunk_trials and n (a chunk's short last replicate adds one),
    so N keeps at least MIN_REPLICATES replicates, and below
    2 MIN_REPLICATES trials N = 1 draws i.i.d. trials.  The INTER and
    COEXIST transforms draw no typical cluster, so nothing is stratified
    and their trials are i.i.d.: replicates of one trial give the standard
    error n - 1 degrees of freedom.  Their chunks draw the near-disc field
    alone, and the annulus's exact factor exp(-Lambda_far(s)), a constant
    per grid point, multiplies each mean and standard error here.
    """
    if interf_field is None:
        far, law, points = _far_table(spec), _size_law(spec.scenario.size_model), _net_points(spec)
    else:
        far, law, points = None, (0.0, None), 1
    ns = _chunk_sizes(spec.trials, spec.chunk_trials)
    workers = _resolve_workers(spec.workers)
    per_run = max(1, RUN_TRIALS // spec.chunk_trials)
    if workers > 1:
        per_run = min(per_run, -(-len(ns) // (4 * workers)))
    runs = [(spec, interf_field, first, ns[first:first + per_run], grid, far, law, points)
            for first in range(0, len(ns), per_run)]
    if workers == 1 or len(runs) == 1:
        chunks = [chunk for run in runs for chunk in _simulate_run(run)]
    else:
        # imported here: the pool brings in multiprocessing, socket,
        # subprocess and logging, which a one-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        # about four tasks per worker: a pickled task (the spec and the far
        # table) costs about as much as a short run, and one task per run
        # made a one-threshold 400k-trial request on two workers take
        # 0.23-0.27 s against 0.14 s
        per_task = -(-len(runs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = [chunk for run in pool.map(_simulate_run, runs, chunksize=per_task)
                      for chunk in run]
    n = spec.trials
    means = np.array([part.sum(axis=1) for part, _ in chunks]).sum(axis=0) / n
    sums = np.concatenate([part for part, _ in chunks], axis=1)
    sizes = np.concatenate([part for _, part in chunks])
    m = len(sizes)
    dev = sums - means[:, None] * sizes
    stderr = np.sqrt(m / (m - 1) * (dev * dev).sum(axis=1)) / n if m > 1 else np.zeros_like(means)
    if interf_field is not None:
        # the field's parameters for its exact transform over (R0, W]
        link, size = spec.config.link, spec.scenario.size_model
        s = np.asarray(grid, dtype=float)
        if interf_field is InterferenceField.INTER:
            c, density, a = s * (link.p_x * link.eta), link.lambda_g, link.a
        else:
            c, density, a, size = s * (link.p_z * link.eta), link.lambda_co, 0.0, FixedSize(1)
        factor = np.exp(-field.annulus_exponent(c, density, a, size, _near_radius(spec.config),
                                                 spec.config.window_radius, link.alpha))
        means *= factor
        stderr *= factor
    return [McEstimate(mean, se, n) for mean, se in zip(means.tolist(), stderr.tolist())]


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
    """Transforms E[exp(-s * I_field)] of the other clusters or the coexisting nodes, one per s.

    Each trial contributes exp(-s I_near), its sampled near-disc
    interference, and the annulus's exact factor exp(-Lambda_far(s)) is a
    constant per grid point, so ``_estimate`` multiplies the estimate's
    mean and standard error by it.  s = 0 gives exactly 1.  The in-cluster
    transform has its closed form, ``laplace.laplace_intra``, which
    coverage on a link without other fields checks.
    """
    s_grid = tuple(s_grid)
    if not s_grid:
        raise ValueError("s_grid must contain at least one point")
    if not isinstance(interf_field, InterferenceField):
        raise ValueError(f"interf_field must be an InterferenceField member, got {interf_field!r}")
    if not all(math.isfinite(s) and s >= 0.0 for s in s_grid):
        raise ValueError("transform grid points must be finite and nonnegative")
    return _estimate(spec, interf_field, s_grid)
