import dataclasses
import functools
import importlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.stats import qmc

import clustercov as cc
import clustercov.mc as mc
from clustercov import field, oracles
from clustercov.coverage import (
    BoundSide,
    CoverageResult,
    Method,
    Ordered,
    Scenario,
    Unordered,
)
from clustercov.config import build_sweep
from clustercov.laplace import laplace_intra
from clustercov.mc import InterferenceField, SimSpec, estimate_coverage, estimate_laplace
from clustercov.metrics import ase_ee
from clustercov.params import FixedSize, NetworkConfig, PoissonSize

from conftest import BASE_DENSITY, reference_link


def make_spec(link=None, scenario=None, trials=4000, seed=21, gammas=(0.1,), window=20000.0,
              **kw):
    link = link or reference_link()
    scenario = scenario or Scenario(Unordered(), FixedSize(6))
    return SimSpec(
        config=NetworkConfig(link=link, window_radius=window),
        scenario=scenario,
        trials=trials,
        seed=seed,
        gamma_grid=gammas,
        **kw,
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record every kernel call's arguments, passing through to the kernel."""
    calls = {"intra_fading": [], "radial_sums": [], "inter_sums": []}
    for name, log in calls.items():
        def recorder(*args, _kernel=getattr(mc, name), _log=log):
            _log.append(args)
            return _kernel(*args)

        monkeypatch.setattr(mc, name, recorder)
    return calls


def run_clusters(calls):
    """(load, seg_start) of each run's typical clusters, from its ``intra_fading`` calls.

    A run's value pass calls the kernel once per block of grid rows, every
    time with the same load array.
    """
    runs = []
    for load, seg_start, *_ in calls["intra_fading"]:
        if not runs or load is not runs[-1][0]:
            runs.append((load, seg_start))
    return runs


def typical_nodes(calls):
    """(load, trial) of every typical-cluster node, chunks joined."""
    loads, trials, offset = [], [], 0
    for load, seg_start in run_clusters(calls):
        sizes = np.diff(seg_start, append=len(load))
        loads.append(load)
        trials.append(np.repeat(np.arange(len(seg_start)), sizes) + offset)
        offset += len(seg_start)
    return np.concatenate(loads), np.concatenate(trials)


def net_points(trials, chunk_trials):
    """The engine's replicate length N: the largest power of two up to 64, chunk_trials and
    trials / 16, or 1 where trials / 16 is below 1."""
    n = 1
    while 2 * n <= min(64, chunk_trials, trials / 16):
        n *= 2
    return n


def replay_sizes(words, size, n, points):
    """(sizes, size uniforms V) of the engine's typical clusters, from a chunk's net words.

    A Poisson size is the typical node plus J ~ Poisson(nbar - 1) given
    J >= 1: V is dimension 0 of each replicate's net, and J is the first j
    whose CDF (SciPy's, not the engine's table) exceeds w0 + V (1 - w0),
    with w0 = exp(-(nbar - 1)).  A fixed size and nbar = 1 have no J (V is
    None).
    """
    if isinstance(size, FixedSize):
        return np.full(n, size.n, dtype=np.int64), None
    if size.mean == 1.0:
        return np.ones(n, dtype=np.int64), None
    mu = size.mean - 1.0
    w0 = math.exp(-mu)
    v = replay_net_dims(words, n, points, 0, 1)[:, 0]
    cdf = stats.poisson.cdf(np.arange(math.ceil(mu + 20.0 * math.sqrt(mu)) + 40), mu)
    return 1 + np.searchsorted(cdf, w0 + v * (1.0 - w0), side="right"), v


def replay_cluster(rng, size, n, points):
    """(sizes, V, node uniforms) of a chunk's typical clusters, replayed from its stream.

    The stream holds the nets' scramble words first (``replay_words``),
    then plain uniforms for node dimensions past the table.  The node
    uniforms are the (n, largest size) net dimensions after J's: column j
    is node j's (r / a)**2, where the trial has a node j.
    """
    words = replay_words(rng, n, points)
    sizes, v = replay_sizes(words, size, n, points)
    first = 0 if v is None else 1
    return sizes, v, replay_net_dims(words, n, points, first, int(sizes.max()), rng)


def replayed_radii(spec, calls):
    """[(radii, seg_start, V, node uniforms)] of every coverage chunk's typical cluster.

    The kernel sees a run of contiguous chunks at once (``run_clusters``);
    each run is split into its chunks by ``_chunk_sizes``, and each
    chunk's draws are replayed from its own stream (``replay_cluster``)
    and checked against the kernel's sizes and loads bit for bit: 0 at one
    node per trial, the typical one, and (p_x / p_x0) (r_typ / rho)**alpha
    at every other node.  Needs one worker, so that the kernel calls come
    in chunk order.
    """
    link, size = spec.config.link, spec.scenario.size_model
    points = net_points(spec.trials, spec.chunk_trials)
    chunks = enumerate(mc._chunk_sizes(spec.trials, spec.chunk_trials))
    out = []
    for run_load, run_seg_start in run_clusters(calls):
        node_ends = np.append(run_seg_start, len(run_load))
        start = 0
        while start < len(run_seg_start):
            index, n = next(chunks)
            lo, hi = node_ends[start], node_ends[start + n]
            load, seg_start = run_load[lo:hi], run_seg_start[start:start + n] - lo
            start += n
            sizes = np.diff(seg_start, append=len(load))
            rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed,
                                                               spawn_key=(index,)))
            replayed, v, u = replay_cluster(rng, size, n, points)
            assert np.array_equal(replayed, sizes)
            r = link.a * np.sqrt(np.concatenate([u[t, :k] for t, k in enumerate(sizes)]))
            trial = np.repeat(np.arange(n), sizes)
            typical = np.flatnonzero(load == 0.0)
            assert np.array_equal(trial[typical], np.arange(n))
            want = (r[typical][trial] / r) ** link.alpha
            want *= link.p_x / link.p_x0
            want[typical] = 0.0
            assert np.array_equal(load, want)
            out.append((r, seg_start, v, u))
    assert next(chunks, None) is None
    return out


def isolated_spec(size, ordering=None, trials=4000, **kw):
    link = reference_link(lambda_g=0.0, lambda_co=0.0)
    return make_spec(
        link=link, scenario=Scenario(ordering or Unordered(), size),
        trials=trials, workers=1, **kw,
    )


class CoarseDraws:
    """A generator whose draws are coarse: no zero, many ties.

    Net words keep their top four binary digits, and a shift (a row's
    first word) also takes digit 4, so that a net of up to 16 points holds
    odd multiples of 1/32 alone; plain uniforms are rounded to odd
    eighths.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kw):
        words = self._rng.integers(*args, **kw)
        words >>= np.uint64(48)
        words <<= np.uint64(48)
        words[..., 0] |= np.uint64(1 << 47)
        return words

    def random(self, *args, **kw):
        return (np.floor(4.0 * self._rng.random(*args, **kw)) + 0.5) / 4.0

    def __getattr__(self, name):
        return getattr(self._rng, name)


NET_BITS = 52


def replay_words(rng, n, points):
    """A chunk's net scramble words, drawn as the engine draws them: one ``integers`` call of
    52-bit words, per tabled dimension (64) and replicate the digital shift and then the
    m = log2(points) scramble columns."""
    m = points.bit_length() - 1
    size = (64, -(-n // points), m + 1)
    return rng.integers(0, 1 << NET_BITS, size=size, dtype=np.uint64)


def replay_net_dims(words, n, points, first, count, rng=None):
    """The engine's scrambled-net uniforms, rebuilt one dimension at a time over GF(2).

    The generator matrix C (digit i of column k of m_(d, k) 2**-(k + 1))
    is multiplied by the lower-triangular unit-diagonal matrix L whose
    column k takes word k's digits below the diagonal, and point i's
    digits are (L C bits(i) + shift) mod 2, read as a binary fraction.
    Dimensions past the 64 tabled ones are plain uniforms from ``rng``.
    """
    m = points.bit_length() - 1
    replicates = words.shape[1]
    tabled = min(count, max(64 - first, 0))
    place = np.arange(NET_BITS - 1, -1, -1, dtype=np.uint64)
    digits = ((words[..., None] >> place) & np.uint64(1)).astype(np.int64)  # MSB first
    index_bits = (np.arange(points)[:, None] >> np.arange(m)) & 1  # (point, k)
    weights = 2.0 ** -np.arange(1, NET_BITS + 1)
    u = np.empty((replicates * points, count))
    for j in range(tabled):
        d = first + j
        direction = [int(v) for v in mc._SOBOL_M[d, :m]]
        gen = np.array([[(direction[k] >> (k - i)) & 1 if i <= k else 0 for k in range(m)]
                        for i in range(NET_BITS)], dtype=np.int64)
        lower = np.zeros((replicates, NET_BITS, m), dtype=np.int64)
        for k in range(m):
            lower[:, k, k] = 1
            lower[:, k + 1:, k] = digits[d, :, k + 1, k + 1:]
        scrambled = lower @ gen[:m] % 2  # (replicate, digit, column)
        point_digits = (index_bits @ scrambled.transpose(0, 2, 1) + digits[d, :, None, 0]) % 2
        u[:, j] = (point_digits @ weights).reshape(-1)
    u = u[:n]
    if tabled < count:
        u[:, tabled:] = rng.random((n, count - tabled))
    return u


def is_net(x, y):
    """Whether the 2**m points (x, y) hold one point in each elementary box of area 2**-m."""
    k = len(x)
    m = k.bit_length() - 1
    assert k == 1 << m
    return all(
        len(set(zip(np.floor(x * 2**a).tolist(), np.floor(y * 2 ** (m - a)).tolist()))) == k
        for a in range(m + 1)
    )


def replicate_stderr(chunks, replicate):
    """sqrt(m / (m - 1) * sum (S_j - k_j mean)**2) / n over the replicates of every chunk.

    ``chunks`` holds each chunk's per-trial values; replicates are runs of
    ``replicate`` consecutive trials that restart at every chunk.  Computed
    in two passes with exactly rounded sums, as a reference for the
    engine's two-pass reduction of the chunks' replicate sums.
    """
    n = sum(len(values) for values in chunks)
    mean = math.fsum(np.concatenate(chunks)) / n
    groups = [values[i:i + replicate] for values in chunks for i in range(0, len(values), replicate)]
    m = len(groups)
    spread = math.fsum((math.fsum(g) - len(g) * mean) ** 2 for g in groups)
    return math.sqrt(m / (m - 1) * spread) / n


def noise_limited_values(link, r, gamma):
    """Each lone-node trial's conditional coverage exp(-gamma r^alpha sigma2 / (p_x0 eta))."""
    return np.exp(-gamma * r**link.alpha * link.sigma2 / (link.p_x0 * link.eta))


def stable_sort_pick(rng, size, link, n, points, rank=None):
    """(r_typ, load, tied) of the rank-th closest node (None: the farthest) by a stable sort.

    The same draws as the engine, sorted by (trial, radius).  ``tied``
    counts the trials whose picked radius is also attained by a node the
    sort puts next to it.
    """
    sizes, _, u = replay_cluster(rng, size, n, points)
    trial = np.repeat(np.arange(n, dtype=np.intp), sizes)
    r = link.a * np.sqrt(np.concatenate([u[t, :k] for t, k in enumerate(sizes)]))
    order = np.lexsort((r, trial))
    ends = np.cumsum(sizes)
    position = ends - 1 if rank is None else ends - sizes + rank - 1
    typical = order[position]
    sorted_r = np.append(r[order], np.nan)  # nan: no node after the last one
    before = (position > ends - sizes) & (sorted_r[position - 1] == sorted_r[position])
    after = (position < ends - 1) & (sorted_r[position + 1] == sorted_r[position])
    tied = int(np.count_nonzero(before | after))
    load = (r[typical][trial] / r) ** link.alpha
    load *= link.p_x / link.p_x0
    load[typical] = 0.0
    return r[typical], load, tied


class TestEngineSampling:
    """The engine's draws, observed at the kernel seam."""

    def test_typical_radii_uniform_on_disc(self, kernel_calls):
        spec = isolated_spec(FixedSize(6))
        estimate_coverage(spec)
        r = np.concatenate([radii for radii, *_ in replayed_radii(spec, kernel_calls)])
        a = reference_link().a
        assert len(r) == 6 * 4000
        assert r.max() <= a
        # r^2 / a^2 is uniform on (0, 1) for uniform placement on the disc
        observed, _ = np.histogram((r / a) ** 2, bins=20, range=(0.0, 1.0))
        assert stats.chisquare(observed).pvalue > 0.01

    @pytest.mark.parametrize(
        "ordering, size",
        [
            (Unordered(), FixedSize(6)),
            (Ordered(2), FixedSize(6)),
            (Unordered(), PoissonSize(3.0)),
            (Ordered(), PoissonSize(3.0)),
        ],
        ids=lambda v: repr(v),
    )
    def test_one_typical_node_per_trial(self, kernel_calls, ordering, size):
        # the typical node enters the in-cluster product with zero load
        estimate_coverage(isolated_spec(size, ordering, trials=1500))
        load, trial = typical_nodes(kernel_calls)
        zeros = np.bincount(trial[load == 0.0], minlength=1500)
        assert np.all(zeros == 1)

    @pytest.mark.parametrize(
        "k, column", [(1, 0), (2, 1), (None, 4)], ids=["k1", "k2", "farthest"]
    )
    def test_ordered_typical_is_kth_closest(self, kernel_calls, k, column):
        spec = isolated_spec(FixedSize(5), Ordered(k), trials=1000)
        estimate_coverage(spec)
        r = np.concatenate([radii for radii, *_ in replayed_radii(spec, kernel_calls)])
        load, _ = typical_nodes(kernel_calls)
        r, load = r.reshape(-1, 5), load.reshape(-1, 5)
        assert np.array_equal(r[load == 0.0], np.sort(r, axis=1)[:, column])
        # the closer nodes' loads exceed p_x / p_x0, the farther ones' do not
        closer = load > spec.config.link.p_x / spec.config.link.p_x0
        assert np.array_equal(closer.sum(axis=1), np.full(1000, column))

    @pytest.mark.parametrize(
        "size",
        [FixedSize(1), FixedSize(6), FixedSize(70), PoissonSize(1.0), PoissonSize(6.0),
         PoissonSize(30.0), PoissonSize(80.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_farthest_pick_matches_stable_sort(self, size, ties):
        # the farthest node is the one a stable sort by (trial, radius) puts
        # last in its trial; coarse net words (a few digits per point)
        # force ties at the top.  70 nodes, and a Poisson mean of 80, reach
        # past the 64 tabled net dimensions into plain uniforms
        link = reference_link()
        tied = 0
        for seed in range(4):
            rngs = [(CoarseDraws if ties else np.random.default_rng)(seed) for _ in range(2)]
            r_typ, load, *_ = mc._typical_cluster(
                [rngs[0]], Scenario(Ordered(), size), link, mc._size_law(size), [512], 16,
            )
            ref_r_typ, ref_load, ref_tied = stable_sort_pick(rngs[1], size, link, 512, 16)
            assert np.array_equal(r_typ, ref_r_typ)
            assert np.array_equal(load, ref_load)
            tied += ref_tied
        # a lone node cannot tie; every other size must really exercise the tie rule
        can_tie = ties and size not in (FixedSize(1), PoissonSize(1.0))
        assert (tied > 0) == can_tie

    @pytest.mark.parametrize(
        "n, k", [(1, 1), (2, 1), (2, 2), (6, 1), (6, 2), (6, 6), (10, 1), (10, 2), (10, 10)]
    )
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_ranked_pick_matches_stable_sort(self, n, k, ties):
        # the k-th closest node is the one a stable sort by (trial, radius)
        # puts k-th in its trial, ties included, for full and short
        # replicates alike
        link = reference_link()
        scenario = Scenario(Ordered(k), FixedSize(n))
        tied = 0
        for seed in range(2):
            for trials in (512, 488, 5):
                rngs = [(CoarseDraws if ties else np.random.default_rng)(seed) for _ in range(2)]
                r_typ, load, *_ = mc._typical_cluster(
                    [rngs[0]], scenario, link, mc._size_law(FixedSize(n)), [trials], 16,
                )
                ref_r_typ, ref_load, ref_tied = stable_sort_pick(
                    rngs[1], FixedSize(n), link, trials, 16, k
                )
                assert np.array_equal(r_typ, ref_r_typ)
                assert np.array_equal(load, ref_load)
                tied += ref_tied
        assert (tied > 0) == (ties and n > 1)

    def test_poisson_typical_cluster_size(self, kernel_calls):
        # one typical node plus J ~ Poisson(nbar - 1) in-cluster interferers,
        # drawn given J >= 1: the lone-node stratum J = 0 is taken exactly,
        # with the weight w0 = P(J = 0)
        trials, nbar = 20000, 3.0
        estimate_coverage(isolated_spec(PoissonSize(nbar), trials=trials))
        _, trial = typical_nodes(kernel_calls)
        interferers = np.bincount(trial, minlength=trials) - 1
        assert interferers.min() >= 1
        hi = 8
        observed = np.bincount(np.minimum(interferers, hi), minlength=hi + 1)[1:]
        pmf = stats.poisson.pmf(np.arange(1, hi + 1), nbar - 1.0)
        pmf[-1] = stats.poisson.sf(hi - 1, nbar - 1.0)
        assert stats.chisquare(observed, pmf / pmf.sum() * trials).pvalue > 0.01
        w0 = math.exp(-(nbar - 1.0))
        assert mc._size_law(PoissonSize(nbar))[0] == pytest.approx(w0, rel=1e-15)
        # without noise or other fields a threshold no interferer lets
        # through leaves the lone stratum alone: coverage w0, no spread
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        spec = make_spec(link=link, scenario=Scenario(Unordered(), PoissonSize(nbar)),
                         trials=512, gammas=(1e250,))
        (est,) = estimate_coverage(spec)
        assert est.mean == pytest.approx(w0, rel=1e-14)
        assert est.stderr <= 1e-14 * w0

    def test_poisson_sizes_fill_their_strata(self, kernel_calls):
        # 100-trial chunks of 1,000 trials: nets of 32 points, so three full
        # replicates and a short one of 4, the first 4 points of its net; in
        # each, the size uniforms V take one stratum apiece, and (V, node
        # 0's uniform) is a two-dimensional net: J is dimension 0 of the
        # net whose dimension 1 is node 0, not a copy of node 0's digits
        nbar = 6.0
        spec = isolated_spec(PoissonSize(nbar), Ordered(), trials=1000, chunk_trials=100)
        points = net_points(1000, 100)
        assert points == mc._net_points(spec) == 32
        estimate_coverage(spec)
        w0 = math.exp(-(nbar - 1.0))
        groups = 0
        for r, seg_start, v, u in replayed_radii(spec, kernel_calls):
            interferers = np.diff(seg_start, append=len(r)) - 1
            for start in range(0, len(seg_start), points):
                k = min(points, len(seg_start) - start)
                assert np.array_equal(np.sort(np.floor(v[start:start + k] * k)), np.arange(k))
                assert is_net(v[start:start + k], u[start:start + k, 0])
                # J does not decrease in V, so the i-th smallest J lies
                # between the J >= 1 law's quantiles at stratum i's ends
                quantiles = stats.poisson.ppf(w0 + np.arange(k + 1) / k * (1.0 - w0), nbar - 1.0)
                j = np.sort(interferers[start:start + k])
                assert np.all((quantiles[:-1] <= j) & (j <= quantiles[1:]))
                groups += 1
        assert groups == 10 * 4

    @pytest.mark.parametrize("mean", [1.0 + 1e-9, 1.5, 6.0, 30.0, 800.0])
    def test_interferer_law_matches_scipy(self, mean):
        # the law's CDF is the Poisson(mean - 1) CDF, built from logs so that
        # it keeps its digits where exp(-(mean - 1)) underflows (800), and
        # w0 is its first point, SciPy's P(J = 0)
        w0, cdf = mc._size_law(PoissonSize(mean))
        want = stats.poisson.cdf(np.arange(len(cdf)), mean - 1.0)
        np.testing.assert_allclose(cdf, want, rtol=1e-12, atol=1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-13)  # the running sum's rounding
        assert w0 == cdf[0]
        assert w0 == pytest.approx(stats.poisson.pmf(0, mean - 1.0), rel=1e-12, abs=1e-15)

    def test_size_law_edges(self):
        # nbar = 1: every typical node is alone, no J is read from the net
        # (its words are not even looked at) and no lone term is mixed in
        assert mc._size_law(FixedSize(6)) == mc._size_law(PoissonSize(1.0)) == (0.0, None)
        sizes = mc._typical_sizes(None, PoissonSize(1.0), (0.0, None),
                                  mc._replicate_lengths(512, 32))
        assert np.array_equal(sizes, np.ones(512))
        # past nbar - 1 of about 745, w0 underflows to 0 and the plain CDF is
        # inverted
        law = mc._size_law(PoissonSize(800.0))
        assert law[0] == 0.0
        words = mc._net_words(np.random.default_rng(3), 4096, 256, 1)
        sizes = mc._typical_sizes(words, PoissonSize(800.0), law, mc._replicate_lengths(4096, 256))
        assert abs(sizes.mean() - 800.0) <= 4.0 * math.sqrt(799.0 / 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = estimate_coverage(isolated_spec(PoissonSize(800.0), Ordered(), trials=64,
                                                   gammas=(1e-4, 0.1)))
        assert 1.0 > ests[0].mean > ests[1].mean > 0.0

    def test_coverage_draws_the_typical_cluster_alone(self, kernel_calls):
        # the other clusters and the coexisting nodes enter coverage by their
        # exact transform over the whole window: no sampler runs, and each
        # chunk's stream holds the typical cluster's draws alone
        spec = make_spec(scenario=Scenario(Ordered(), PoissonSize(6.0)), trials=1000,
                         workers=1, gammas=(0.1, 1.0))
        estimate_coverage(spec)
        assert kernel_calls["inter_sums"] == [] and kernel_calls["radial_sums"] == []
        assert len(replayed_radii(spec, kernel_calls)) == 2

    def test_parent_count_matches_window_mean(self, kernel_calls):
        # the transforms draw the near disc: lambda_g * pi * R0**2 parents
        # per trial (0.4 for the reference density at R0 = 2 a = 1 km)
        trials = 500
        spec = make_spec(trials=trials, workers=1)
        estimate_laplace(spec, InterferenceField.INTER, (1e9,))
        parents = sum(len(args[0]) for args in kernel_calls["inter_sums"])
        near = mc._near_radius(spec.config)
        assert near < spec.config.window_radius
        expected = BASE_DENSITY * math.pi * near**2
        stderr = math.sqrt(expected / trials)
        assert abs(parents / trials - expected) <= 3.0 * stderr

    def test_cross_cluster_support(self, kernel_calls):
        # parents and coexisting nodes are drawn inside the near disc alone
        spec = make_spec(trials=500, workers=1)
        for field in (InterferenceField.INTER, InterferenceField.COEXIST):
            estimate_laplace(spec, field, (1e9,))
        near = mc._near_radius(spec.config)
        assert near < spec.config.window_radius
        assert kernel_calls["inter_sums"] and kernel_calls["radial_sums"]
        for parent_r, _, _, off_r, off_th, *_ in kernel_calls["inter_sums"]:
            assert np.all((parent_r >= 0.0) & (parent_r <= near))
            assert np.all((off_r >= 0.0) & (off_r <= spec.config.link.a))
            assert np.all((off_th >= 0.0) & (off_th < 2.0 * math.pi))
        for r, *_ in kernel_calls["radial_sums"]:
            assert np.all((r >= 0.0) & (r <= near))

    def test_cross_cluster_poisson_sizes(self, kernel_calls):
        # clusters other than the typical one hold Poisson(nbar) nodes
        spec = make_spec(scenario=Scenario(Unordered(), PoissonSize(6.0)), trials=300, workers=1)
        estimate_laplace(spec, InterferenceField.INTER, (1e9,))
        sizes = np.concatenate([
            np.bincount(node_parent, minlength=len(parent_r))
            for parent_r, _, node_parent, *_ in kernel_calls["inter_sums"]
        ])
        hi = 16
        observed = np.bincount(np.minimum(sizes, hi), minlength=hi + 1)
        pmf = stats.poisson.pmf(np.arange(hi + 1), 6.0)
        pmf[hi] = 1.0 - pmf[:hi].sum()
        assert stats.chisquare(observed, pmf * len(sizes)).pvalue > 0.01

    def test_noise_limited_trace_sinr(self, kernel_calls):
        # one node, no interferers: SINR = p_x0 eta h r^-alpha / sigma2 with r
        # replayed from the chunk's stream and h an exponential fading draw;
        # the 0/1 indicator of that SINR estimates the same coverage p, with
        # the larger binomial variance p (1 - p), taken at the estimate (at
        # -10 dB, p = 0.997, all 300 indicators can be 1 and their sample
        # variance 0)
        gammas = (0.1, 10.0, 100.0)
        spec = isolated_spec(FixedSize(1), trials=300, seed=21, gammas=gammas)
        ests = estimate_coverage(spec)
        assert kernel_calls["inter_sums"] == []
        assert kernel_calls["radial_sums"] == []  # no coexistence call either
        # the lone node is the typical one and does not interfere with itself
        ((r, *_),) = replayed_radii(spec, kernel_calls)
        link = spec.config.link
        h = np.random.default_rng(2021).exponential(1.0, size=300)
        sinr = link.p_x0 * link.eta * h * r**-link.alpha / link.sigma2
        for gamma, est in zip(gammas, ests):
            assert est.mean == pytest.approx(noise_limited_values(link, r, gamma).mean(), rel=1e-14)
            indicator = (sinr >= gamma).astype(float)
            indicator_stderr = math.sqrt(est.mean * (1.0 - est.mean) / 300)
            assert abs(indicator.mean() - est.mean) <= 3.0 * indicator_stderr
            assert est.stderr < indicator_stderr

    def test_noise_limited_conditional_coverage(self, kernel_calls):
        # one node, no interferers: each trial contributes
        # exp(-gamma r^alpha sigma2 / (p_x0 eta)), and the estimate is the
        # mean of those values with the standard error of its replicate sums
        # (300 trials: nets of 16 points)
        gamma = 0.1
        spec = isolated_spec(FixedSize(1), trials=300, seed=21, gammas=(gamma,))
        (est,) = estimate_coverage(spec)
        assert kernel_calls["inter_sums"] == []
        assert kernel_calls["radial_sums"] == []  # no coexistence call either
        # the net's radius draws come first in the chunk's stream
        ((r, *_),) = replayed_radii(spec, kernel_calls)
        values = noise_limited_values(spec.config.link, r, gamma)
        assert est.mean == pytest.approx(values.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(replicate_stderr([values], 16), rel=1e-12)


class TestScrambledNet:
    """The typical cluster's generator: one scrambled Sobol' net per replicate."""

    @pytest.mark.parametrize("m", range(9))
    def test_unscrambled_net_matches_scipy(self, m):
        # every tabled dimension's first 2**m points, as a point set, against
        # SciPy's unscrambled Sobol' net (its direction numbers are the
        # source of the table): zero words are the identity scramble and no
        # shift
        dims = len(mc._SOBOL_M)
        assert dims == 64
        words = np.zeros((dims, 1, m + 1), dtype=np.uint64)
        u = mc._net_dims(words, np.array([1 << m]), 0)
        want = qmc.Sobol(dims, scramble=False).random_base2(m)
        assert np.array_equal(u[np.lexsort(u.T[::-1])], want[np.lexsort(want.T[::-1])])

    @pytest.mark.parametrize("points", [1, 2, 16, 256])
    @pytest.mark.parametrize("first, count", [(0, 6), (1, 15), (60, 7)])
    def test_matches_gf2_replay(self, points, first, count):
        # the engine's words and XOR doubling against the digit-by-digit
        # matrix product, bit for bit, full and short replicates, up to the
        # table's last dimension (``_typical_cluster`` draws the dimensions
        # past it as plain uniforms: see test_farthest_pick_matches_stable_sort)
        n = 3 * points + points // 2 + 1
        tabled = min(count, 64 - first)
        words = mc._net_words(np.random.default_rng(7), n, points, len(mc._SOBOL_M))
        u = mc._net_dims(words[first:first + tabled], mc._replicate_lengths(n, points), first)
        want = replay_net_dims(replay_words(np.random.default_rng(7), n, points), n, points,
                               first, tabled)
        assert np.array_equal(u, want)

    @staticmethod
    def logged_draws(size, n=512, points=256):
        """The typical cluster's draws, in order: (method, shape drawn) per call, and the
        cluster sizes."""
        log = []

        class Logged:
            def __init__(self):
                self._rng = np.random.default_rng(2)

            def __getattr__(self, name):
                draw = getattr(self._rng, name)

                def logged(*args, **kw):
                    out = draw(*args, **kw)
                    log.append((name, out.shape))
                    return out
                return logged

        _, load, seg_start, _ = mc._typical_cluster([Logged()], Scenario(Ordered(), size),
                                                    reference_link(), mc._size_law(size), [n],
                                                    points)
        return log, np.diff(seg_start, append=len(load))

    @pytest.mark.parametrize(
        "size, calls",
        [(FixedSize(6), ["integers"]), (PoissonSize(1.0), ["integers"]),
         (FixedSize(70), ["integers", "random"])],
        ids=repr,
    )
    def test_words_come_first_in_one_draw(self, size, calls):
        # without a drawn size a chunk draws its net words in one call
        # before any point is built, for the node dimensions alone: 6, or
        # the whole table's 64, past which 70 nodes draw uniforms after it
        log, sizes = self.logged_draws(size)
        assert [name for name, _ in log] == calls
        assert log[0][1] == (min(sizes.max(), 64), 2, 9)
        if len(calls) == 2:
            assert log[1][1] == (512, sizes.max() - 64)

    @pytest.mark.parametrize("size", [PoissonSize(6.0), PoissonSize(80.0)], ids=repr)
    def test_size_words_come_before_the_node_words(self, size):
        # a drawn size J reads the net's dimension 0, so its words come
        # first, then the node dimensions' words up to the chunk's largest
        # cluster (15 nodes here at a mean of 6), at most the table's other
        # 63; only node dimensions past the table (about 80 nodes) draw
        # uniforms after them.  The words are those of one call for all
        # of these dimensions, as the pinned streams' Poisson rows show
        log, sizes = self.logged_draws(size)
        largest = int(sizes.max())
        past = largest + 1 > 64
        assert [name for name, _ in log] == ["integers"] * 2 + ["random"] * past
        assert log[0][1] == (1, 2, 9)
        assert log[1][1] == (min(largest, 63), 2, 9)
        if past:
            assert log[2][1] == (512, largest - 63)

    @pytest.mark.parametrize("points", [16, 256])
    def test_replicates_are_nets(self, points):
        # one point in each 1 / N stratum of every tabled dimension, and in
        # every elementary box of area 1 / N on dimensions (0, 1)
        replicates, dims, n = 40, 12, 40 * points
        words = mc._net_words(np.random.default_rng(11), n, points, dims)
        u = mc._net_dims(words, mc._replicate_lengths(n, points), 0)
        for rep in u.reshape(replicates, points, dims):
            strata = np.sort(np.floor(rep * points), axis=0)
            assert (strata == np.arange(points)[:, None]).all()
            assert is_net(rep[:, 0], rep[:, 1])

    def test_points_are_uniform_and_replicates_independent(self):
        # each point on its own is uniform: its net position carries no
        # information across 4,000 replicates (12 KS tests at a family-wise
        # level of 1e-3), and replicates do not share their scramble (their
        # point sets differ)
        points, replicates = 16, 4000
        n = points * replicates
        words = mc._net_words(np.random.default_rng(5), n, points, 3)
        u = mc._net_dims(words, mc._replicate_lengths(n, points), 0)
        u = u.reshape(replicates, points, 3)
        pvalues = [stats.kstest(u[:, i, d], "uniform").pvalue for i in (0, 1, 7, 15)
                   for d in range(3)]
        assert min(pvalues) > 1e-3 / len(pvalues)
        assert len({rep.tobytes() for rep in np.sort(u[:, :, 0], axis=1)}) == replicates

    @pytest.mark.parametrize(
        "trials, chunk_trials, points",
        [(1, 512, 1), (31, 512, 1), (32, 512, 2), (256, 512, 16), (1024, 512, 64),
         (4096, 512, 64), (1000, 100, 32), (100000, 40, 32), (100000, 3, 2)],
    )
    def test_net_points_rule(self, trials, chunk_trials, points):
        # the largest power of two up to 64, chunk_trials and trials / 16
        spec = make_spec(trials=trials, chunk_trials=chunk_trials)
        assert mc._net_points(spec) == net_points(trials, chunk_trials) == points


class TestStratification:
    """Scrambled-net in-cluster radii and the replicate standard error."""

    @staticmethod
    def strata_by_replicate(spec, kernel_calls):
        """{(chunk, first trial, column): (strata of node uniforms in trial order, width k)}."""
        points = net_points(spec.trials, spec.chunk_trials)
        out = {}
        for chunk, (r, seg_start, _, u) in enumerate(replayed_radii(spec, kernel_calls)):
            n = len(seg_start)
            sizes = np.diff(seg_start, append=len(r))
            trial = np.repeat(np.arange(n), sizes)
            column = np.arange(len(r)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            first = trial - trial % points
            width = np.minimum(n - first, points)
            stratum = np.floor(u[trial, column] * width).astype(int)
            for key in sorted(set(zip(first.tolist(), column.tolist()))):
                mask = (first == key[0]) & (column == key[1])
                out[(chunk,) + key] = (stratum[mask], int(width[mask][0]))
        return out

    def test_every_replicate_column_fills_its_strata(self, kernel_calls):
        # 100-trial chunks of 1,000 trials: nets of 32 points, so three full
        # replicates and a short one of 4 (its net's first 4 points)
        spec = isolated_spec(FixedSize(6), trials=1000, chunk_trials=100)
        estimate_coverage(spec)
        groups = self.strata_by_replicate(spec, kernel_calls)
        assert len(groups) == 10 * 4 * 6
        widths = [width for _, width in groups.values()]
        assert widths.count(4) == 10 * 6 and widths.count(32) == 10 * 3 * 6
        for strata, width in groups.values():
            assert np.array_equal(np.sort(strata), np.arange(width))

    def test_poisson_columns_use_distinct_strata(self, kernel_calls):
        # a trial without node j skips its column-j stratum: present nodes
        # still fall in distinct strata, and column 0 (every trial has it)
        # fills them all
        spec = isolated_spec(PoissonSize(6.0), Ordered(), trials=1000, chunk_trials=100)
        estimate_coverage(spec)
        groups = self.strata_by_replicate(spec, kernel_calls)
        skipped = 0
        for (_, _, column), (strata, width) in groups.items():
            assert len(np.unique(strata)) == len(strata) <= width
            if column == 0:
                assert np.array_equal(np.sort(strata), np.arange(width))
            skipped += width - len(strata)
        assert skipped > 0

    def test_stratified_estimates_independent_of_workers(self):
        # neither trials nor chunk_trials is a multiple of the replicate size
        scenarios = (Scenario(Unordered(), FixedSize(6)), Scenario(Ordered(), PoissonSize(6.0)))
        for scenario in scenarios:
            kw = dict(scenario=scenario, trials=1000, chunk_trials=100, gammas=(0.05, 0.1, 1.0))
            serial = estimate_coverage(make_spec(workers=1, **kw))
            parallel = estimate_coverage(make_spec(workers=2, **kw))
            assert serial == parallel
        # and without a far table or noise: OP-6 takes the size law through
        # the worker pool, up to a threshold where only the lone-node stratum
        # is left
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        for scenario in scenarios:
            kw = dict(link=link, scenario=scenario, trials=1000, chunk_trials=100,
                      gammas=(0.05, 1.0, 1e6, 1e296))
            serial = estimate_coverage(make_spec(workers=1, **kw))
            parallel = estimate_coverage(make_spec(workers=2, **kw))
            assert serial == parallel

    def test_chunks_combine_into_replicate_stderr(self):
        # the replicate sums of ten ragged chunks (nets of 32 points: three
        # full replicates and a short one of 4 per chunk) give the two-pass
        # replicate formula over all of their replicates; at gamma = 0.1 the
        # mean is 0.997, where a one-pass sum of squares would lose the
        # spread's digits
        chunk = 100
        for gamma in (10.0, 0.1):
            spec = isolated_spec(FixedSize(1), trials=1000, seed=5, gammas=(gamma,),
                                 chunk_trials=chunk)
            (est,) = estimate_coverage(spec)
            link = spec.config.link
            chunks = []
            for index in range(10):
                seq = np.random.SeedSequence(entropy=5, spawn_key=(index,))
                rng = np.random.default_rng(seq)
                r = link.a * np.sqrt(replay_cluster(rng, FixedSize(1), chunk, 32)[2][:, 0])
                chunks.append(noise_limited_values(link, r, gamma))
            values = np.concatenate(chunks)
            assert est.mean == pytest.approx(values.mean(), rel=1e-14)
            assert est.stderr == pytest.approx(replicate_stderr(chunks, 32), rel=1e-12)
            # a lone node's coverage is monotone in its one stratified radius
            assert est.stderr < 0.2 * values.std(ddof=1) / math.sqrt(1000)

    @pytest.mark.parametrize("trials", [1, 2, 5, 16, 17, 31, 32])
    def test_single_replicate_rule(self, trials):
        # a request of fewer than 32 trials would keep fewer than 16
        # replicates of two or more points, so it is drawn i.i.d., in
        # replicates of one trial (N = 1): its standard error is the usual
        # one (0.0 for a single trial) and never that of a few replicates;
        # 32 trials form 16 nets of 2 points
        gamma = 10.0
        spec = isolated_spec(FixedSize(1), trials=trials, seed=8, gammas=(gamma,))
        (est,) = estimate_coverage(spec)
        points = net_points(trials, spec.chunk_trials)
        assert points == (2 if trials == 32 else 1)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(0,)))
        link = spec.config.link
        u = replay_cluster(rng, FixedSize(1), trials, points)[2][:, 0]
        values = noise_limited_values(link, link.a * np.sqrt(u), gamma)
        assert est.mean == pytest.approx(values.mean(), rel=1e-14)
        if trials == 1:
            assert est.stderr == 0.0
        else:
            assert est.stderr == pytest.approx(replicate_stderr([values], points), rel=1e-12)
        if 2 <= trials < 32:
            assert est.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(trials), rel=1e-12)

    @pytest.mark.parametrize("interf_field", [InterferenceField.INTER, InterferenceField.COEXIST])
    def test_unstratified_transforms_use_single_trial_replicates(self, interf_field):
        # INTER and COEXIST draw no in-cluster radii, so their trials are
        # i.i.d. and the standard error is the usual one over all n trials
        s_grid, chunk = (0.0, 1e6, 1e9), 100
        spec = make_spec(trials=3 * chunk, seed=9, chunk_trials=chunk, workers=1)
        estimates = estimate_laplace(spec, interf_field, s_grid)
        link, radius = spec.config.link, mc._near_radius(spec.config)
        near = []
        for index in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(index,)))
            if interf_field is InterferenceField.INTER:
                near.append(mc._cross_clusters(rng, spec.scenario, link, radius, chunk))
            else:
                near.append(mc._coexisting(rng, link, radius, chunk))
        s = np.array(s_grid)[:, None]
        values = np.exp(-s * np.concatenate(near) - field_exponents(spec, radius, s)[interf_field])
        assert estimates[0].stderr == 0.0
        for est, row in zip(estimates, values):
            assert est.mean == pytest.approx(row.mean(), rel=1e-14)
            assert est.stderr == pytest.approx(row.std(ddof=1) / math.sqrt(3 * chunk), rel=1e-12)


class TestStderrCalibration:
    """The replicate standard error is neither optimistic nor pessimistic.

    On a link without other clusters or coexisting nodes the exact integral
    is the model's coverage, so z = (estimate - exact) / stderr is pure
    sampling noise.  With m = 16 replicates per 256-trial run, z follows
    Student's t with m - 1 degrees of freedom (replicate sums near normal),
    not N(0, 1): E[z**2] = 15 / 13.  Each z is therefore mapped to its
    normal score through that t law, and the mean square of the scores over
    the seeds must fall inside the 99.9 % band of chi-square(seeds) / seeds.
    """

    SEEDS = 400
    TRIALS = 256

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(Unordered(), FixedSize(6)), Scenario(Unordered(), PoissonSize(6.0)),
         Scenario(Ordered(), FixedSize(6)), Scenario(Ordered(), PoissonSize(6.0))],
        ids=["UF-6", "UP-6", "OF-6", "OP-6"],
    )
    def test_mean_square_z_in_chi2_band(self, scenario):
        gamma = 0.1
        link = reference_link(lambda_g=0.0, lambda_co=0.0)
        exact = cc.coverage(gamma, scenario, link, method=Method.EXACT_INTEGRAL).value
        z = []
        for seed in range(self.SEEDS):
            spec = make_spec(link=link, scenario=scenario, trials=self.TRIALS, seed=seed,
                             gammas=(gamma,), workers=1)
            (est,) = estimate_coverage(spec)
            z.append((est.mean - exact) / est.stderr)
        dof = self.TRIALS // mc._net_points(spec) - 1
        assert dof == 15
        scores = stats.norm.ppf(stats.t.cdf(z, dof))
        lo, hi = stats.chi2.ppf([0.0005, 0.9995], self.SEEDS) / self.SEEDS
        assert lo <= np.mean(scores**2) <= hi


def field_exponents(spec, inner, s):
    """Each field's exact exponent over (inner, W], keyed by InterferenceField.

    The loads are s p eta, formed as ``mc`` and ``field.far_table`` form
    them, so the values are theirs bit for bit.
    """
    link, size, window = spec.config.link, spec.scenario.size_model, spec.config.window_radius
    s = np.asarray(s, dtype=float)
    return {
        InterferenceField.INTER: field.annulus_exponent(
            s * (link.p_x * link.eta), link.lambda_g, link.a, size, inner, window, link.alpha),
        InterferenceField.COEXIST: field.annulus_exponent(
            s * (link.p_z * link.eta), link.lambda_co, 0.0, FixedSize(1), inner, window,
            link.alpha),
    }


def both_fields(spec, inner, s):
    """Lambda of both fields over (inner, W]: the sum the far table tabulates, bit for bit."""
    inter, coexist = field_exponents(spec, inner, s).values()
    return inter + coexist


@functools.lru_cache(maxsize=None)
def oracle_window_exponent(link, size, window):
    """Lambda_(0, W](s) of both fields, interpolated between nested-quadrature oracle values.

    Four oracle points per decade of s / s_a, s_a = a**alpha / (p_x0 eta),
    from 1e-6 to 10**1.5, joined by a cubic spline in log Lambda against
    log s (within 2e-6 of the oracle between its points on the reference
    link), and below them the s**delta law through the first point (on the
    reference link Lambda is below 5e-4 there, and the law within 2e-7 of
    it).
    Returns a function of an array of s.
    """
    s_a = link.a**link.alpha / (link.p_x0 * link.eta)
    grid = s_a * 10.0 ** (np.arange(-24, 7) / 4.0)
    lam = np.array([TestFarField.oracle_exponent(link, size, 0.0, window, float(s))
                    for s in grid])
    spline = CubicSpline(np.log(grid), np.log(lam))

    def exponent(s):
        inside = np.exp(spline(np.log(np.clip(s, grid[0], grid[-1]))))
        return np.where(s < grid[0], lam[0] * (s / grid[0]) ** link.delta, inside)

    return exponent


def model_coverage(gamma, scenario, link, window):
    """The coverage of the simulated model: a reference for Monte Carlo on any link.

    int f_U(u) min(1, L_intra) e^(-s sigma2) e^(-Lambda_(0, W](s)) du over
    u = r / a, with ``coverage``'s distance density and ``laplace_intra``
    as in the exact integral, and the other clusters and the coexisting
    nodes by their exact transform over the window
    (``oracle_window_exponent``) instead of the paper's bound.
    """
    exponent = oracle_window_exponent(link, scenario.size_model, window)
    rho_scale = gamma / (link.p_x0 * link.eta)

    def integrand(u):
        s = (u * link.a) ** link.alpha * rho_scale
        intra = laplace_intra(u**link.alpha * gamma / link.p_ratio_x, u, link.alpha, scenario)
        return (coverage_module._distance_density(u, scenario) * np.minimum(1.0, intra)
                * np.exp(-s * link.sigma2 - exponent(s)))

    return coverage_module._integrate(integrand, 1e-9)


coverage_module = importlib.import_module("clustercov.coverage")
GAMMAS_16 = tuple(10.0 ** (db / 10.0) for db in range(-20, 11, 2))


# a lone-node tail cell that forcing J = 0 alone does not mend
NEXT_STRATA = pytest.mark.xfail(
    strict=True,
    reason="only J = 0 is forced (rms z 1.53, 3.62 and 8.91 at +4, +8 and +10 dB); the rest "
    "of ROADMAP item 12, forcing J = 1 ... j0 too, is not done: each forced stratum costs the "
    "farthest node a whole threshold-grid evaluation, about +30 % per ordered-Poisson chunk",
)


class TestCalibrationScan:
    """The standard error stays honest into the fading tail.

    On the reference link without other clusters (lambda_g = 0) and with
    the whole plane as window, the exact integral is the model's coverage,
    so z = (estimate - exact) / stderr is pure sampling noise at every
    threshold.  Over 30 seeds of 8,192 trials the mean square of z must stay
    near 1 and no |z| may be large.  Before the in-cluster interferers'
    fading was integrated out, OF-6 failed from +4 dB: every interferer of
    the farthest node is closer to the receiver than the signal, high
    thresholds need all their fading draws small at once, and a few
    thousand trials rarely drew that, so the estimates sat far below exact
    with stderrs that claimed precision (rms z 1.99, 53 and 4,983 and max
    |z| 7.8, 262 and 26,565 at +4, +8 and +10 dB).  The bounds come from the
    other cells of that code: rms z 0.87-1.09, max |z| 3.72.

    ``test_lone_node_tail`` scans the farthest node of a Poisson cluster
    with a mean of 10 at a = 1 km, where most of the high-threshold
    coverage comes from a lone node (J = 0 interferers, probability
    e**-9 = 1.2e-4), which 8,192 drawn trials rarely hold.  While every
    cluster size was drawn, it failed from 0 dB: rms z 1.44, 4.0, 21 and
    85 (max |z| 4.47, 13.8, 78 and 343) at 0, +4, +8 and +10 dB.  With the
    lone-node stratum taken exactly it read rms z 1.28 at 0 dB and 1.89,
    4.36 and 5.17 at +4, +8 and +10 dB under the 16-trial Latin hypercube.
    Under one scrambled Sobol' net per replicate (128 replicates of 64
    trials here, so the stderr has 127 degrees of freedom where the
    hypercube's had 511) it reads rms z 0.96, 0.94 and 1.09 (max |z| 2.16,
    2.58 and 3.37) at -20, -10 and 0 dB, and 1.53, 3.62 and 8.91 (max |z|
    4.76, 9.68 and 23.9) at +4, +8 and +10 dB.  Over 600 other seeds
    (1000-1599) the share of |z| > 3 at +4, +8 and +10 dB is 9 %, 25 % and
    36 % under the nets and 9 %, 25 % and 37 % under the hypercube: the
    rest of that tail comes from the next strata (J = 1, 2, ...), which few
    trials hold whatever draws them, and those three cells are expected
    failures.
    """

    SEEDS = 30
    TRIALS = 8192
    GAMMAS_DB = (-20, -10, 0, 4, 8, 10)
    RMS_Z = (0.7, 1.4)
    MAX_Z = 4.5

    @classmethod
    @functools.lru_cache(maxsize=None)
    def z_scan(cls, scenario, link, window, model):
        """(rms z, max |z|) per threshold of GAMMAS_DB over the seeds.

        z is judged against the exact integral, or with ``model`` against
        ``model_coverage``, which takes the cross-cluster field's exact
        transform from the oracle where the exact integral takes the
        paper's bound.
        """
        gammas = tuple(10.0 ** (db / 10.0) for db in cls.GAMMAS_DB)
        if model:
            reference = np.array([model_coverage(g, scenario, link, window) for g in gammas])
        else:
            reference = np.array(
                [cc.coverage(g, scenario, link, method=Method.EXACT_INTEGRAL).value
                 for g in gammas]
            )
        z = []
        for seed in range(cls.SEEDS):
            spec = make_spec(link=link, scenario=scenario, trials=cls.TRIALS, seed=seed,
                             gammas=gammas, window=window, workers=1)
            ests = estimate_coverage(spec)
            z.append((np.array([e.mean for e in ests]) - reference) / [e.stderr for e in ests])
        z = np.array(z)
        return np.sqrt((z**2).mean(axis=0)), np.abs(z).max(axis=0)

    def bad_cells(self, scenario, dbs, link, window=math.inf, model=False):
        rms, worst = self.z_scan(scenario, link, window, model)
        return [
            f"{db:+d} dB: rms z {rms[i]:.3g}, max |z| {worst[i]:.3g}"
            for i, db in enumerate(self.GAMMAS_DB)
            if db in dbs
            and not (self.RMS_Z[0] <= rms[i] <= self.RMS_Z[1] and worst[i] <= self.MAX_Z)
        ]

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(Unordered(), FixedSize(6)), Scenario(Unordered(), PoissonSize(6.0)),
         Scenario(Ordered(), FixedSize(6)), Scenario(Ordered(), PoissonSize(6.0))],
        ids=["UF-6", "UP-6", "OF-6", "OP-6"],
    )
    def test_z_scan_against_exact(self, scenario):
        bad = self.bad_cells(scenario, self.GAMMAS_DB, reference_link(lambda_g=0.0))
        assert not bad, "; ".join(bad)

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(Unordered(), FixedSize(6)), Scenario(Unordered(), PoissonSize(6.0)),
         Scenario(Ordered(), FixedSize(6)), Scenario(Ordered(), PoissonSize(6.0))],
        ids=["UF-6", "UP-6", "OF-6", "OP-6"],
    )
    def test_z_scan_against_model_with_other_clusters(self, scenario):
        # the reference link itself (lambda_g > 0, W = 20 km): every cell
        # takes the other clusters and the coexisting nodes by their exact
        # transform over the window, checked two-sided against the model's
        # coverage from the nested-quadrature oracle
        bad = self.bad_cells(scenario, self.GAMMAS_DB, reference_link(), 20000.0, model=True)
        assert not bad, "; ".join(bad)

    @pytest.mark.parametrize(
        "db",
        [-20, -10, 0] + [pytest.param(db, marks=NEXT_STRATA) for db in (4, 8, 10)],
        ids=lambda db: f"{db:+d}dB",
    )
    def test_lone_node_tail(self, db):
        bad = self.bad_cells(Scenario(Ordered(), PoissonSize(10.0)), (db,),
                             reference_link(a=1000.0, lambda_g=0.0))
        assert not bad, "OP-10 at a = 1 km: " + "; ".join(bad)


class TestInClusterFactor:
    """The in-cluster interferers' fading, integrated out: prod_j 1 / (1 + t b_j)."""

    @pytest.mark.parametrize(
        "link",
        [reference_link(), reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)],
        ids=["reference", "intra-limited"],
    )
    def test_extreme_thresholds_silent_and_monotone(self, link):
        # up to the reference link's far-table limit (about 1.06e297), where
        # terms and products overflow to inf and the factor goes to its limit 0
        gammas = (0.1, 1.0, 10.0, 1e10, 1e100, 1e200, 1e296, 1e297)
        for scenario in (Scenario(Unordered(), FixedSize(6)), Scenario(Ordered(), FixedSize(6)),
                         Scenario(Ordered(), PoissonSize(6.0))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ests = estimate_coverage(make_spec(link=link, scenario=scenario, trials=512,
                                                   gammas=gammas))
            means = [e.mean for e in ests]
            assert all(0.0 <= m <= 1.0 for m in means)
            assert all(x >= y for x, y in zip(means, means[1:]))
            assert means[0] > means[-1]
            # only a lone node without noise (a Poisson cluster on the
            # intra-limited link) stays covered at any threshold
            if link.sigma2 > 0.0 or isinstance(scenario.size_model, FixedSize):
                assert means[-1] == 0.0

    def test_kernel_loads_near_inf(self):
        # four trials: huge loads, a unit load, a lone node, a tiny load
        big = np.finfo(float).max
        load = np.array([0.0, big, 1e300, 0.0, 1.0, 0.0, 0.0, 1e-300])
        seg_start = np.array([0, 3, 5, 6])
        grid = np.array([0.0, 1e-300, 1e-10, 1.0, 1e300, big])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = mc.intra_fading(load, seg_start, grid, np.ones((len(grid), 4)))
        assert ((values >= 0.0) & (values <= 1.0)).all()
        assert (np.diff(values, axis=0) <= 0.0).all()
        assert (values[0] == 1.0).all()  # t = 0
        assert (values[:, 2] == 1.0).all()  # the lone node
        assert (values[3:, 0] == 0.0).all()  # a product past the float range
        for g, t in enumerate(grid):
            for i, (lo, hi) in enumerate(zip(seg_start, [3, 5, 6, 8])):
                want = 1.0 / math.prod(1.0 + float(t) * float(b) for b in load[lo:hi])
                assert values[g, i] == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("size", [FixedSize(1), PoissonSize(1.0)], ids=repr)
    def test_lone_node_factor_is_one(self, size):
        # a lone typical node has no interferer: every load is 0 and the
        # factor exactly 1 at any threshold
        rng = np.random.default_rng(4)
        for ordering in (Unordered(), Ordered()):
            _, load, seg_start, _ = mc._typical_cluster(
                [rng], Scenario(ordering, size), reference_link(), mc._size_law(size), [512], 32,
            )
            assert len(load) == 512 and not load.any()
            values = rng.uniform(size=(len(GAMMAS_16) + 1, 512))
            grid = np.array(GAMMAS_16 + (1e300,))
            assert np.array_equal(mc.intra_fading(load, seg_start, grid, values.copy()), values)

    @pytest.mark.parametrize(
        "scenario, lone",
        [(Scenario(Unordered(), FixedSize(6)), 0.0), (Scenario(Ordered(), FixedSize(6)), 0.0),
         (Scenario(Unordered(), PoissonSize(6.0)), math.exp(-5.0)),
         (Scenario(Ordered(), PoissonSize(6.0)), math.exp(-5.0)),
         (Scenario(Unordered(), FixedSize(1)), 1.0)],
        ids=["UF-6", "OF-6", "UP-6", "OP-6", "UF-1"],
    )
    def test_intra_transform_unit_at_zero_s(self, scenario, lone):
        # coverage on a link without other fields or noise is the in-cluster
        # transform at s = gamma r**alpha / (p_x0 eta), averaged over the
        # typical link: exactly 1 as s goes to 0 (at gamma = 1e-300 every
        # factor 1 + gamma b_j rounds to 1) and, at huge loads, only a lone
        # typical node is left (at gamma = 1e296 the terms and products
        # overflow to inf, silently): the Poisson size's exact lone stratum,
        # w0 = e**-5, with no spread, and nothing for a fixed size above one
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        spec = make_spec(link=link, scenario=scenario, trials=1000,
                         gammas=(1e-300, 1e3, 1e296))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = estimate_coverage(spec)
        assert (ests[0].mean, ests[0].stderr) == (1.0, 0.0)
        assert 1.0 >= ests[1].mean >= ests[2].mean >= 0.0
        if lone in (0.0, 1.0):
            assert (ests[2].mean, ests[2].stderr) == (lone, 0.0)
        else:
            assert ests[2].mean == pytest.approx(lone, rel=1e-14)
            assert ests[2].stderr <= 1e-14 * lone




class TestFarField:
    """The exact transforms of the other clusters and the coexisting nodes (``field``).

    Coverage takes both fields over the whole window (0, W] from a table;
    a transform request draws its field in the near disc and takes the
    annulus (R0, W] exactly.
    """

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def oracle_exponent(link, size, inner, outer, s):
        """-log of both fields' exact transforms over (inner, outer], by nested quadrature."""
        inter = oracles.inter_pgfl_integral(
            s * link.p_x * link.eta, link.lambda_g, link.a, link.alpha, size, inner, outer
        )
        coexist = oracles.inter_pgfl_integral(
            s * link.p_z * link.eta, link.lambda_co, 0.0, link.alpha, FixedSize(1), inner, outer
        )
        return -math.log(inter) - math.log(coexist)

    def check_against_oracle(self, spec, direct_bound, table_bound):
        """The coverage table and both direct rules against the oracle at the request's s.

        Up to gamma = 10 dB at r = a, and below the table's floor too
        (s_top 1e-8), where only the small-s law is right.
        """
        link, size = spec.config.link, spec.scenario.size_model
        window = spec.config.window_radius
        table = mc._far_table(spec)
        assert table is not None
        s_top = GAMMAS_16[-1] * link.a**link.alpha / (link.p_x0 * link.eta)
        for s in s_top * np.array([1e-8, 1e-4, 0.02, 0.3, 0.77, 1.0]):
            whole = self.oracle_exponent(link, size, 0.0, window, float(s))
            assert abs(table(np.array(s)) - whole) <= table_bound
            direct = both_fields(spec, 0.0, s)
            assert abs(direct - whole) <= direct_bound
            # the transforms' annulus beyond the near disc
            near = mc._near_radius(spec.config)
            far = self.oracle_exponent(link, size, near, window, float(s))
            direct = both_fields(spec, near, s)
            assert abs(direct - far) <= direct_bound

    @pytest.mark.parametrize(
        "a, size, window",
        [pytest.param(500.0, size, window, id=f"{size!r}-{window}")
         for size in (FixedSize(6), PoissonSize(6.0)) for window in (20000.0, math.inf)]
        # a = 1 km with ten-node clusters (fig3's a1000m, fig7): the window
        # carries the most interference there and the rule is least accurate
        + [pytest.param(1000.0, size, 20000.0, id=f"a1000m-{size!r}-20000.0")
           for size in (FixedSize(10), PoissonSize(10.0))],
    )
    def test_far_factor_matches_oracle(self, a, size, window):
        # the rule's worst error on these links is 4.5e-12
        spec = make_spec(link=reference_link(a=a), scenario=Scenario(Unordered(), size),
                         gammas=GAMMAS_16, window=window)
        self.check_against_oracle(spec, 1.5e-11, 1e-6)

    # the links where the rule is weakest, and W = 2.5 a, whose window ends
    # inside the rule's outer panel
    EXTREME_LINKS = [
        pytest.param(reference_link(alpha=6.0), FixedSize(10), 20000.0,
                     id="alpha6-FixedSize(10)"),
        pytest.param(reference_link(a=2000.0), PoissonSize(10.0), math.inf,
                     id="a2000m-PoissonSize(10.0)-inf"),
        pytest.param(reference_link(alpha=2.2), PoissonSize(6.0), 20000.0,
                     id="alpha2.2-PoissonSize(6.0)"),
        pytest.param(reference_link(), FixedSize(6), 1250.0, id="window-2.5a-FixedSize(6)"),
    ]

    @pytest.mark.parametrize("link, size, window", EXTREME_LINKS)
    def test_far_factor_matches_oracle_at_extreme_links(self, link, size, window):
        # the rule's worst errors are 1.5e-11 at alpha = 6 and 3.5e-11 at
        # a = 2 km with W = inf
        spec = make_spec(link=link, scenario=Scenario(Unordered(), size), gammas=GAMMAS_16,
                         window=window)
        self.check_against_oracle(spec, 1e-10, 1e-6)

    @pytest.mark.parametrize("link, size, window", EXTREME_LINKS)
    def test_table_interpolates_between_lattice_points(self, link, size, window):
        # the table's PCHIP interpolant against the rule at 400 s spread over
        # its lattice, most of them between lattice points: at worst 2.3e-7
        # relative (4.3e-6 absolute) at alpha = 2.2
        spec = make_spec(link=link, scenario=Scenario(Unordered(), size), gammas=GAMMAS_16,
                         window=window)
        table = mc._far_table(spec)
        s = np.geomspace(math.exp(table.x[0]), math.exp(table.x[-1]), 400)
        lam = both_fields(spec, 0.0, s)
        assert (np.abs(table(s) - lam) <= 5e-7 * lam).all()

    @pytest.mark.parametrize(
        "a, size",
        [(250.0, FixedSize(6)), (500.0, FixedSize(6)), (1000.0, PoissonSize(10.0))],
        ids=["a250m-FixedSize(6)", "FixedSize(6)", "a1000m-PoissonSize(10.0)"],
    )
    def test_lookup_matches_pchip(self, a, size):
        # the table's lookup by lattice position against SciPy's PCHIP on
        # the lattice index, evaluated at the table's own position, bit for
        # bit; and, since PCHIP commutes with the affine map from log s to
        # the position, within rounding of SciPy's PCHIP in log s
        spec = make_spec(link=reference_link(a=a), scenario=Scenario(Unordered(), size),
                         gammas=GAMMAS_16)
        link = spec.config.link
        table = mc._far_table(spec)
        s_a = link.a**link.alpha / (link.p_x0 * link.eta)
        per_decade = field.TABLE_PER_DECADE
        # from where a node's load term is 1/2 at r = a / 50 (both fields
        # have p = p_x0 here)
        floor = math.floor(per_decade * math.log10(field.TABLE_FLOOR_SPIKE**link.alpha))
        k = np.arange(floor, math.ceil(per_decade * math.log10(GAMMAS_16[-1])) + 3)
        lattice = s_a * 10.0 ** (k / per_decade)
        assert np.array_equal(np.log(lattice), table.x)
        lam = both_fields(spec, 0.0, lattice)
        pchip = PchipInterpolator(np.arange(len(k)), np.log(lam))
        s_lo = lattice[0]
        lam_lo = np.exp(pchip(0.0))

        def position(s):
            return (np.log(np.maximum(s, s_lo)) - table.x[0]) * (per_decade / math.log(10.0))

        # below the lattice: the linear part z = lead s**delta - slope s
        # over 1 + gap z, which meets the lattice at s_lo; lead is the whole
        # plane's pi K sum_fields density n (p eta)**delta
        delta = link.delta
        n = size.n if isinstance(size, FixedSize) else size.mean
        lead = (math.pi * delta * math.pi / math.sin(delta * math.pi)
                * (link.lambda_g * n * (link.p_x * link.eta) ** delta
                   + link.lambda_co * (link.p_z * link.eta) ** delta))
        assert table.lead == pytest.approx(lead, rel=1e-13)
        assert 0.0 < table.slope * s_lo < 1e-3 * table.lead * s_lo**delta  # a 20 km window
        z_lo = table.lead * s_lo**delta - table.slope * s_lo
        gap = 1.0 / lam_lo - 1.0 / z_lo

        def reference(s):
            inside = np.exp(pchip(position(s)))
            z = table.lead * s**delta - table.slope * s
            return np.where(s < s_lo, np.minimum(z / (1.0 + gap * z), lam_lo), inside)

        rng = np.random.default_rng(3)
        # the request's range, r_typ <= a at every threshold, as a (threshold, trial) block
        spread = np.exp(rng.uniform(np.log(s_lo), np.log(GAMMAS_16[-1] * s_a), size=(10, 100)))
        # the s around every lattice point down to single ulps: their
        # positions fall within 2e-13 on both sides of every node (the ulp
        # of log s sets the step), and on about a third of the nodes exactly
        ulps = 1.0 + np.arange(-40, 41) * np.finfo(float).eps
        near = np.concatenate([np.nextafter(lattice, 0.0), np.nextafter(lattice, np.inf),
                               (lattice[:, None] * ulps).ravel()])
        pos = position(near)
        for j in range(1, len(k)):
            assert ((j - 2e-13 <= pos) & (pos < j)).any()
            assert ((j <= pos) & (pos <= j + 2e-13)).any()
        assert np.isin(np.arange(len(k)), pos).mean() > 0.25
        # the PCHIP in log s, the same interpolant up to rounding: within
        # 1e-13 at the nodes and between them (at worst 4.1e-15 here)
        in_log_s = PchipInterpolator(np.log(lattice), np.log(lam))
        s = np.concatenate([lattice, np.exp(rng.uniform(table.x[0], table.x[-1], 4000))])
        np.testing.assert_allclose(table(s), np.exp(in_log_s(np.log(s))), rtol=1e-13, atol=0.0)
        below = s_lo * np.array([0.0, 1e-9, 1e-3, 0.5, 1.0 - 1e-16])
        beyond = lattice[-1] * np.array([1.0 + 1e-12, 1.5, 10.0])
        for s in (spread, near, below, np.nextafter(below, 0.0), beyond):
            assert np.array_equal(table(s), reference(s))
        for s in (s_lo, lattice[57], 0.3 * s_lo, GAMMAS_16[-1] * s_a):
            got = table(np.array(s))
            assert np.shape(got) == ()
            assert np.array_equal(got, reference(np.array(s)))

    LOG_LATTICE = np.log(10.0 ** (np.arange(-120, 81) / 40.0))

    @pytest.mark.parametrize(
        "x, y, end_slopes",
        [
            ([0.0, 0.5, 2.0], [1.0, 2.0, 2.5], None),
            # the three-point end slope is -1 against a secant of +1: set to 0
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 6.0, 7.0], (0.0, 0.0)),
            # strictly increasing and concave in log-log, like the far table
            (LOG_LATTICE, LOG_LATTICE - 0.5 * np.log1p(np.exp(LOG_LATTICE)), None),
        ],
        ids=["3-points-nonuniform", "end-slopes-zeroed", "log-log-increasing"],
    )
    def test_pchip_coefficients_match_scipy(self, x, y, end_slopes):
        x, y = np.asarray(x), np.asarray(y)
        pchip = PchipInterpolator(x, y)
        assert np.array_equal(field.pchip_coefficients(x, y), pchip.c)
        if end_slopes is not None:
            # the case reaches the end-slope correction it is named after
            slopes = pchip.derivative()(x[[0, -1]])
            assert slopes == pytest.approx(end_slopes, abs=1e-12)

    def test_pchip_coefficients_match_scipy_on_random_tables(self):
        # strictly increasing data, the only kind a far table holds; secants
        # spanning e**6 make the end slope's clamp at 0 common
        rng = np.random.default_rng(5)
        clamped = 0
        for n in rng.integers(3, 12, size=300):
            x = np.cumsum(rng.uniform(0.1, 3.0, size=n))
            y = np.cumsum(np.exp(rng.uniform(-3.0, 3.0, size=n)))
            assert np.array_equal(field.pchip_coefficients(x, y), PchipInterpolator(x, y).c)
            # the numerators of the two three-point end slopes
            h, m = np.diff(x), np.diff(y) / np.diff(x)
            ends = ((2 * h[0] + h[1]) * m[0] - h[0] * m[1],
                    (2 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2])
            clamped += min(ends) < 0.0
        assert clamped > 0

    @staticmethod
    def far_table_specs():
        """One spec per MC point of fig3, fig4 and fig7, and per extreme link."""
        for preset in ("fig3", "fig4", "fig7"):
            _, sweep = build_sweep({}, preset)
            for _, points in sweep.variant_points:
                for point in points:
                    for scenario in point.scenarios:
                        yield make_spec(link=point.network.link, scenario=scenario,
                                        gammas=(point.gamma,),
                                        window=point.network.window_radius)
        links = [reference_link(alpha=2.2), reference_link(alpha=6.0),
                 reference_link(a=50.0), reference_link(a=2000.0)]
        for link in links:
            for size in (FixedSize(1), FixedSize(10), PoissonSize(10.0)):
                for window in (20000.0, math.inf):
                    yield make_spec(link=link, scenario=Scenario(Unordered(), size),
                                    gammas=GAMMAS_16, window=window)

    def test_far_tables_strictly_increasing(self, monkeypatch):
        # pchip_coefficients serves only strictly increasing data: every
        # far table handed to it has a strictly increasing log Lambda
        tables = []

        def recorder(x, y, _build=field.pchip_coefficients):
            tables.append((x, y))
            return _build(x, y)

        monkeypatch.setattr(field, "pchip_coefficients", recorder)
        specs = list(self.far_table_specs())
        for spec in specs:
            field.far_table.cache_clear()  # build every table, shared or not
            mc._far_table(spec)
        # every one of these specs has other clusters and coexisting nodes
        assert len(tables) == len(specs)
        for x, y in tables:
            assert np.isfinite(y).all()
            assert (np.diff(x) > 0.0).all() and (np.diff(y) > 0.0).all()

    @pytest.fixture
    def builds(self, monkeypatch):
        """A cold table memo and the number of annulus exponents computed since."""
        count = [0]

        def counter(*args, _exponent=field.annulus_exponent):
            count[0] += 1
            return _exponent(*args)

        monkeypatch.setattr(field, "annulus_exponent", counter)
        field.far_table.cache_clear()
        return count

    def test_equal_build_inputs_share_one_table(self, builds):
        # seed, trials, ordering, workers and thresholds under the same
        # lattice top do not enter the table: one build (two fields) serves all
        table = mc._far_table(make_spec(gammas=GAMMAS_16))
        assert builds[0] == 2
        for spec in (make_spec(gammas=GAMMAS_16, seed=3, trials=100, workers=2),
                     make_spec(scenario=Scenario(Ordered(), FixedSize(6)), gammas=(0.5, 10.0))):
            assert mc._far_table(spec) is table
        poisson = mc._far_table(make_spec(scenario=Scenario(Unordered(), PoissonSize(6))))
        assert builds[0] == 4
        same = make_spec(scenario=Scenario(Ordered(), PoissonSize(6.0)), seed=5)
        assert mc._far_table(same) is poisson
        assert builds[0] == 4

    def test_near_radius_does_not_enter_the_table(self, builds, monkeypatch):
        # the table covers the whole window (0, W], so the transforms' near
        # disc is not one of its build inputs
        table = mc._far_table(make_spec(gammas=(10.0,)))
        monkeypatch.setattr(mc, "NEAR_RADII", 4.0)
        assert mc._far_table(make_spec(gammas=(10.0,))) is table
        assert builds[0] == 2

    @pytest.mark.parametrize(
        "change",
        [{"link": reference_link(lambda_g=2.0 * BASE_DENSITY)}, {"link": reference_link(a=400.0)},
         {"link": dataclasses.replace(reference_link(), p_x0=50.0)}, {"window": math.inf},
         {"scenario": Scenario(Unordered(), FixedSize(7))},
         {"scenario": Scenario(Unordered(), PoissonSize(6.0))}, {"gammas": (20.0,)}],
        ids=["lambda_g", "a", "p_x0", "window", "fixed-size", "poisson-size", "top"],
    )
    def test_changed_build_input_builds_a_new_table(self, builds, change):
        base = mc._far_table(make_spec(gammas=(10.0,)))
        table = mc._far_table(make_spec(**{"gammas": (10.0,), **change}))
        assert table is not base and builds[0] == 4
        assert not np.array_equal(table.coef, base.coef)

    @pytest.mark.parametrize("size", [FixedSize(6), PoissonSize(6.0)], ids=repr)
    def test_cold_and_warm_memo_give_the_same_bits(self, size):
        spec = make_spec(scenario=Scenario(Ordered(), size), trials=2048, gammas=GAMMAS_16,
                         workers=1)
        field.far_table.cache_clear()
        cold = estimate_coverage(spec)
        warm = estimate_coverage(spec)
        field.far_table.cache_clear()
        two_workers = estimate_coverage(make_spec(scenario=spec.scenario, trials=2048,
                                                  gammas=GAMMAS_16, workers=2))
        assert cold == warm == two_workers

    def test_cached_table_is_read_only(self):
        table = mc._far_table(make_spec(gammas=GAMMAS_16))
        for array in (table.x, table.coef, table.coef[2]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("kind, size",
                             [("inter", FixedSize(6)), ("inter", PoissonSize(6.0)),
                              ("coexist", FixedSize(1))],
                             ids=["FixedSize(6)", "PoissonSize(6.0)", "coexist"])
    def test_exponent_independent_of_lattice_length(self, kind, size):
        # the loads go through the kernels in blocks, yet each lattice value
        # is the same bits whatever the lattice's length and its position in
        # a block: a 1-threshold and a 16-threshold coverage request build
        # tables of different lengths and must agree on their shared nodes.
        # From R0 (a transform's annulus) and from 0 (the coverage window)
        spec = make_spec(scenario=Scenario(Unordered(), size), gammas=GAMMAS_16)
        link = spec.config.link
        s = np.exp(mc._far_table(spec).x)  # the request's lattice, up to rounding
        assert len(s) == 281
        # the loads as mc and the table form them
        if kind == "inter":
            c, density, a = s * (link.p_x * link.eta), link.lambda_g, link.a
        else:
            c, density, a = s * (link.p_z * link.eta), link.lambda_co, 0.0
        for inner in (mc._near_radius(spec.config), 0.0):
            rest = (density, a, size, inner, spec.config.window_radius, link.alpha)
            full = field.annulus_exponent(c, *rest)
            assert (full > 0.0).all()
            # the clusters' exponent over (0, R] takes the loads in blocks
            # that fill _BLOCK_BYTES with the rule's arc array (the
            # coexisting PPP's closed form takes none): cut at, before and
            # after the first two boundaries of every block
            blocks = [field._BLOCK_BYTES // (8 * field._near_rule(a, radius, link.alpha)[2][0].size)
                      for radius in (inner, spec.config.window_radius) if a > 0.0 and radius > 0.0]
            assert all(1 < block < len(c) // 2 for block in blocks)
            cuts = {1, len(c)} | {k * block + d for block in blocks for k in (1, 2)
                                  for d in (-1, 0, 1)}
            for m in sorted(cuts):
                assert np.array_equal(field.annulus_exponent(c[:m], *rest), full[:m])
            # shifted against the blocks
            assert np.array_equal(field.annulus_exponent(c[1:], *rest), full[1:])
            for i in (0, 31, 32, 100, len(c) - 1):
                got = field.annulus_exponent(c[i], *rest)
                assert np.shape(got) == () and got == full[i]
            # the shapes the callers pass: a transform request's 1-D s grid
            # and the oracle check's Python float
            got = field_exponents(spec, inner, s[:40])[InterferenceField(kind)]
            assert got.shape == (40,) and np.array_equal(got, full[:40])
            got = field.annulus_exponent(float(c[100]), *rest)
            assert np.shape(got) == () and got == full[100]
            assert field.annulus_exponent(0.0, *rest) == 0.0
            assert not field.annulus_exponent(np.zeros(3), *rest).any()

    def test_empty_annulus_changes_nothing(self):
        # W <= R0: no far factor for a transform, whose draws and estimates
        # are then the plain simulation's; coverage still takes the whole
        # window (0, W] exactly
        near = mc._near_radius(make_spec().config)
        spec = make_spec(window=near, gammas=GAMMAS_16)
        s = np.array([1e9, 1e12])
        for interf_field in (InterferenceField.INTER, InterferenceField.COEXIST):
            assert not field_exponents(spec, near, s)[interf_field].any()
            assert (field_exponents(spec, 0.0, s)[interf_field] > 0.0).all()
        assert mc._far_table(spec) is not None

    @pytest.mark.parametrize("field", [InterferenceField.INTER, InterferenceField.COEXIST])
    def test_transform_unit_at_zero_s(self, field):
        (est,) = estimate_laplace(make_spec(trials=500), field, (0.0,))
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_hybrid_transform_matches_plain_simulation(self, monkeypatch):
        link = reference_link()
        s_ref = link.a**link.alpha * 0.1 / (link.p_x0 * link.eta)
        s_grid = (0.1 * s_ref, s_ref, 10.0 * s_ref)
        hybrid = estimate_laplace(
            make_spec(trials=32768, seed=25), InterferenceField.INTER, s_grid
        )
        monkeypatch.setattr(mc, "NEAR_RADII", math.inf)
        plain = estimate_laplace(make_spec(trials=32768, seed=26), InterferenceField.INTER, s_grid)
        for h, p in zip(hybrid, plain):
            assert abs(h.mean - p.mean) <= 3.0 * math.hypot(h.stderr, p.stderr)


class TestDeterminism:
    def test_identical_specs_identical_estimates(self):
        spec = make_spec(trials=3000, gammas=(0.05, 0.1, 0.2))
        first = estimate_coverage(spec)
        second = estimate_coverage(spec)
        assert [e.mean for e in first] == [e.mean for e in second]
        assert [e.stderr for e in first] == [e.stderr for e in second]

    def test_worker_count_invisible(self):
        # 12 chunks on 3 workers go one per task; 41 chunks on 2 workers go
        # in runs of 6, the last chunk ragged
        for trials, chunk_trials, workers in ((3000, 256, 3), (4050, 100, 2)):
            kw = dict(trials=trials, gammas=(0.05, 0.2), chunk_trials=chunk_trials)
            serial = estimate_coverage(make_spec(workers=1, **kw))
            parallel = estimate_coverage(make_spec(workers=workers, **kw))
            assert [e.mean for e in serial] == [e.mean for e in parallel]
            assert [e.stderr for e in serial] == [e.stderr for e in parallel]

    def test_worker_count_invisible_for_laplace(self):
        s_grid = (0.0, 1e9, 1e11)
        serial = estimate_laplace(make_spec(trials=2000), InterferenceField.INTER, s_grid)
        parallel = estimate_laplace(
            make_spec(trials=2000, workers=2), InterferenceField.INTER, s_grid
        )
        assert [e.mean for e in serial] == [e.mean for e in parallel]

    def test_ragged_last_chunk(self):
        spec = make_spec(trials=1000, chunk_trials=512)
        (est,) = estimate_coverage(spec)
        assert est.trials == 1000
        assert 0.0 <= est.mean <= 1.0

    def test_single_trial(self):
        # one trial contributes its conditional coverage probability
        (est,) = estimate_coverage(make_spec(trials=1))
        assert 0.0 <= est.mean <= 1.0
        assert est.stderr == 0.0


class TestRuns:
    """Contiguous chunks simulated in one pass: a chunk's output does not depend on its run."""

    @staticmethod
    def simulate(spec, field, grid, first, ns):
        """``_simulate_run`` on chunks first, ... of ns, set up as ``_estimate`` sets it up."""
        if field is None:
            far = mc._far_table(spec)
            law, points = mc._size_law(spec.scenario.size_model), mc._net_points(spec)
        else:
            far, law, points = None, (0.0, None), 1
        return mc._simulate_run((spec, field, first, ns, grid, far, law, points))

    def check_runs(self, spec, field, grid):
        """Every run of contiguous chunks against its one-chunk runs joined, bit for bit."""
        ns = mc._chunk_sizes(spec.trials, spec.chunk_trials)
        alone = [self.simulate(spec, field, grid, i, [n]) for i, n in enumerate(ns)]
        assert all(len(run) == 1 for run in alone)
        for first in range(len(ns) - 1):
            for last in range(first + 2, len(ns) + 1):
                run = self.simulate(spec, field, grid, first, ns[first:last])
                assert len(run) == last - first
                for (sums, sizes), ((want_sums, want_sizes),) in zip(run, alone[first:last]):
                    assert np.array_equal(sums, want_sums)
                    assert np.array_equal(sizes, want_sizes)

    @staticmethod
    def largest_clusters(calls):
        """Each one-chunk run's largest typical cluster, from its kernel call."""
        return [int(np.diff(seg_start, append=len(load)).max())
                for load, seg_start in run_clusters(calls)]

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(o, s) for o in (Unordered(), Ordered()) for s in (FixedSize(6), PoissonSize(6.0))]
        + [Scenario(Ordered(2), FixedSize(6))],
        ids=repr,
    )
    @pytest.mark.parametrize("trials, chunk_trials", [(1700, 512), (1400, 300)])
    def test_coverage_chunks_keep_their_bits(self, kernel_calls, scenario, trials, chunk_trials):
        # the reference network's 16 thresholds with its far table; 1,700
        # trials end in a short chunk of 164, and chunks of 300 each end in
        # a short replicate (64-point nets: 4 of 64 and one of 44), the last
        # chunk of 200 too
        spec = make_spec(scenario=scenario, trials=trials, chunk_trials=chunk_trials,
                         gammas=GAMMAS_16, workers=1)
        assert trials % chunk_trials and mc._net_points(spec) == 64
        self.check_runs(spec, None, GAMMAS_16)
        if isinstance(scenario.size_model, PoissonSize):
            kernel_calls["intra_fading"].clear()
            for i, n in enumerate(mc._chunk_sizes(trials, chunk_trials)):
                self.simulate(spec, None, GAMMAS_16, i, [n])
            assert len(set(self.largest_clusters(kernel_calls))) > 1

    @pytest.mark.parametrize("size", [FixedSize(70), PoissonSize(46.0)], ids=repr)
    def test_chunks_past_the_table_keep_their_bits(self, kernel_calls, size):
        # 70 nodes take every tabled net dimension and then plain uniforms
        # from each chunk's own stream; at a Poisson mean of 46 some chunks'
        # largest clusters stay within the table's 63 node dimensions (its
        # dimension 0 draws the size) and others reach past it, so a run
        # pads both its words and its plain uniforms
        spec = make_spec(scenario=Scenario(Ordered(), size), trials=1000, chunk_trials=100,
                         gammas=(0.1, 10.0), workers=1)
        self.check_runs(spec, None, (0.1, 10.0))
        if isinstance(size, PoissonSize):
            kernel_calls["intra_fading"].clear()
            for i, n in enumerate(mc._chunk_sizes(1000, 100)):
                self.simulate(spec, None, (0.1, 10.0), i, [n])
            largest = self.largest_clusters(kernel_calls)
            assert min(largest) <= 63 < max(largest)

    @pytest.mark.parametrize("field", list(InterferenceField), ids=lambda f: f.value)
    @pytest.mark.parametrize("size", [FixedSize(6), PoissonSize(6.0)], ids=repr)
    def test_transform_chunks_keep_their_bits(self, field, size):
        spec = make_spec(scenario=Scenario(Unordered(), size), trials=1300, chunk_trials=300,
                         window=5000.0, workers=1)
        self.check_runs(spec, field, (0.0, 1e6, 1e9, 1e12))

    def test_value_blocks_share_the_run_draws(self, kernel_calls):
        # 4,096 trials at 16 thresholds: two runs of 2,048 trials, each
        # valued in blocks of 4 thresholds (_VALUE_BLOCK values), and every
        # chunk's typical cluster replayed from its own stream
        spec = isolated_spec(PoissonSize(6.0), Ordered(), trials=4096, gammas=GAMMAS_16)
        estimate_coverage(spec)
        assert len(kernel_calls["intra_fading"]) == 2 * 16 // (mc._VALUE_BLOCK // 2048)
        assert [len(seg_start) for _, seg_start in run_clusters(kernel_calls)] == [2048, 2048]
        assert len(replayed_radii(spec, kernel_calls)) == 8

    def test_runs_hold_at_most_run_trials(self, monkeypatch):
        # one worker: runs of RUN_TRIALS // chunk_trials chunks; two
        # workers: at most a 4 workers-th of the chunks per run
        seen = []

        def logged(args, _simulate_run=mc._simulate_run):
            seen.append((args[2], list(args[3])))
            return _simulate_run(args)

        monkeypatch.setattr(mc, "_simulate_run", logged)
        estimate_coverage(make_spec(trials=9000, chunk_trials=300, workers=1))
        assert [first for first, _ in seen] == list(range(0, 30, 6))
        assert all(sum(ns) <= mc.RUN_TRIALS for _, ns in seen)
        assert mc.RUN_TRIALS // 300 == 6
        seen.clear()
        estimate_coverage(make_spec(trials=5000, chunk_trials=1000, workers=1))
        assert seen == [(0, [1000, 1000]), (2, [1000, 1000]), (4, [1000])]


class TestCoverageEstimates:
    def test_shared_realizations_give_monotone_curve(self):
        gammas = tuple(10.0 ** (db / 10.0) for db in range(-20, 11, 2))
        estimates = estimate_coverage(make_spec(trials=4000, gammas=gammas))
        means = [e.mean for e in estimates]
        assert all(x >= y for x, y in zip(means, means[1:]))

    def test_noise_free_run_dominates_noisy_run(self):
        # same seed, same draws: removing the noise only lowers each trial's
        # conditional coverage exponent, so coverage rises at every threshold
        gammas = tuple(10.0 ** (db / 10.0) for db in range(-20, 11, 2))
        noisy = estimate_coverage(make_spec(trials=2000, gammas=gammas))
        quiet = estimate_coverage(
            make_spec(link=reference_link(sigma2=0.0), trials=2000, gammas=gammas)
        )
        assert all(q.mean >= n.mean for q, n in zip(quiet, noisy))

    def test_matches_analytics_loosely(self, quad50):
        scen = Scenario(Unordered(), FixedSize(6))
        spec = make_spec(scenario=scen, trials=20000)
        (est,) = estimate_coverage(spec)
        ana = cc.coverage(0.1, scen, spec.config.link, quad=quad50).value
        assert abs(est.mean - ana) <= 0.02

    def test_window_truncation_negligible(self):
        # the 20 km window approximates the infinite plane: doubling it
        # moves the estimate by no more than the Monte Carlo noise
        scen = Scenario(Unordered(), FixedSize(6))
        link = reference_link()
        near = estimate_coverage(SimSpec(
            config=NetworkConfig(link=link, window_radius=20000.0),
            scenario=scen, trials=30000, seed=77, gamma_grid=(0.1,),
        ))[0]
        far = estimate_coverage(SimSpec(
            config=NetworkConfig(link=link, window_radius=40000.0),
            scenario=scen, trials=30000, seed=78, gamma_grid=(0.1,),
        ))[0]
        assert abs(near.mean - far.mean) <= 3.0 * math.hypot(near.stderr, far.stderr)
        # an infinite window is the whole plane, with no truncation at all
        whole = estimate_coverage(SimSpec(
            config=NetworkConfig(link=link, window_radius=math.inf),
            scenario=scen, trials=30000, seed=79, gamma_grid=(0.1,),
        ))[0]
        assert abs(near.mean - whole.mean) <= 3.0 * math.hypot(near.stderr, whole.stderr)

    def test_intra_limited_matches_proposition(self, quad50):
        # the in-cluster-limited link: no other clusters, coexisting nodes or noise
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        scen = Scenario(Unordered(), FixedSize(6))
        spec = make_spec(link=link, scenario=scen, trials=20000)
        (est,) = estimate_coverage(spec)
        ana = cc.coverage(0.1, scen, spec.config.link, quad=quad50).value
        assert abs(est.mean - ana) <= 3.0 * est.stderr + 0.005

    def test_large_radius_gap_sits_on_bound_side(self, quad50):
        # at kilometre-scale clusters the node-to-parent distance
        # approximation opens a visible gap, but it stays on the side the
        # bound direction predicts
        link = reference_link(a=1000.0)
        for size, side in ((FixedSize(6), "upper"), (PoissonSize(6.0), "lower")):
            scen = Scenario(Unordered(), size)
            ana = cc.coverage(0.1, scen, link, quad=quad50).value
            spec = SimSpec(
                config=NetworkConfig(link=link, window_radius=20000.0),
                scenario=scen, trials=20000, seed=55, gamma_grid=(0.1,),
            )
            (est,) = estimate_coverage(spec)
            assert abs(ana - est.mean) <= 0.1
            if side == "upper":
                assert ana >= est.mean - 3.0 * est.stderr
            else:
                assert ana <= est.mean + 3.0 * est.stderr

    @pytest.mark.parametrize("a, nbar", [(1000.0, 1.5), (500.0, 6.0)])
    def test_ordered_poisson_matches_exact(self, a, nbar):
        # without other clusters the closed form is exact, and with noise and
        # the coexisting field on it depends on the typical distance beyond
        # the in-cluster load, so the cluster-size law must be the one the
        # engine draws: the farthest of 1 + Poisson(nbar - 1) nodes
        link = reference_link(a=a, lambda_g=0.0)
        scen = Scenario(Ordered(), PoissonSize(nbar))
        gammas = (0.1, 1.0, 10.0)
        spec = make_spec(link=link, scenario=scen, trials=40000, seed=9, gammas=gammas,
                         window=math.inf, workers=1)
        for gamma, est in zip(gammas, estimate_coverage(spec)):
            exact = cc.coverage(gamma, scen, link, method=Method.EXACT_INTEGRAL).value
            assert abs(exact - est.mean) <= 3.0 * est.stderr

    def test_farthest_rank_hurts_coverage(self):
        far = estimate_coverage(make_spec(scenario=Scenario(Ordered(), FixedSize(6))))
        near = estimate_coverage(make_spec(scenario=Scenario(Ordered(1), FixedSize(6))))
        assert near[0].mean > far[0].mean

    def test_empty_gamma_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_coverage(make_spec(gammas=()))

    def test_overflowing_threshold_rejected(self, monkeypatch):
        # the far table's s lattice overflows to inf near gamma = 1e297 on
        # the reference link, which used to give a mean of nan with stderr 0
        def no_chunk(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(mc, "_simulate_run", no_chunk)
        with pytest.raises(ValueError, match=r"threshold 1e\+300"):
            estimate_coverage(make_spec(trials=10, gammas=(0.1, 1e300)))

    @pytest.mark.parametrize("gamma", [1e19, 1e20])
    def test_saturated_threshold_is_silent(self, gamma):
        # coverage is 0 to the last bit here; on the way the fixed-size
        # bracket takes log1p(-1) and the saturated far table's flat secants
        # enter PCHIP's harmonic means, two divisions by zero that used to warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (est,) = estimate_coverage(make_spec(trials=512, gammas=(gamma,)))
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_array_and_list_grids_match_tuple(self):
        # an array grid used to raise on its truth value
        gammas = (0.05, 0.1, 0.2)
        ref = estimate_coverage(make_spec(trials=600, gammas=gammas))
        for grid in (list(gammas), np.array(gammas)):
            spec = make_spec(trials=600, gammas=grid)
            assert spec.gamma_grid == gammas
            assert estimate_coverage(spec) == ref
        s_grid = (0.0, 1e9, 1e11)
        spec = make_spec(trials=600)
        for field in InterferenceField:
            ref = estimate_laplace(spec, field, s_grid)
            for grid in (list(s_grid), np.array(s_grid)):
                assert estimate_laplace(spec, field, grid) == ref


class TestLaplaceEstimates:
    @pytest.mark.parametrize("a", [500.0, 1000.0])
    @pytest.mark.parametrize("size", [FixedSize(6), PoissonSize(6.0)], ids=repr)
    def test_inter_matches_pgfl_oracle(self, size, a):
        # two-sided: the sampled near disc with the exact annulus against the
        # cross-cluster field's PGFL over the whole 20 km window, by
        # quadrature; the paper's bounds sit 3-88 standard errors away
        link = reference_link(a=a)
        s_a = a**link.alpha / (link.p_x0 * link.eta)
        s_grid = (0.1 * s_a, s_a, 10.0 * s_a)
        spec = make_spec(link=link, scenario=Scenario(Unordered(), size), trials=20000, seed=31)
        for s, est in zip(s_grid, estimate_laplace(spec, InterferenceField.INTER, s_grid)):
            exact = oracles.inter_pgfl_integral(
                s * link.p_x * link.eta, link.lambda_g, a, link.alpha, size, 0.0, 20000.0
            )
            assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_unit_at_zero_s(self):
        # over the whole plane too, whose annulus beyond R0 is unbounded
        for interf_field in InterferenceField:
            ests = estimate_laplace(make_spec(trials=500, window=math.inf), interf_field, (0.0,))
            assert ests[0].mean == 1.0
            assert ests[0].stderr == 0.0

    def test_coexist_without_field_is_exactly_one(self):
        link = reference_link(lambda_co=0.0)
        ests = estimate_laplace(
            make_spec(link=link, trials=500), InterferenceField.COEXIST, (1e10,)
        )
        assert ests[0].mean == 1.0

    def test_nonincreasing_in_s(self):
        s_grid = (0.0, 1e9, 1e10, 1e11)
        ests = estimate_laplace(make_spec(trials=2000), InterferenceField.INTER, s_grid)
        means = [e.mean for e in ests]
        assert all(x >= y for x, y in zip(means, means[1:]))
        assert all(0.0 < m <= 1.0 for m in means)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            estimate_laplace(make_spec(), InterferenceField.INTER, ())
        with pytest.raises(ValueError):
            estimate_laplace(make_spec(), InterferenceField.INTER, (-1.0,))

    @pytest.mark.parametrize("field", ["inter", None, 2], ids=repr)
    def test_field_must_be_a_member(self, field):
        # anything else used to run the coverage branch, reading s as SINR
        # thresholds: at most 1.4e-6 at s = 1e6 where INTER gives 0.999
        with pytest.raises(ValueError, match="InterferenceField"):
            estimate_laplace(make_spec(trials=10), field, (1e6,))

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_non_finite_grid_rejected(self, s):
        spec = make_spec(scenario=Scenario(Unordered(), FixedSize(1)), trials=10)
        for interf_field in InterferenceField:
            with pytest.raises(ValueError, match="finite"):
                estimate_laplace(spec, interf_field, (0.0, s))


def mc_metrics(spec):
    """ASE/EE built on Monte Carlo coverage, one result per threshold."""
    size = spec.scenario.size_model
    n_nodes = size.n if isinstance(size, FixedSize) else size.mean
    link = spec.config.link
    return [
        ase_ee(
            CoverageResult(est.mean, Method.MONTE_CARLO, BoundSide.ESTIMATE, gamma, est.stderr),
            n_nodes, link.lambda_g, link.p_x,
        )
        for gamma, est in zip(spec.gamma_grid, estimate_coverage(spec))
    ]


class TestMetricsEstimates:
    def test_ase_has_interior_optimum(self):
        # coarse node-count scan: the rate-density product beats both ends
        link = reference_link(a=200.0)
        taus = []
        for n in (1, 2, 4, 8, 16, 30):
            spec = SimSpec(
                config=NetworkConfig(link=link, window_radius=20000.0),
                scenario=Scenario(Unordered(), FixedSize(n)),
                trials=5000, seed=65, gamma_grid=(0.1,),
            )
            taus.append(mc_metrics(spec)[0].ase)
        assert max(taus[1:-1]) > taus[0]
        assert max(taus[1:-1]) > taus[-1]

    def test_consistent_with_coverage(self):
        spec = make_spec(trials=2000, gammas=(0.1, 1.0))
        metrics = mc_metrics(spec)
        covs = estimate_coverage(spec)
        for gamma, metric, est in zip(spec.gamma_grid, metrics, covs):
            rate = math.log2(1.0 + gamma)
            assert metric.coverage.value == est.mean
            assert metric.ase == pytest.approx(
                6 * spec.config.link.lambda_g * rate * est.mean, rel=1e-12
            )
            assert metric.ee == pytest.approx(
                rate * est.mean / spec.config.link.p_x, rel=1e-12
            )
            assert metric.ee_stderr == pytest.approx(
                rate * est.stderr / spec.config.link.p_x, rel=1e-12
            )


class TestSpecValidation:
    def test_bad_trials(self):
        with pytest.raises(ValueError):
            make_spec(trials=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            make_spec(gammas=(0.0,))

    def test_poisson_mean_below_one(self):
        with pytest.raises(ValueError):
            estimate_coverage(
                make_spec(scenario=Scenario(Unordered(), PoissonSize(0.5)), trials=10)
            )

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 1000.0), ("trials", True), ("chunk_trials", 64.0),
         ("chunk_trials", 0), ("seed", 1.5), ("seed", -1), ("seed", None),
         ("workers", 0)],
        ids=repr,
    )
    def test_integer_fields_checked_when_built(self, field, value):
        # these used to fail only once the simulation ran (a float trial
        # count in _chunk_sizes, a float or negative seed in SeedSequence),
        # or never (seed None drew fresh entropy for every chunk)
        with pytest.raises(ValueError):
            make_spec(**{field: value})

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-1", ""])
    def test_bad_workers_variable_named(self, monkeypatch, value):
        # "abc" and "2.5" used to fail with int()'s message, which names
        # neither the variable nor where the value came from
        monkeypatch.setenv(mc.WORKERS_ENV_VAR, value)
        with pytest.raises(ValueError, match=f"CLUSTERCOV_WORKERS.*{re.escape(repr(value))}"):
            estimate_coverage(make_spec(trials=10))

    def test_numpy_integers_accepted(self):
        spec = make_spec(trials=np.int64(10), seed=np.int64(3), chunk_trials=np.int32(4))
        (est,) = estimate_coverage(spec)
        (ref,) = estimate_coverage(make_spec(trials=10, seed=3, chunk_trials=4))
        assert est.mean == ref.mean


# (scenario, link); "intra" is the in-cluster-limited link, which has no
# other clusters, no coexisting nodes and no noise
PINNED = {
    "UF-6": (Scenario(Unordered(), FixedSize(6)), reference_link()),
    "UP-6": (Scenario(Unordered(), PoissonSize(6.0)), reference_link()),
    "OF-6": (Scenario(Ordered(), FixedSize(6)), reference_link()),
    "OP-6": (Scenario(Ordered(), PoissonSize(6.0)), reference_link()),
    # 70 nodes: the node dimensions run past the net's 64 tabled ones
    "UF-70": (Scenario(Unordered(), FixedSize(70)), reference_link()),
    "O2-F4-intra": (
        Scenario(Ordered(2), FixedSize(4)),
        reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0),
    ),
}


def _pinned_spec(name):
    scenario, link = PINNED[name]
    return SimSpec(
        config=NetworkConfig(link=link, window_radius=5000.0),
        scenario=scenario, trials=1500, seed=11, gamma_grid=(0.01, 0.1, 1.0),
    )


class TestPinnedStreams:
    """The random-stream layout is part of the reproducibility contract.

    Each row pins one request's means and standard errors at a fixed seed:
    the coverage rows pin what a coverage chunk draws (its typical
    cluster, from the start of its stream) and the exact factor of the
    other fields over the window; the INTER and COEXIST rows pin the near
    disc a transform draws and the exact factor of the annulus beyond it.
    UF-70's 70 nodes take every tabled net dimension and then plain
    uniforms.  Any change in what is drawn, or in which order, moves the
    rows by O(stderr), far past the tolerance, so a row is re-recorded
    only with a change that means to draw differently, after the
    calibration and oracle tests have passed on it.
    """

    COVERAGE = {
        "UF-6": [
            (0.7101155188212633, 0.0015125314655467254),
            (0.35286809177120554, 0.0019882560169142698),
            (0.10724319711210527, 0.0014730535400835202),
        ],
        "UP-6": [
            (0.7153956292468104, 0.0022295413737490827),
            (0.384390849453157, 0.0024854706706331563),
            (0.12980022063605107, 0.002525852685322145),
        ],
        "OF-6": [
            (0.49383764163095034, 0.0016314923412778378),
            (0.08299323813253574, 0.000869441103681753),
            (0.00031219794506294176, 1.2858789970720974e-05),
        ],
        "OP-6": [
            (0.5148394279077181, 0.002618535923397436),
            (0.13416981443477322, 0.001659712147937092),
            (0.013803254712262578, 0.00046148087087822566),
        ],
        "UF-70": [
            (0.10529460040773209, 0.0028853555660425297),
            (0.026586223702966323, 0.0014557517147178053),
            (0.00707305596284586, 0.0010451507980071314),
        ],
        "O2-F4-intra": [
            (0.8694535207681711, 0.0028413289226323466),
            (0.5798565478587793, 0.0037115254892603395),
            (0.12206385713659011, 0.001671262826325424),
        ],
    }
    S_GRID = (0.0, 1e3, 1e6, 1e9)
    LAPLACE = {
        ("UF-6", InterferenceField.INTER): [
            (1.0, 0.0),
            (0.9999943052453478, 4.28402057674538e-06),
            (0.9982171941604286, 0.0008491633150076796),
            (0.9428597893716398, 0.00460083083857389),
        ],
        ("UF-6", InterferenceField.COEXIST): [
            (1.0, 0.0),
            (0.9999998892613118, 9.048959715120993e-08),
            (0.999895136069762, 8.47453533250708e-05),
            (0.9911086593377966, 0.001530386641503033),
        ],
        # the in-cluster-limited link has no other clusters and no coexisting field
        ("O2-F4-intra", InterferenceField.INTER): [(1.0, 0.0)] * 4,
        ("O2-F4-intra", InterferenceField.COEXIST): [(1.0, 0.0)] * 4,
    }

    @staticmethod
    def _check(estimates, expected):
        got = [(e.mean, e.stderr) for e in estimates]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(COVERAGE))
    def test_coverage(self, name):
        spec = _pinned_spec(name)
        self._check(estimate_coverage(spec), self.COVERAGE[name])

    @pytest.mark.parametrize("name, field", sorted(LAPLACE, key=str), ids=str)
    def test_laplace(self, name, field):
        spec = _pinned_spec(name)
        self._check(estimate_laplace(spec, field, self.S_GRID), self.LAPLACE[name, field])
