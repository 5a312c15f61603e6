import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import PchipInterpolator

import clustercov as cc
import clustercov.mc as mc
from clustercov import oracles
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


def typical_nodes(calls):
    """(load, trial) of every typical-cluster node, chunks joined."""
    loads, trials, offset = [], [], 0
    for load, seg_start, *_ in calls["intra_fading"]:
        sizes = np.diff(seg_start, append=len(load))
        loads.append(load)
        trials.append(np.repeat(np.arange(len(seg_start)), sizes) + offset)
        offset += len(seg_start)
    return np.concatenate(loads), np.concatenate(trials)


def replay_sizes(rng, size, n, replicate=mc.REPLICATE_TRIALS):
    """(sizes, size uniforms V) of the engine's typical clusters, the first draws of a chunk.

    A Poisson size is the typical node plus J ~ Poisson(nbar - 1) given
    J >= 1: V is one stratified column, and J is the first j whose CDF
    (SciPy's, not the engine's table) exceeds w0 + V (1 - w0), with
    w0 = exp(-(nbar - 1)).  A fixed size and nbar = 1 draw nothing (V is
    None).
    """
    if isinstance(size, FixedSize):
        return np.full(n, size.n, dtype=np.int64), None
    if size.mean == 1.0:
        return np.ones(n, dtype=np.int64), None
    mu = size.mean - 1.0
    w0 = math.exp(-mu)
    v = replay_latin_hypercube(rng, n, 1, replicate)[:, 0]
    cdf = stats.poisson.cdf(np.arange(math.ceil(mu + 20.0 * math.sqrt(mu)) + 40), mu)
    return 1 + np.searchsorted(cdf, w0 + v * (1.0 - w0), side="right"), v


def replayed_radii(spec, calls):
    """[(radii, seg_start, V)] of every coverage chunk's typical cluster, replayed from its stream.

    Replays each chunk's draws (Poisson sizes, then the stratified radii;
    V is ``replay_sizes``' size uniforms) and checks the kernel's sizes and
    loads against them bit for bit: 0 at one node per trial, the typical
    one, and (p_x / p_x0) (r_typ / rho)**alpha at every other node.  Needs
    one worker, so that the kernel calls come in chunk order.
    """
    link, size = spec.config.link, spec.scenario.size_model
    replicate = mc.REPLICATE_TRIALS if spec.trials > mc.REPLICATE_TRIALS else 1
    out = []
    for index, (load, seg_start, *_) in enumerate(calls["intra_fading"]):
        n = len(seg_start)
        sizes = np.diff(seg_start, append=len(load))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)))
        replayed, v = replay_sizes(rng, size, n, replicate)
        assert np.array_equal(replayed, sizes)
        u = replay_latin_hypercube(rng, n, int(sizes.max()), replicate)
        r = link.a * np.sqrt(np.concatenate([u[t, :k] for t, k in enumerate(sizes)]))
        trial = np.repeat(np.arange(n), sizes)
        typical = np.flatnonzero(load == 0.0)
        assert np.array_equal(trial[typical], np.arange(n))
        want = (r[typical][trial] / r) ** link.alpha
        want *= link.p_x / link.p_x0
        want[typical] = 0.0
        assert np.array_equal(load, want)
        out.append((r, seg_start, v))
    return out


def isolated_spec(size, ordering=None, trials=4000, **kw):
    link = reference_link(lambda_g=0.0, lambda_co=0.0)
    return make_spec(
        link=link, scenario=Scenario(ordering or Unordered(), size),
        trials=trials, workers=1, **kw,
    )


class QuarterUniform:
    """A generator whose uniform draws are rounded to odd eighths: no zero, many ties."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def uniform(self, *args, **kw):
        return (np.floor(4.0 * self._rng.uniform(*args, **kw)) + 0.5) / 4.0

    def random(self, *args, **kw):
        return (np.floor(4.0 * self._rng.random(*args, **kw)) + 0.5) / 4.0

    def __getattr__(self, name):
        return getattr(self._rng, name)


def replay_latin_hypercube(rng, n, columns, replicate=mc.REPLICATE_TRIALS):
    """The engine's stratified uniforms, rebuilt one (replicate, column) at a time.

    Same draws in the same order: permutation keys of the full replicates,
    those of the partial one, then the jitters; a replicate of k rows gives
    row i of a column (argsort(keys)[i] + jitter) / k.
    """
    full = n - n % replicate
    keys = rng.uniform(size=(full // replicate, columns, replicate))
    tail_keys = rng.uniform(size=(columns, n - full))
    jitter = rng.uniform(size=(n, columns))
    u = np.empty((n, columns))
    for start in range(0, n, replicate):
        k = min(replicate, n - start)
        for j in range(columns):
            key = keys[start // replicate, j] if k == replicate else tail_keys[j]
            u[start:start + k, j] = (np.argsort(key) + jitter[start:start + k, j]) / k
    return u


def replicate_stderr(chunks, replicate=mc.REPLICATE_TRIALS):
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


def stable_sort_pick(rng, size, link, n, rank=None):
    """(r_typ, load, tied) of the rank-th closest node (None: the farthest) by a stable sort.

    The same draws as the engine, sorted by (trial, radius).  ``tied``
    counts the trials whose picked radius is also attained by a node the
    sort puts next to it.
    """
    sizes, _ = replay_sizes(rng, size, n)
    trial = np.repeat(np.arange(n, dtype=np.intp), sizes)
    u = replay_latin_hypercube(rng, n, int(sizes.max()))
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
        [FixedSize(1), FixedSize(6), PoissonSize(1.0), PoissonSize(6.0), PoissonSize(30.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_farthest_pick_matches_stable_sort(self, size, ties):
        # the farthest node is the one a stable sort by (trial, radius) puts
        # last in its trial; uniforms rounded to odd eighths (jitters and
        # permutation keys alike) force ties at the top
        link = reference_link()
        tied = 0
        for seed in range(4):
            rngs = [(QuarterUniform if ties else np.random.default_rng)(seed) for _ in range(2)]
            r_typ, load, *_ = mc._typical_cluster(
                rngs[0], Scenario(Ordered(), size), link, 512, mc.REPLICATE_TRIALS
            )
            ref_r_typ, ref_load, ref_tied = stable_sort_pick(rngs[1], size, link, 512)
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
        # puts k-th in its trial, ties included, for full and partial
        # replicates alike
        link = reference_link()
        scenario = Scenario(Ordered(k), FixedSize(n))
        tied = 0
        for seed in range(2):
            for trials in (512, 488, 5):
                rngs = [(QuarterUniform if ties else np.random.default_rng)(seed) for _ in range(2)]
                r_typ, load, *_ = mc._typical_cluster(
                    rngs[0], scenario, link, trials, mc.REPLICATE_TRIALS
                )
                ref_r_typ, ref_load, ref_tied = stable_sort_pick(
                    rngs[1], FixedSize(n), link, trials, k
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
        assert mc._lone_weight(PoissonSize(nbar)) == pytest.approx(w0, rel=1e-15)
        # without noise or other fields a threshold no interferer lets
        # through leaves the lone stratum alone: coverage w0, no spread
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        spec = make_spec(link=link, scenario=Scenario(Unordered(), PoissonSize(nbar)),
                         trials=512, gammas=(1e250,))
        (est,) = estimate_coverage(spec)
        assert est.mean == pytest.approx(w0, rel=1e-14)
        assert est.stderr <= 1e-14 * w0

    def test_poisson_sizes_fill_their_strata(self, kernel_calls):
        # 100-trial chunks: six full replicates of 16 and a partial one of 4;
        # in each, the size uniforms V take one stratum apiece
        replicate, nbar = mc.REPLICATE_TRIALS, 6.0
        spec = isolated_spec(PoissonSize(nbar), Ordered(), trials=1000, chunk_trials=100)
        estimate_coverage(spec)
        w0 = math.exp(-(nbar - 1.0))
        groups = 0
        for r, seg_start, v in replayed_radii(spec, kernel_calls):
            interferers = np.diff(seg_start, append=len(r)) - 1
            for start in range(0, len(seg_start), replicate):
                k = min(replicate, len(seg_start) - start)
                assert np.array_equal(np.sort(np.floor(v[start:start + k] * k)), np.arange(k))
                # J does not decrease in V, so the i-th smallest J lies
                # between the J >= 1 law's quantiles at stratum i's ends
                quantiles = stats.poisson.ppf(w0 + np.arange(k + 1) / k * (1.0 - w0), nbar - 1.0)
                j = np.sort(interferers[start:start + k])
                assert np.all((quantiles[:-1] <= j) & (j <= quantiles[1:]))
                groups += 1
        assert groups == 10 * 7

    @pytest.mark.parametrize("mean", [1.0 + 1e-9, 1.5, 6.0, 30.0, 800.0])
    def test_interferer_law_matches_scipy(self, mean):
        # the memoised table is the Poisson(mean - 1) CDF, built from logs so
        # that it keeps its digits where exp(-(mean - 1)) underflows (800)
        cdf = mc._interferer_cdf(mean)
        assert mc._interferer_cdf(mean) is cdf
        assert not cdf.flags.writeable
        want = stats.poisson.cdf(np.arange(len(cdf)), mean - 1.0)
        np.testing.assert_allclose(cdf, want, rtol=1e-12, atol=1e-15)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-13)  # the running sum's rounding
        assert mc._lone_weight(PoissonSize(mean)) == cdf[0]

    def test_size_law_edges(self):
        # nbar = 1: every typical node is alone, nothing is drawn and no lone
        # term is mixed in
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        sizes = mc._typical_sizes(rng, PoissonSize(1.0), 512, mc.REPLICATE_TRIALS)
        assert np.array_equal(sizes, np.ones(512)) and rng.bit_generator.state == state
        assert mc._lone_weight(PoissonSize(1.0)) == 0.0
        # past nbar - 1 of about 745, w0 underflows to 0 and the plain CDF is
        # inverted
        assert mc._lone_weight(PoissonSize(800.0)) == 0.0
        sizes = mc._typical_sizes(rng, PoissonSize(800.0), 4096, mc.REPLICATE_TRIALS)
        assert abs(sizes.mean() - 800.0) <= 4.0 * math.sqrt(799.0 / 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = estimate_coverage(isolated_spec(PoissonSize(800.0), Ordered(), trials=64,
                                                   gammas=(1e-4, 0.1)))
        assert 1.0 > ests[0].mean > ests[1].mean > 0.0

    def test_parent_count_matches_window_mean(self, kernel_calls):
        trials = 500
        spec = make_spec(trials=trials, workers=1)
        estimate_coverage(spec)
        parents = sum(len(args[0]) for args in kernel_calls["inter_sums"])
        # only the near disc is drawn: lambda_g * pi * R0^2 = 0.9 for the
        # reference density at R0 = 3 a = 1.5 km
        near = min(spec.config.window_radius, mc.NEAR_RADII * spec.config.link.a)
        assert near == 1500.0
        expected = BASE_DENSITY * math.pi * near**2
        stderr = math.sqrt(expected / trials)
        assert abs(parents / trials - expected) <= 3.0 * stderr

    def test_cross_cluster_support(self, kernel_calls):
        spec = make_spec(trials=500, workers=1)
        estimate_coverage(spec)
        for parent_r, _, _, off_r, off_th, *_ in kernel_calls["inter_sums"]:
            assert np.all((parent_r >= 0.0) & (parent_r <= spec.config.window_radius))
            assert np.all((off_r >= 0.0) & (off_r <= spec.config.link.a))
            assert np.all((off_th >= 0.0) & (off_th < 2.0 * math.pi))

    def test_cross_cluster_poisson_sizes(self, kernel_calls):
        # clusters other than the typical one hold Poisson(nbar) nodes
        spec = make_spec(scenario=Scenario(Unordered(), PoissonSize(6.0)), trials=300, workers=1)
        estimate_coverage(spec)
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
        gamma = 0.1
        spec = isolated_spec(FixedSize(1), trials=300, seed=21, gammas=(gamma,))
        (est,) = estimate_coverage(spec)
        assert kernel_calls["inter_sums"] == []
        assert kernel_calls["radial_sums"] == []  # no coexistence call either
        # the stratified radius draws come first in the chunk's stream
        ((r, *_),) = replayed_radii(spec, kernel_calls)
        values = noise_limited_values(spec.config.link, r, gamma)
        assert est.mean == pytest.approx(values.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(replicate_stderr([values]), rel=1e-12)


class TestStratification:
    """Latin-hypercube in-cluster radii and the replicate standard error."""

    @staticmethod
    def strata_by_replicate(spec, kernel_calls, replicate=mc.REPLICATE_TRIALS):
        """{(chunk, first trial, column): strata of (r/a)**2 in trial order}, with each width k."""
        a = reference_link().a
        out = {}
        for chunk, (r, seg_start, _) in enumerate(replayed_radii(spec, kernel_calls)):
            n = len(seg_start)
            sizes = np.diff(seg_start, append=len(r))
            trial = np.repeat(np.arange(n), sizes)
            column = np.arange(len(r)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            first = trial - trial % replicate
            width = np.minimum(n - first, replicate)
            stratum = np.floor((r / a) ** 2 * width).astype(int)
            for key in sorted(set(zip(first.tolist(), column.tolist()))):
                mask = (first == key[0]) & (column == key[1])
                out[(chunk,) + key] = (stratum[mask], int(width[mask][0]))
        return out

    def test_every_replicate_column_fills_its_strata(self, kernel_calls):
        # 100-trial chunks: six full replicates of 16 and a partial one of 4
        spec = isolated_spec(FixedSize(6), trials=1000, chunk_trials=100)
        estimate_coverage(spec)
        groups = self.strata_by_replicate(spec, kernel_calls)
        assert len(groups) == 10 * 7 * 6
        widths = [width for _, width in groups.values()]
        assert widths.count(4) == 10 * 6 and widths.count(16) == 10 * 6 * 6
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
        for scenario in (Scenario(Unordered(), FixedSize(6)), Scenario(Ordered(), PoissonSize(6.0))):
            kw = dict(scenario=scenario, trials=1000, chunk_trials=100, gammas=(0.05, 0.1, 1.0))
            serial = estimate_coverage(make_spec(workers=1, **kw))
            parallel = estimate_coverage(make_spec(workers=2, **kw))
            assert serial == parallel
        s_grid = (0.0, 1e6, 1e9)
        kw = dict(trials=1000, chunk_trials=100)
        serial = estimate_laplace(make_spec(workers=1, **kw), InterferenceField.INTRA, s_grid)
        parallel = estimate_laplace(make_spec(workers=2, **kw), InterferenceField.INTRA, s_grid)
        assert serial == parallel

    def test_chunks_combine_into_replicate_stderr(self):
        # the replicate sums of ten ragged chunks give the two-pass
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
                r = link.a * np.sqrt(replay_latin_hypercube(rng, chunk, 1)[:, 0])
                chunks.append(noise_limited_values(link, r, gamma))
            values = np.concatenate(chunks)
            assert est.mean == pytest.approx(values.mean(), rel=1e-14)
            assert est.stderr == pytest.approx(replicate_stderr(chunks), rel=1e-12)
            # a lone node's coverage is monotone in its one stratified radius
            assert est.stderr < 0.2 * values.std(ddof=1) / math.sqrt(1000)

    @pytest.mark.parametrize("trials", [1, 2, 5, mc.REPLICATE_TRIALS, mc.REPLICATE_TRIALS + 1])
    def test_single_replicate_rule(self, trials):
        # a request of at most REPLICATE_TRIALS trials is drawn unstratified,
        # in replicates of one trial, so its standard error is the i.i.d.
        # one (0.0 for a single trial) and never that of one lone replicate
        gamma = 10.0
        spec = isolated_spec(FixedSize(1), trials=trials, seed=8, gammas=(gamma,))
        (est,) = estimate_coverage(spec)
        replicate = mc.REPLICATE_TRIALS if trials > mc.REPLICATE_TRIALS else 1
        rng = np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(0,)))
        link = spec.config.link
        u = replay_latin_hypercube(rng, trials, 1, replicate)[:, 0]
        values = noise_limited_values(link, link.a * np.sqrt(u), gamma)
        assert est.mean == pytest.approx(values.mean(), rel=1e-14)
        if trials == 1:
            assert est.stderr == 0.0
        else:
            assert est.stderr == pytest.approx(replicate_stderr([values], replicate), rel=1e-12)
        if 2 <= trials <= mc.REPLICATE_TRIALS:
            assert est.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(trials), rel=1e-12)

    @pytest.mark.parametrize("field", [InterferenceField.INTER, InterferenceField.COEXIST])
    def test_unstratified_transforms_use_single_trial_replicates(self, field):
        # INTER and COEXIST draw no in-cluster radii, so their trials are
        # i.i.d. and the standard error is the usual one over all n trials
        s_grid, chunk = (0.0, 1e6, 1e9), 100
        spec = make_spec(trials=3 * chunk, seed=9, chunk_trials=chunk, workers=1)
        estimates = estimate_laplace(spec, field, s_grid)
        link, radius = spec.config.link, mc._near_radius(spec.config)
        near = []
        for index in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(index,)))
            if field is InterferenceField.INTER:
                near.append(mc._cross_clusters(rng, spec.scenario, link, radius, chunk))
            else:
                near.append(mc._coexisting(rng, link, radius, chunk))
        s = np.array(s_grid)[:, None]
        values = np.exp(-s * np.concatenate(near) - mc._far_exponent(spec, field, s))
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
        dof = self.TRIALS // mc.REPLICATE_TRIALS - 1
        scores = stats.norm.ppf(stats.t.cdf(z, dof))
        lo, hi = stats.chi2.ppf([0.0005, 0.9995], self.SEEDS) / self.SEEDS
        assert lo <= np.mean(scores**2) <= hi


GAMMAS_16 = tuple(10.0 ** (db / 10.0) for db in range(-20, 11, 2))


# a lone-node tail cell that forcing J = 0 alone does not mend
NEXT_STRATA = pytest.mark.xfail(
    strict=True,
    reason="only J = 0 is forced; the rest of ROADMAP item 12, forcing J = 1 ... j0 too, "
    "is not done: each forced stratum costs the farthest node a whole threshold-grid "
    "evaluation, about +30 % per ordered-Poisson chunk",
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
    lone-node stratum taken exactly it reads rms z 1.28 at 0 dB and 1.89,
    4.36 and 5.17 at +4, +8 and +10 dB; the rest of that tail comes from
    the next strata (J = 1, 2, ...), and those three cells are expected
    failures.
    """

    SEEDS = 30
    TRIALS = 8192
    GAMMAS_DB = (-20, -10, 0, 4, 8, 10)
    RMS_Z = (0.7, 1.4)
    MAX_Z = 4.5

    @classmethod
    @functools.lru_cache(maxsize=None)
    def z_scan(cls, scenario, a):
        """(rms z, max |z|) per threshold of GAMMAS_DB over the seeds, at cluster radius a."""
        link = reference_link(a=a, lambda_g=0.0)
        gammas = tuple(10.0 ** (db / 10.0) for db in cls.GAMMAS_DB)
        exact = np.array(
            [cc.coverage(g, scenario, link, method=Method.EXACT_INTEGRAL).value for g in gammas]
        )
        z = []
        for seed in range(cls.SEEDS):
            spec = make_spec(link=link, scenario=scenario, trials=cls.TRIALS, seed=seed,
                             gammas=gammas, window=math.inf, workers=1)
            ests = estimate_coverage(spec)
            z.append((np.array([e.mean for e in ests]) - exact) / [e.stderr for e in ests])
        z = np.array(z)
        return np.sqrt((z**2).mean(axis=0)), np.abs(z).max(axis=0)

    def bad_cells(self, scenario, a, dbs):
        rms, worst = self.z_scan(scenario, a)
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
        bad = self.bad_cells(scenario, 500.0, self.GAMMAS_DB)
        assert not bad, "; ".join(bad)

    @pytest.mark.parametrize(
        "db",
        [-20, -10, 0] + [pytest.param(db, marks=NEXT_STRATA) for db in (4, 8, 10)],
        ids=lambda db: f"{db:+d}dB",
    )
    def test_lone_node_tail(self, db):
        bad = self.bad_cells(Scenario(Ordered(), PoissonSize(10.0)), 1000.0, (db,))
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
                rng, Scenario(ordering, size), reference_link(), 512, mc.REPLICATE_TRIALS
            )
            assert len(load) == 512 and not load.any()
            values = rng.uniform(size=(len(GAMMAS_16) + 1, 512))
            grid = np.array(GAMMAS_16 + (1e300,))
            assert np.array_equal(mc.intra_fading(load, seg_start, grid, values.copy()), values)

    @pytest.mark.parametrize(
        "scenario",
        [Scenario(Unordered(), FixedSize(6)), Scenario(Ordered(), FixedSize(6)),
         Scenario(Ordered(), PoissonSize(6.0)), Scenario(Unordered(), FixedSize(1))],
        ids=["UF-6", "OF-6", "OP-6", "UF-1"],
    )
    def test_intra_transform_unit_at_zero_s(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = estimate_laplace(make_spec(scenario=scenario, trials=1000),
                                    InterferenceField.INTRA, (0.0, 1e3, 1e300))
        assert (ests[0].mean, ests[0].stderr) == (1.0, 0.0)
        assert 1.0 >= ests[1].mean >= ests[2].mean >= 0.0




class TestFarField:
    """The annulus beyond the near disc, integrated exactly instead of sampled."""

    @staticmethod
    def oracle_exponent(spec, s):
        """-log of both fields' exact transforms over (R0, W], by nested quadrature."""
        link, size = spec.config.link, spec.scenario.size_model
        inner, outer = mc._near_radius(spec.config), spec.config.window_radius
        inter = oracles.inter_pgfl_integral(
            s * link.p_x * link.eta, link.lambda_g, link.a, link.alpha, size, inner, outer
        )
        coexist = oracles.inter_pgfl_integral(
            s * link.p_z * link.eta, link.lambda_co, 0.0, link.alpha, FixedSize(1), inner, outer
        )
        return -math.log(inter) - math.log(coexist)

    @pytest.mark.parametrize(
        "a, size, window",
        [pytest.param(500.0, size, window, id=f"{size!r}-{window}")
         for size in (FixedSize(6), PoissonSize(6.0)) for window in (20000.0, math.inf)]
        # a = 1 km with ten-node clusters (fig3's a1000m, fig7): the annulus
        # carries the most interference there and the rule is least accurate
        + [pytest.param(1000.0, size, 20000.0, id=f"a1000m-{size!r}-20000.0")
           for size in (FixedSize(10), PoissonSize(10.0))],
    )
    def test_far_factor_matches_oracle(self, a, size, window):
        spec = make_spec(link=reference_link(a=a), scenario=Scenario(Unordered(), size),
                         gammas=GAMMAS_16, window=window)
        link = spec.config.link
        table = mc._far_table(spec)
        # the request's s range: up to gamma = 10 dB at r = a, below the table too
        s_top = GAMMAS_16[-1] * link.a**link.alpha / (link.p_x0 * link.eta)
        for s in s_top * np.array([1e-8, 1e-4, 0.02, 0.3, 0.77, 1.0]):
            ref = self.oracle_exponent(spec, s)
            assert abs(table(np.array(s)) - ref) <= 1e-6
            direct = (mc._far_exponent(spec, InterferenceField.INTER, s)
                      + mc._far_exponent(spec, InterferenceField.COEXIST, s))
            assert abs(direct - ref) <= 1e-9

    @pytest.mark.parametrize(
        "a, size",
        [(250.0, FixedSize(6)), (500.0, FixedSize(6)), (1000.0, PoissonSize(10.0))],
        ids=["a250m-FixedSize(6)", "FixedSize(6)", "a1000m-PoissonSize(10.0)"],
    )
    def test_lookup_matches_pchip(self, a, size):
        # the table's lattice-arithmetic lookup against SciPy's PCHIP
        # evaluation of the same nodes, bit for bit; the lattice's rounding
        # makes the arithmetic index one too high just below some breakpoints
        # at a = 250 m (where the wrong interval changes the value) and one
        # too low at others for every a
        spec = make_spec(link=reference_link(a=a), scenario=Scenario(Unordered(), size),
                         gammas=GAMMAS_16)
        link = spec.config.link
        table = mc._far_table(spec)
        s_a = link.a**link.alpha / (link.p_x0 * link.eta)
        per_decade = mc._TABLE_PER_DECADE
        k = np.arange(-per_decade * mc._TABLE_FLOOR_DECADES,
                      math.ceil(per_decade * math.log10(GAMMAS_16[-1])) + 3)
        lattice = s_a * 10.0 ** (k / per_decade)
        assert np.array_equal(np.log(lattice), table.x)
        lam = (mc._far_exponent(spec, InterferenceField.INTER, lattice)
               + mc._far_exponent(spec, InterferenceField.COEXIST, lattice))
        pchip = PchipInterpolator(np.log(lattice), np.log(lam))
        s_lo = lattice[0]
        lam_lo = np.exp(pchip(np.log(s_lo)))

        def reference(s):
            inside = np.exp(pchip(np.log(np.maximum(s, s_lo))))
            return np.where(s < s_lo, lam_lo * (s / s_lo), inside)

        rng = np.random.default_rng(3)
        # the request's range, r_typ <= a at every threshold, as a (threshold, trial) block
        spread = np.exp(rng.uniform(np.log(s_lo), np.log(GAMMAS_16[-1] * s_a), size=(10, 100)))
        # every breakpoint and the s around it down to single ulps of log s
        ulps = 1.0 + np.arange(-40, 41) * np.finfo(float).eps
        near = np.concatenate([
            lattice, np.nextafter(lattice, 0.0), np.nextafter(lattice, np.inf),
            (lattice[:, None] * ulps).ravel(),
        ])
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
        assert np.array_equal(mc._pchip_coefficients(x, y), pchip.c)
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
            assert np.array_equal(mc._pchip_coefficients(x, y), PchipInterpolator(x, y).c)
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
        # _pchip_coefficients serves only strictly increasing data: every
        # far table handed to it has a strictly increasing log Lambda
        tables = []

        def recorder(x, y, _build=mc._pchip_coefficients):
            tables.append((x, y))
            return _build(x, y)

        monkeypatch.setattr(mc, "_pchip_coefficients", recorder)
        specs = list(self.far_table_specs())
        for spec in specs:
            mc._build_far_table.cache_clear()  # build every table, shared or not
            mc._far_table(spec)
        # every one of these specs has other clusters beyond its near disc
        assert len(tables) == len(specs)
        for x, y in tables:
            assert np.isfinite(y).all()
            assert (np.diff(x) > 0.0).all() and (np.diff(y) > 0.0).all()

    @pytest.fixture
    def builds(self, monkeypatch):
        """A cold table memo and the number of annulus exponents computed since."""
        count = [0]

        def counter(*args, _exponent=mc._annulus_exponent):
            count[0] += 1
            return _exponent(*args)

        monkeypatch.setattr(mc, "_annulus_exponent", counter)
        mc._build_far_table.cache_clear()
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

    @pytest.mark.parametrize(
        "change",
        [{"link": reference_link(lambda_g=2.0 * BASE_DENSITY)}, {"link": reference_link(a=400.0)},
         {"link": dataclasses.replace(reference_link(), p_x0=50.0)}, {"window": math.inf},
         {"scenario": Scenario(Unordered(), FixedSize(7))},
         {"scenario": Scenario(Unordered(), PoissonSize(6.0))}, {"gammas": (20.0,)},
         "near radii"],
        ids=["lambda_g", "a", "p_x0", "window", "fixed-size", "poisson-size", "top", "near-radii"],
    )
    def test_changed_build_input_builds_a_new_table(self, builds, monkeypatch, change):
        base = mc._far_table(make_spec(gammas=(10.0,)))
        if change == "near radii":
            monkeypatch.setattr(mc, "NEAR_RADII", 4.0)
            change = {}
        table = mc._far_table(make_spec(**{"gammas": (10.0,), **change}))
        assert table is not base and builds[0] == 4
        assert not np.array_equal(table.coef, base.coef)

    @pytest.mark.parametrize("size", [FixedSize(6), PoissonSize(6.0)], ids=repr)
    def test_cold_and_warm_memo_give_the_same_bits(self, size):
        spec = make_spec(scenario=Scenario(Ordered(), size), trials=2048, gammas=GAMMAS_16,
                         workers=1)
        mc._build_far_table.cache_clear()
        cold = estimate_coverage(spec)
        warm = estimate_coverage(spec)
        mc._build_far_table.cache_clear()
        two_workers = estimate_coverage(make_spec(scenario=spec.scenario, trials=2048,
                                                  gammas=GAMMAS_16, workers=2))
        assert cold == warm == two_workers

    def test_cached_table_is_read_only(self):
        table = mc._far_table(make_spec(gammas=GAMMAS_16))
        # the guarded interval ends of the lookup
        assert table.x_lo[0] == -math.inf and table.x_hi[-1] == math.inf
        assert np.array_equal(table.x_lo[1:], table.x[1:-1])
        assert np.array_equal(table.x_hi[:-1], table.x[1:-1])
        for array in (table.x, table.coef, table.coef[2], table.x_lo, table.x_hi):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("field, size",
                             [("inter", FixedSize(6)), ("inter", PoissonSize(6.0)),
                              ("coexist", FixedSize(1))],
                             ids=["FixedSize(6)", "PoissonSize(6.0)", "coexist"])
    def test_exponent_independent_of_lattice_length(self, field, size):
        # the loads go through the kernel in blocks, yet each lattice value is
        # the same bits whatever the lattice's length and its position in a
        # block: a 1-threshold and a 16-threshold coverage request build
        # tables of different lengths and must agree on their shared nodes
        spec = make_spec(scenario=Scenario(Unordered(), size), gammas=GAMMAS_16)
        link = spec.config.link
        s = np.exp(mc._far_table(spec).x)  # the request's lattice, up to rounding
        # the loads as _far_exponent forms them
        if field == "inter":
            c, density, a = s * (link.p_x * link.eta), link.lambda_g, link.a
        else:
            c, density, a = s * (link.p_z * link.eta), link.lambda_co, 0.0
        rest = (density, a, size, mc._near_radius(spec.config), spec.config.window_radius,
                link.alpha)
        full = mc._annulus_exponent(c, *rest)
        assert len(c) == 163 and (full > 0.0).all()
        for m in (1, 31, 32, 33, len(c)):
            assert np.array_equal(mc._annulus_exponent(c[:m], *rest), full[:m])
        # shifted against the blocks
        assert np.array_equal(mc._annulus_exponent(c[17:], *rest), full[17:])
        for i in (0, 31, 32, 100, len(c) - 1):
            got = mc._annulus_exponent(c[i], *rest)
            assert np.shape(got) == () and got == full[i]
        # the shapes the callers pass: a transform request's 1-D s grid (a
        # tuple, through _far_exponent) and the oracle check's scalar s
        got = mc._far_exponent(spec, InterferenceField(field), tuple(s[:40]))
        assert got.shape == (40,) and np.array_equal(got, full[:40])
        got = mc._far_exponent(spec, InterferenceField(field), float(s[100]))
        assert np.shape(got) == () and got == full[100]
        assert mc._annulus_exponent(0.0, *rest) == 0.0
        assert not mc._annulus_exponent(np.zeros(3), *rest).any()

    def test_empty_annulus_changes_nothing(self):
        # W <= R0: no far factor at all, so the draws and estimates are the
        # plain simulation's
        spec = make_spec(window=1500.0, gammas=GAMMAS_16)
        assert mc._far_table(spec) is None
        for field in (InterferenceField.INTER, InterferenceField.COEXIST):
            assert not mc._far_exponent(spec, field, np.array([1e9, 1e12])).any()

    @pytest.mark.parametrize("field", [InterferenceField.INTER, InterferenceField.COEXIST])
    def test_transform_unit_at_zero_s(self, field):
        (est,) = estimate_laplace(make_spec(trials=500), field, (0.0,))
        assert est.mean == 1.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize(
        "scenario, a, trials, seeds",
        [(Scenario(Unordered(), FixedSize(6)), 500.0, 32768, (21, 22)),
         (Scenario(Ordered(), PoissonSize(6.0)), 500.0, 32768, (23, 24)),
         (Scenario(Ordered(), FixedSize(10)), 1000.0, 16384, (27, 28)),
         (Scenario(Unordered(), PoissonSize(10.0)), 1000.0, 16384, (29, 30))],
        ids=["UF-6", "OP-6", "OF-10-a1000m", "UP-10-a1000m"],
    )
    def test_hybrid_matches_plain_simulation(self, monkeypatch, scenario, a, trials, seeds):
        # near disc plus exact annulus against drawing the whole 20 km
        # window (R0 = W), at -20, -10 and 0 dB
        gammas = (0.01, 0.1, 1.0)
        link = reference_link(a=a)
        hybrid = estimate_coverage(
            make_spec(link=link, scenario=scenario, trials=trials, seed=seeds[0], gammas=gammas)
        )
        monkeypatch.setattr(mc, "NEAR_RADII", math.inf)
        plain = estimate_coverage(
            make_spec(link=link, scenario=scenario, trials=trials, seed=seeds[1], gammas=gammas)
        )
        for h, p in zip(hybrid, plain):
            assert abs(h.mean - p.mean) <= 3.0 * math.hypot(h.stderr, p.stderr)

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

        monkeypatch.setattr(mc, "_simulate_chunk", no_chunk)
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

    @pytest.mark.parametrize("size", [FixedSize(6), PoissonSize(6.0)], ids=repr)
    def test_intra_matches_closed_form(self, size):
        # an unordered typical node's in-cluster transform does not depend on
        # its own distance, so laplace_intra at u = 1 is the unconditional
        # transform.  Small s (1e3) is left out: there the deficit 1 - L comes
        # from rare close interferers and the replicate stderr is unreliable
        link = reference_link()
        scenario = Scenario(Unordered(), size)
        s_grid = (1e6, 1e9, 1e10)
        spec = make_spec(link=link, scenario=scenario, trials=8192, seed=31)
        for s, est in zip(s_grid, estimate_laplace(spec, InterferenceField.INTRA, s_grid)):
            beta = s * link.p_x * link.eta / link.a**link.alpha
            exact = laplace_intra(beta, 1.0, link.alpha, scenario)
            assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_unit_at_zero_s(self):
        ests = estimate_laplace(make_spec(trials=500), InterferenceField.INTRA, (0.0,))
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
        with pytest.raises(ValueError, match="finite"):
            estimate_laplace(spec, InterferenceField.INTRA, (0.0, s))


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

    Every row was re-recorded when the in-cluster radii became Latin-
    hypercube stratified in replicates of REPLICATE_TRIALS trials and the
    standard error came to be computed from the replicate sums, after the
    hybrid-vs-plain tests in TestFarField passed.  UF-6's INTER and COEXIST
    transforms draw no in-cluster radii, so their means moved by at most
    one ulp (the sum is now taken replicate by replicate) and only their
    stderr moved.  Their stderr was re-recorded once more, alone, when
    those two transforms went back to replicates of one trial (their
    trials are i.i.d.); the means are unchanged.  Those two rows date from
    when the drawn near disc shrank from 10 a to 3 a: at a = 500 m the 5 km
    window extends past R0 = 1.5 km, so they draw fewer nodes and take the
    annulus's exact factor.  The rows that draw the typical cluster (the
    coverage cases and both INTRA transforms) were re-recorded once more
    when the in-cluster interferers' fading came to be integrated out
    instead of drawn, after TestCalibrationScan passed: their draws lost
    the fading and their values its randomness, while the INTER and
    COEXIST rows, which draw no typical cluster, kept their bits.  The
    UP-6 and OP-6 coverage rows were re-recorded once more, alone, when the
    typical Poisson cluster's size came to be drawn given at least one
    interferer, stratified per replicate, with the lone-node stratum taken
    exactly: every other row, all of them fixed-size, kept its bits.  Any
    change in what is drawn, or in which order, moves the rows by
    O(stderr), far past the tolerance.
    """

    COVERAGE = {
        "UF-6": [
            (0.7124827224619484, 0.0034648433412583137),
            (0.35954036258722577, 0.003395627157947304),
            (0.10634181940699299, 0.0030852518850728117),
        ],
        "UP-6": [
            (0.7189084774664761, 0.005151566552286966),
            (0.38911563941205396, 0.004216867457992534),
            (0.13493689628856687, 0.003457918838866033),
        ],
        "OF-6": [
            (0.49746468319716336, 0.0033863883575413352),
            (0.08313898172574645, 0.001975556042771363),
            (0.0003320125596669388, 2.2436934049361423e-05),
        ],
        "OP-6": [
            (0.518864470038173, 0.0049158365341589235),
            (0.1339004005103355, 0.0028361205302760476),
            (0.012289041106550333, 0.0007262220434996497),
        ],
        "O2-F4-intra": [
            (0.8736535090429205, 0.004496051484873816),
            (0.589830680314984, 0.005193914525771646),
            (0.12861016155345173, 0.0022369473295366163),
        ],
    }
    S_GRID = (0.0, 1e3, 1e6, 1e9)
    LAPLACE = {
        ("UF-6", InterferenceField.INTRA): [
            (1.0, 0.0),
            (0.999964096561513, 1.754871278976076e-05),
            (0.9898783680087514, 0.0016235546447803512),
            (0.600072108454962, 0.002631205457034078),
        ],
        ("UF-6", InterferenceField.INTER): [
            (1.0, 0.0),
            (0.9999989407368236, 3.784608621591909e-07),
            (0.9990375129138644, 0.0003227578044858732),
            (0.9454055550818302, 0.004578136550241316),
        ],
        ("UF-6", InterferenceField.COEXIST): [
            (1.0, 0.0),
            (0.9999998865250869, 6.132056234285086e-08),
            (0.9998892816287598, 5.9203928834849755e-05),
            (0.987502594799027, 0.002118233375154157),
        ],
        ("O2-F4-intra", InterferenceField.INTRA): [
            (1.0, 0.0),
            (0.9998825307481151, 9.978615451537369e-05),
            (0.9927462037034913, 0.0013952210229889067),
            (0.7022743102661437, 0.003140929942314456),
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
