import csv
import math

import numpy as np
import pytest
from scipy import stats

import clustercov as cc
import clustercov.mc as mc
from clustercov.coverage import (
    BoundSide,
    CoverageResult,
    Interference,
    Method,
    Ordered,
    Scenario,
    Unordered,
)
from clustercov.mc import InterferenceField, SimSpec, estimate_coverage, estimate_laplace
from clustercov.metrics import ase_ee
from clustercov.params import FixedSize, NetworkConfig, PoissonSize

from conftest import BASE_DENSITY, reference_link


def make_spec(link=None, scenario=None, trials=4000, seed=21, gammas=(0.1,), **kw):
    link = link or reference_link()
    scenario = scenario or Scenario(Unordered(), FixedSize(6))
    return SimSpec(
        config=NetworkConfig(link=link, window_radius=20000.0),
        scenario=scenario,
        trials=trials,
        seed=seed,
        gamma_grid=gammas,
        **kw,
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record every kernel call's arguments, passing through to the kernel."""
    calls = {"radial_sums": [], "inter_sums": []}
    for name, log in calls.items():
        def recorder(*args, _kernel=getattr(mc, name), _log=log):
            _log.append(args)
            return _kernel(*args)

        monkeypatch.setattr(mc, name, recorder)
    return calls


def typical_nodes(calls):
    """(radius, weight, trial) of every typical-cluster node, chunks joined.

    Valid when the coexisting field is off, so that every radial_sums call
    is the typical cluster's.
    """
    radii, weights, trials, offset = [], [], [], 0
    for r, h, trial, n_out, _ in calls["radial_sums"]:
        radii.append(r)
        weights.append(h)
        trials.append(trial + offset)
        offset += n_out
    return np.concatenate(radii), np.concatenate(weights), np.concatenate(trials)


def isolated_spec(size, ordering=None, trials=4000, **kw):
    link = reference_link(lambda_g=0.0, lambda_co=0.0)
    return make_spec(
        link=link, scenario=Scenario(ordering or Unordered(), size),
        trials=trials, workers=1, **kw,
    )


class TestEngineSampling:
    """The engine's draws, observed at the kernel seam."""

    def test_typical_radii_uniform_on_disc(self, kernel_calls):
        estimate_coverage(isolated_spec(FixedSize(6)))
        r, _, _ = typical_nodes(kernel_calls)
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
        # the typical node enters the in-cluster sum with zero weight
        estimate_coverage(isolated_spec(size, ordering, trials=1500))
        _, h, trial = typical_nodes(kernel_calls)
        zeros = np.bincount(trial[h == 0.0], minlength=1500)
        assert np.all(zeros == 1)

    @pytest.mark.parametrize(
        "k, column", [(1, 0), (2, 1), (None, 4)], ids=["k1", "k2", "farthest"]
    )
    def test_ordered_typical_is_kth_closest(self, kernel_calls, k, column):
        estimate_coverage(isolated_spec(FixedSize(5), Ordered(k), trials=1000))
        r, h, _ = typical_nodes(kernel_calls)
        r, h = r.reshape(-1, 5), h.reshape(-1, 5)
        assert np.array_equal(r[h == 0.0], np.sort(r, axis=1)[:, column])

    def test_poisson_typical_cluster_size(self, kernel_calls):
        # one typical node plus Poisson(nbar - 1) in-cluster interferers
        trials, nbar = 20000, 3.0
        estimate_coverage(isolated_spec(PoissonSize(nbar), trials=trials))
        _, _, trial = typical_nodes(kernel_calls)
        sizes = np.bincount(trial, minlength=trials)
        assert sizes.min() >= 1
        hi = 8
        observed = np.bincount(np.minimum(sizes - 1, hi), minlength=hi + 1)
        pmf = stats.poisson.pmf(np.arange(hi + 1), nbar - 1.0)
        pmf[hi] = 1.0 - pmf[:hi].sum()
        assert stats.chisquare(observed, pmf * trials).pvalue > 0.01

    def test_parent_count_matches_window_mean(self, kernel_calls):
        trials = 500
        spec = make_spec(trials=trials, workers=1)
        estimate_coverage(spec)
        parents = sum(len(args[0]) for args in kernel_calls["inter_sums"])
        # lambda_g * pi * R^2 = 160 for the reference density at 20 km
        expected = BASE_DENSITY * math.pi * spec.config.window_radius**2
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

    def test_noise_limited_trace_sinr(self, kernel_calls, tmp_path):
        # one node, no interferers: SINR = p_x0 eta h r^-alpha / sigma2
        spec = isolated_spec(FixedSize(1), trials=300, seed=21)
        path = tmp_path / "trace.csv"
        estimate_coverage(spec, trace_path=path)
        assert kernel_calls["inter_sums"] == []
        ((r, *_),) = kernel_calls["radial_sums"]  # no coexistence call either
        # replay the chunk's stream: radius draws, then fading draws
        rng = np.random.default_rng(np.random.SeedSequence(entropy=21, spawn_key=(0,)))
        link = spec.config.link
        assert np.array_equal(r, link.a * np.sqrt(rng.uniform(size=300)))
        h = rng.exponential(1.0, size=300)
        with open(path, newline="") as fh:
            sinr = np.array([float(row["sinr"]) for row in csv.DictReader(fh)])
        expected = link.p_x0 * link.eta * h * r**-link.alpha / link.sigma2
        np.testing.assert_allclose(sinr, expected, rtol=1e-14, atol=0.0)


class TestDeterminism:
    def test_identical_specs_identical_estimates(self):
        spec = make_spec(trials=3000, gammas=(0.05, 0.1, 0.2))
        first = estimate_coverage(spec)
        second = estimate_coverage(spec)
        assert [e.mean for e in first] == [e.mean for e in second]
        assert [e.stderr for e in first] == [e.stderr for e in second]

    def test_worker_count_invisible(self):
        base = make_spec(trials=3000, gammas=(0.05, 0.2), chunk_trials=256)
        serial = estimate_coverage(base)
        parallel = estimate_coverage(
            make_spec(trials=3000, gammas=(0.05, 0.2), chunk_trials=256, workers=3)
        )
        assert [e.mean for e in serial] == [e.mean for e in parallel]

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
        (est,) = estimate_coverage(make_spec(trials=1))
        assert est.mean in (0.0, 1.0)
        assert est.stderr == 0.0


class TestCoverageEstimates:
    def test_shared_realizations_give_monotone_curve(self):
        gammas = tuple(10.0 ** (db / 10.0) for db in range(-20, 11, 2))
        estimates = estimate_coverage(make_spec(trials=4000, gammas=gammas))
        means = [e.mean for e in estimates]
        assert all(x >= y for x, y in zip(means, means[1:]))

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

    def test_intra_limited_matches_proposition(self, quad50):
        scen = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        spec = make_spec(scenario=scen, trials=20000)
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

    def test_farthest_rank_hurts_coverage(self):
        far = estimate_coverage(make_spec(scenario=Scenario(Ordered(), FixedSize(6))))
        near = estimate_coverage(make_spec(scenario=Scenario(Ordered(1), FixedSize(6))))
        assert near[0].mean > far[0].mean

    def test_empty_gamma_grid_rejected(self):
        with pytest.raises(ValueError):
            estimate_coverage(make_spec(gammas=()))


class TestLaplaceEstimates:
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


class TestTrace:
    def test_trace_file_schema(self, tmp_path):
        path = tmp_path / "trace.csv"
        spec = make_spec(trials=300, gammas=(0.1,))
        (est,) = estimate_coverage(spec, trace_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "sinr", "covered"]
        assert len(rows) == 301
        covered = sum(int(row[2]) for row in rows[1:])
        assert covered == round(est.mean * 300)


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
