import numpy as np
import pytest
from scipy import integrate, stats

from clustercov.geometry import (
    conditional_interferer_pdf,
    ordered_distance_pdf,
    unordered_distance_pdf,
)


class TestDistancePdfs:
    def test_unordered_endpoint_and_support(self):
        a = 400.0
        assert unordered_distance_pdf(a, a) == pytest.approx(2.0 / a, rel=1e-14)
        assert unordered_distance_pdf(1.5 * a, a) == 0.0
        assert unordered_distance_pdf(-1.0, a) == 0.0

    def test_unordered_normalisation(self):
        a = 250.0
        total, _ = integrate.quad(lambda r: unordered_distance_pdf(r, a), 0.0, a)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_ordered_reduces_to_unordered(self):
        a = 500.0
        r = np.linspace(0.0, a, 50)
        assert np.allclose(
            ordered_distance_pdf(r, 1, 1, a), unordered_distance_pdf(r, a), rtol=1e-12
        )

    def test_ordered_farthest_endpoint(self):
        # k = n = 6 at r = a: 2 n r^(2n-1)/a^(2n) = 12/a
        a = 500.0
        assert ordered_distance_pdf(a, 6, 6, a) == pytest.approx(12.0 / a, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    def test_ordered_normalisation(self, n):
        a = 300.0
        for k in range(1, n + 1):
            total, _ = integrate.quad(
                lambda r: ordered_distance_pdf(r, k, n, a), 0.0, a, limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_order_statistic_mixture_identity(self):
        # averaging the k-th order-statistic densities over k recovers the
        # unordered density
        a, n = 500.0, 7
        r = np.linspace(1.0, a - 1.0, 200)
        mixture = sum(ordered_distance_pdf(r, k, n, a) for k in range(1, n + 1)) / n
        assert np.allclose(mixture, unordered_distance_pdf(r, a), atol=1e-8 * 2.0 / a)

    def test_ordered_matches_sampled_order_statistics(self):
        a, n, k = 100.0, 6, 3
        rng = np.random.default_rng(7)
        radii = a * np.sqrt(rng.uniform(size=(100000, n)))
        kth = np.sort(radii, axis=1)[:, k - 1]
        edges = np.linspace(0.0, a, 21)
        observed, _ = np.histogram(kth, bins=edges)
        expected = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mass, _ = integrate.quad(lambda r: ordered_distance_pdf(r, k, n, a), lo, hi)
            expected.append(mass * len(kth))
        result = stats.chisquare(observed, np.asarray(expected))
        assert result.pvalue > 0.01

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            ordered_distance_pdf(10.0, 3, 2, 100.0)


class TestConditionalPdf:
    def test_near_endpoint(self):
        near, far = conditional_interferer_pdf(80.0, 80.0, 100.0)
        assert near == pytest.approx(2.0 / 80.0, rel=1e-14)
        assert far == 0.0

    def test_branch_normalisation(self):
        a, r_k = 100.0, 60.0
        near_total, _ = integrate.quad(
            lambda r: conditional_interferer_pdf(r, r_k, a)[0], 0.0, r_k
        )
        far_total, _ = integrate.quad(
            lambda r: conditional_interferer_pdf(r, r_k, a)[1], r_k, a
        )
        assert near_total == pytest.approx(1.0, abs=1e-10)
        assert far_total == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_far_branch_is_empty(self):
        r = np.linspace(0.0, 100.0, 11)
        near, far = conditional_interferer_pdf(r, 100.0, 100.0)
        assert np.all(far == 0.0)
        assert near[-1] == pytest.approx(2.0 / 100.0, rel=1e-14)

    def test_branches_match_conditioned_samples(self):
        # probability-integral transform: given the rank-k radius, squared
        # near radii normalised by it (and far radii by the annulus) are
        # uniform under the branch densities
        a, n, k = 100.0, 6, 3
        rng = np.random.default_rng(8)
        radii = np.sort(a * np.sqrt(rng.uniform(size=(20000, n))), axis=1)
        r_k = radii[:, k - 1 : k]
        u_near = (radii[:, : k - 1] / r_k) ** 2
        u_far = (radii[:, k:] ** 2 - r_k**2) / (a**2 - r_k**2)
        for u in (u_near.ravel(), u_far.ravel()):
            observed, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
            result = stats.chisquare(observed)
            assert result.pvalue > 0.01

    def test_invalid_conditioning(self):
        with pytest.raises(ValueError):
            conditional_interferer_pdf(10.0, 0.0, 100.0)
        with pytest.raises(ValueError):
            conditional_interferer_pdf(10.0, 101.0, 100.0)
