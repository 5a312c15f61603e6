import pytest

from clustercov import oracles
from clustercov.coverage import (
    BoundSide,
    CoverageResult,
    Interference,
    Method,
    Ordered,
    Scenario,
    Unordered,
    coverage,
    coverage_intra_limited,
    coverage_ordered_exact,
    coverage_ordered_gc,
    coverage_unordered_exact,
    coverage_unordered_gc,
)
from clustercov.params import FixedSize, PoissonSize

from conftest import reference_link

UF = Scenario(Unordered(), FixedSize(6))
UR = Scenario(Unordered(), PoissonSize(6.0))
OF = Scenario(Ordered(), FixedSize(6))
OR = Scenario(Ordered(), PoissonSize(6.0))
ALL_SCENARIOS = (UF, UR, OF, OR)


class TestLimits:
    def test_tends_to_one_at_vanishing_threshold(self, fig_link, quad50):
        for scen in ALL_SCENARIOS:
            assert coverage(1e-8, scen, fig_link, quad=quad50).value >= 1.0 - 1e-3

    def test_decays_at_huge_threshold(self, fig_link, quad50):
        gamma = 10.0**6  # +60 dB
        for scen in ALL_SCENARIOS:
            assert coverage(gamma, scen, fig_link, quad=quad50).value <= 1e-3

    def test_noise_only_matches_quadrature(self):
        # no interferers at all: the exact integral collapses to the
        # noise-attenuated distance average
        link = reference_link(lambda_g=0.0, lambda_co=0.0)
        scen = Scenario(Unordered(), FixedSize(1))
        gamma = 10.0**4  # strong enough that the noise factor bites
        ref = oracles.noise_only_coverage_integral(gamma, link)
        assert ref < 0.9  # the check must exercise the noise term
        got = coverage_unordered_exact(gamma, scen, link).value
        assert got == pytest.approx(ref, rel=1e-6)

    def test_unit_without_interference_or_noise(self, quad50):
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        assert coverage_unordered_gc(0.1, Scenario(Unordered(), FixedSize(1)), link, quad50).value == 1.0
        assert coverage_ordered_gc(0.1, Scenario(Ordered(), FixedSize(1)), link, quad50).value == 1.0
        exact = coverage_ordered_exact(0.1, Scenario(Ordered(), FixedSize(1)), link)
        assert exact.value == pytest.approx(1.0, abs=1e-9)


class TestCrossMethod:
    @pytest.mark.parametrize("scen", ALL_SCENARIOS, ids=lambda s: s.tag())
    @pytest.mark.parametrize("gamma_db", [-20, -10, 0, 10])
    def test_gc_matches_exact(self, scen, gamma_db, fig_link, quad50):
        gamma = 10.0 ** (gamma_db / 10.0)
        exact = coverage(gamma, scen, fig_link, method=Method.EXACT_INTEGRAL)
        approx = coverage(gamma, scen, fig_link, method=Method.GAUSS_CHEBYSHEV, quad=quad50)
        assert abs(exact.value - approx.value) <= 1e-3

    def test_monotone_in_threshold(self, fig_link, quad50):
        for scen in ALL_SCENARIOS:
            values = [
                coverage(10.0 ** (db / 10.0), scen, fig_link, quad=quad50).value
                for db in range(-20, 11, 2)
            ]
            assert all(x >= y for x, y in zip(values, values[1:]))

    def test_unordered_dominates_farthest(self, fig_link, quad50):
        for size in (FixedSize(6), PoissonSize(6.0)):
            u = coverage(0.1, Scenario(Unordered(), size), fig_link, quad=quad50).value
            o = coverage(0.1, Scenario(Ordered(), size), fig_link, quad=quad50).value
            assert u >= o


class TestIntraLimited:
    def test_single_node_has_unit_coverage(self, quad50):
        scen = Scenario(Unordered(), FixedSize(1), Interference.INTRA_LIMITED)
        assert coverage_intra_limited(0.1, scen, reference_link(), quad50).value == 1.0

    def test_independent_of_cluster_radius(self, quad50):
        scen = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        values = {
            coverage_intra_limited(0.1, scen, reference_link(a=a), quad50).value
            for a in (100.0, 500.0, 1000.0)
        }
        assert len(values) == 1  # bit-identical, the radius never enters

    def test_poisson_variant_also_radius_free(self, quad50):
        scen = Scenario(Unordered(), PoissonSize(6.0), Interference.INTRA_LIMITED)
        values = {
            coverage_intra_limited(0.1, scen, reference_link(a=a), quad50).value
            for a in (100.0, 1000.0)
        }
        assert len(values) == 1

    def test_upper_bounds_full_interference(self, fig_link, quad50):
        scen_lim = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        limited = coverage_intra_limited(0.1, scen_lim, fig_link, quad50).value
        full = coverage_unordered_gc(0.1, UF, fig_link, quad50).value
        assert limited > full

    def test_dispatcher_routes_here(self, fig_link, quad50):
        scen = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        direct = coverage_intra_limited(0.1, scen, fig_link, quad50)
        routed = coverage(0.1, scen, fig_link, quad=quad50)
        assert routed.value == direct.value
        assert routed.bound_side is BoundSide.EXACT

    def test_requires_matching_scenario(self, fig_link, quad50):
        with pytest.raises(ValueError):
            coverage_intra_limited(0.1, UF, fig_link, quad50)


class TestContracts:
    def test_bound_side_tags(self, fig_link, quad50):
        assert coverage(0.1, UF, fig_link, quad=quad50).bound_side is BoundSide.UPPER
        assert coverage(0.1, UR, fig_link, quad=quad50).bound_side is BoundSide.LOWER
        assert coverage(0.1, OF, fig_link, quad=quad50).bound_side is BoundSide.UPPER
        assert coverage(0.1, OR, fig_link, quad=quad50).bound_side is BoundSide.LOWER

    def test_ordering_mismatch_rejected(self, fig_link):
        with pytest.raises(ValueError):
            coverage_unordered_exact(0.1, OF, fig_link)
        with pytest.raises(ValueError):
            coverage_ordered_exact(0.1, UF, fig_link)

    def test_threshold_must_be_positive(self, fig_link):
        with pytest.raises(ValueError):
            coverage_unordered_exact(0.0, UF, fig_link)
        with pytest.raises(ValueError):
            coverage_unordered_exact(-0.5, UF, fig_link)

    def test_explicit_rank(self, fig_link, quad50):
        # closer ranks see less path loss, so coverage improves
        values = [
            coverage(0.1, Scenario(Ordered(k), FixedSize(6)), fig_link, quad=quad50).value
            for k in (1, 3, 6)
        ]
        assert values[0] > values[1] > values[2]

    def test_rank_beyond_cluster_rejected(self, fig_link):
        with pytest.raises(ValueError):
            coverage_ordered_gc(0.1, Scenario(Ordered(7), FixedSize(6)), fig_link)

    def test_fractional_mean_uses_ceiling(self, fig_link, quad50):
        # the order-statistic factor needs an integer size; 5.5 rounds up
        frac = coverage_ordered_gc(0.1, Scenario(Ordered(), PoissonSize(5.5)), fig_link, quad50)
        assert 0.0 <= frac.value <= 1.0
        with pytest.raises(ValueError):
            coverage_ordered_gc(0.1, Scenario(Ordered(7), PoissonSize(5.5)), fig_link, quad50)

    def test_rank_with_poisson_rejected(self):
        # the Poisson in-cluster transform assumes every interferer lies
        # inside the typical distance, which holds only for the farthest node
        for k in (1, 3):
            with pytest.raises(ValueError, match="fixed cluster size"):
                Scenario(Ordered(k), PoissonSize(6.0))
        assert OR.ordering.k is None

    def test_result_validation(self):
        with pytest.raises(ValueError):
            CoverageResult(1.5, Method.GAUSS_CHEBYSHEV, BoundSide.UPPER, 0.1)
        with pytest.raises(ValueError):
            CoverageResult(0.5, Method.GAUSS_CHEBYSHEV, BoundSide.UPPER, 0.1, ci_halfwidth=0.1)
        with pytest.raises(ValueError):
            CoverageResult(0.5, Method.MONTE_CARLO, BoundSide.ESTIMATE, 0.1)

    def test_scenario_tags(self):
        assert UF.tag() == "unordered/fixed-n6"
        assert OR.tag() == "ordered-farthest/poisson-nbar6"
        assert Scenario(Ordered(2), FixedSize(3)).tag() == "ordered-k2/fixed-n3"
        lim = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        assert lim.tag().endswith("/intra-limited")

    def test_exact_integral_tolerance_respected(self, fig_link):
        tight = coverage_unordered_exact(0.1, UF, fig_link, int_tol=1e-10)
        loose = coverage_unordered_exact(0.1, UF, fig_link, int_tol=1e-4)
        assert tight.value == pytest.approx(loose.value, rel=1e-3)
