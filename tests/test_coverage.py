import dataclasses

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
)
from clustercov.params import FixedSize, PoissonSize

from conftest import reference_link

EXACT = Method.EXACT_INTEGRAL
UF = Scenario(Unordered(), FixedSize(6))
UR = Scenario(Unordered(), PoissonSize(6.0))
OF = Scenario(Ordered(), FixedSize(6))
OR = Scenario(Ordered(), PoissonSize(6.0))
O3F = Scenario(Ordered(3), FixedSize(6))
ALL_SCENARIOS = (UF, UR, OF, OR)

# (alpha, scenario, threshold dB, GC value, exact value) on the reference
# link, recorded with the five scenario-specific coverage functions that
# the single composition replaced (GC at T = M = 50).
PINNED = [
    (3.5, UF, -20, 0.7212275647777077, 0.720519391050702),
    (3.5, UF, -10, 0.3633874503227335, 0.36303294266769415),
    (3.5, UF, 0, 0.10741585188307184, 0.10731148958882748),
    (3.5, UF, 10, 0.028829186499459643, 0.02880119808423139),
    (3.5, UR, -20, 0.7161303174243756, 0.7160494985948073),
    (3.5, UR, -10, 0.37600341979857055, 0.37599061916259496),
    (3.5, UR, 0, 0.12230739399882933, 0.12231171403185033),
    (3.5, UR, 10, 0.033465799204496424, 0.0334675619347598),
    (3.5, OF, -20, 0.5068374276159859, 0.5058726017386301),
    (3.5, OF, -10, 0.08704063893905187, 0.08685498513575368),
    (3.5, OF, 0, 0.0003389315081328794, 0.0003380379291826259),
    (3.5, OF, 10, 2.8308372342348053e-09, 2.8232842431026536e-09),
    (3.5, OR, -20, 0.5090657740168542, 0.5085736425004215),
    (3.5, OR, -10, 0.11974963875903061, 0.1196462631640746),
    (3.5, OR, 0, 0.006846493533927044, 0.006843861727614473),
    (3.5, OR, 10, 0.00010503731967567768, 0.00010508482549829721),
    (3.5, O3F, -20, 0.7481812168412473, 0.7475324899600428),
    (3.5, O3F, -10, 0.32476247414218457, 0.32443765085191834),
    (3.5, O3F, 0, 0.014996275498412223, 0.014975190667943221),
    (3.5, O3F, 10, 1.6394214976218334e-05, 1.6365691296968335e-05),
    (4.2, UF, -20, 0.6470405107581502, 0.6464083472416691),
    (4.2, UF, -10, 0.31463773484755786, 0.31433698722066383),
    (4.2, UF, 0, 0.10760673078047212, 0.10750466739972316),
    (4.2, UF, 10, 0.03594586565039163, 0.0359117857411216),
    (4.2, UR, -20, 0.6426348866498505, 0.6425734989281814),
    (4.2, UR, -10, 0.3248090379867691, 0.3248040159785488),
    (4.2, UR, 0, 0.11359234634855261, 0.1135940747327303),
    (4.2, UR, 10, 0.03794583555302887, 0.03794643320400194),
    (4.2, OF, -20, 0.38539640114415313, 0.3846520823557189),
    (4.2, OF, -10, 0.0396049945828658, 0.03952200344838709),
    (4.2, OF, 0, 9.05497086647871e-06, 9.03633314275937e-06),
    (4.2, OF, 10, 8.903766277006044e-13, 8.881923340693611e-13),
    (4.2, OR, -20, 0.3933882749721981, 0.3930149442924643),
    (4.2, OR, -10, 0.06242194800507534, 0.06237663772031048),
    (4.2, OR, 0, 0.00031778086428706453, 0.00031788908846751485),
    (4.2, OR, 10, 1.895684397198582e-07, 1.897102370031256e-07),
    (4.2, O3F, -20, 0.6748765986073505, 0.6742796660018842),
    (4.2, O3F, -10, 0.255834694231305, 0.2555685197320991),
    (4.2, O3F, 0, 0.008129638414423658, 0.00811780970998704),
    (4.2, O3F, 10, 9.155444638377217e-06, 9.139707745465636e-06),
]


class TestPinnedValues:
    @pytest.mark.parametrize("alpha, scen, gamma_db, gc, exact", PINNED)
    def test_matches_recorded_values(self, alpha, scen, gamma_db, gc, exact, quad50):
        link = reference_link(alpha=alpha)
        gamma = 10.0 ** (gamma_db / 10.0)
        got_gc = coverage(gamma, scen, link, quad=quad50).value
        got_exact = coverage(gamma, scen, link, method=EXACT).value
        assert abs(got_gc - gc) <= 1e-12
        assert abs(got_exact - exact) <= max(1e-9 * exact, 1e-13)


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
        got = coverage(gamma, scen, link, method=EXACT).value
        assert got == pytest.approx(ref, rel=1e-6)

    def test_unit_without_interference_or_noise(self, quad50):
        link = reference_link(lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        assert coverage(0.1, Scenario(Unordered(), FixedSize(1)), link, quad=quad50).value == 1.0
        assert coverage(0.1, Scenario(Ordered(), FixedSize(1)), link, quad=quad50).value == 1.0
        exact = coverage(0.1, Scenario(Ordered(), FixedSize(1)), link, method=EXACT)
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
        assert coverage(0.1, scen, reference_link(), quad=quad50).value == 1.0

    def test_independent_of_cluster_radius(self, quad50):
        scen = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        values = {
            coverage(0.1, scen, reference_link(a=a), quad=quad50).value
            for a in (100.0, 500.0, 1000.0)
        }
        assert len(values) == 1  # bit-identical, the radius never enters

    def test_poisson_variant_also_radius_free(self, quad50):
        scen = Scenario(Unordered(), PoissonSize(6.0), Interference.INTRA_LIMITED)
        values = {
            coverage(0.1, scen, reference_link(a=a), quad=quad50).value
            for a in (100.0, 1000.0)
        }
        assert len(values) == 1

    def test_upper_bounds_full_interference(self, fig_link, quad50):
        scen_lim = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        limited = coverage(0.1, scen_lim, fig_link, quad=quad50).value
        full = coverage(0.1, UF, fig_link, quad=quad50).value
        assert limited > full

    def test_dispatcher_routes_here(self, fig_link, quad50):
        # intra-limited is the full composition with noise and fields zeroed
        scen = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        bare = dataclasses.replace(fig_link, lambda_g=0.0, lambda_co=0.0, sigma2=0.0)
        direct = coverage(0.1, UF, bare, quad=quad50)
        routed = coverage(0.1, scen, fig_link, quad=quad50)
        assert routed.value == direct.value
        assert routed.bound_side is BoundSide.EXACT

    @pytest.mark.parametrize("size", [FixedSize(6), PoissonSize(6.0)], ids=["fixed", "poisson"])
    def test_gc_matches_exact(self, size, fig_link, quad50):
        scen = Scenario(Unordered(), size, Interference.INTRA_LIMITED)
        for gamma_db in (-20, -10, 0, 10):
            gamma = 10.0 ** (gamma_db / 10.0)
            exact = coverage(gamma, scen, fig_link, method=EXACT).value
            approx = coverage(gamma, scen, fig_link, quad=quad50).value
            assert abs(exact - approx) <= 1e-3


class TestContracts:
    def test_bound_side_tags(self, fig_link, quad50):
        assert coverage(0.1, UF, fig_link, quad=quad50).bound_side is BoundSide.UPPER
        assert coverage(0.1, UR, fig_link, quad=quad50).bound_side is BoundSide.LOWER
        assert coverage(0.1, OF, fig_link, quad=quad50).bound_side is BoundSide.UPPER
        assert coverage(0.1, OR, fig_link, quad=quad50).bound_side is BoundSide.LOWER

    def test_threshold_must_be_positive(self, fig_link):
        with pytest.raises(ValueError):
            coverage(0.0, UF, fig_link, method=EXACT)
        with pytest.raises(ValueError):
            coverage(-0.5, UF, fig_link, method=EXACT)

    def test_monte_carlo_method_rejected(self, fig_link):
        with pytest.raises(ValueError, match="analytical method"):
            coverage(0.1, UF, fig_link, method=Method.MONTE_CARLO)

    def test_explicit_rank(self, fig_link, quad50):
        # closer ranks see less path loss, so coverage improves
        values = [
            coverage(0.1, Scenario(Ordered(k), FixedSize(6)), fig_link, quad=quad50).value
            for k in (1, 3, 6)
        ]
        assert values[0] > values[1] > values[2]

    def test_rank_beyond_cluster_rejected(self, fig_link):
        # rejected where the scenario is built, so neither the closed forms
        # nor Monte Carlo can be handed a rank the cluster does not have
        for k in (7, 50):
            with pytest.raises(ValueError, match="exceeds the cluster size"):
                Scenario(Ordered(k), FixedSize(6))
        assert coverage(0.1, Scenario(Ordered(6), FixedSize(6)), fig_link).value == (
            coverage(0.1, OF, fig_link).value
        )

    def test_fractional_mean_uses_ceiling(self, fig_link, quad50):
        # the order-statistic factor needs an integer size; 5.5 rounds up
        frac = coverage(0.1, Scenario(Ordered(), PoissonSize(5.5)), fig_link, quad=quad50)
        assert 0.0 <= frac.value <= 1.0
        with pytest.raises(ValueError):
            coverage(0.1, Scenario(Ordered(7), PoissonSize(5.5)), fig_link, quad=quad50)

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
            CoverageResult(0.5, Method.GAUSS_CHEBYSHEV, BoundSide.UPPER, 0.1, stderr=0.1)
        with pytest.raises(ValueError):
            CoverageResult(0.5, Method.MONTE_CARLO, BoundSide.ESTIMATE, 0.1)

    def test_scenario_tags(self):
        assert UF.tag() == "unordered/fixed-n6"
        assert OR.tag() == "ordered-farthest/poisson-nbar6"
        assert Scenario(Ordered(2), FixedSize(3)).tag() == "ordered-k2/fixed-n3"
        lim = Scenario(Unordered(), FixedSize(6), Interference.INTRA_LIMITED)
        assert lim.tag().endswith("/intra-limited")

    def test_exact_integral_tolerance_respected(self, fig_link):
        tight = coverage(0.1, UF, fig_link, method=EXACT, int_tol=1e-10)
        loose = coverage(0.1, UF, fig_link, method=EXACT, int_tol=1e-4)
        assert tight.value == pytest.approx(loose.value, rel=1e-3)
