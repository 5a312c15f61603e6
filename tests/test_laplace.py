import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercov import oracles
from clustercov.laplace import laplace_coexist, laplace_inter, laplace_intra
from clustercov.params import FixedSize, LinkParams, Ordered, PoissonSize, Scenario, Unordered
from clustercov.special import make_quadrature

from conftest import reference_link

LINK = reference_link()
UF6 = Scenario(Unordered(), FixedSize(6))
OR6 = Scenario(Ordered(), PoissonSize(6.0))


def s_at(r: float, gamma_th: float = 0.1) -> float:
    """Transform argument rho = r^alpha gamma / (p_x0 eta) of the coverage chain."""
    return r**LINK.alpha * gamma_th / (LINK.p_x0 * LINK.eta)


def intra(s, size, ordering=Unordered(), r=None, quad=None, link=LINK):
    """laplace_intra at transform variable s, typical node at distance r (m)."""
    beta = s * link.p_x * link.eta / link.a**link.alpha
    u = (link.a if r is None else r) / link.a
    return laplace_intra(beta, u, link.alpha, Scenario(ordering, size), quad)


S_GRID = [s_at(r, g) for r in (50.0, 250.0, 500.0) for g in (0.01, 0.1, 10.0)]


class TestTrivialValues:
    def test_unit_at_zero_s(self):
        quad = make_quadrature(30, 1)
        assert intra(0.0, FixedSize(6)) == 1.0
        assert intra(0.0, PoissonSize(6.0)) == 1.0
        assert intra(0.0, FixedSize(6), quad=quad) == 1.0
        assert intra(0.0, PoissonSize(6.0), quad=quad) == 1.0
        assert laplace_inter(0.0, FixedSize(6), LINK) == 1.0
        assert laplace_inter(0.0, PoissonSize(6.0), LINK) == 1.0
        assert laplace_coexist(0.0, LINK) == 1.0
        assert intra(0.0, FixedSize(6), Ordered(3), 100.0) == 1.0
        assert intra(0.0, PoissonSize(6.0), Ordered(), 100.0) == 1.0
        assert intra(0.0, FixedSize(6), Ordered(3), 100.0, quad) == 1.0
        assert intra(0.0, PoissonSize(6.0), Ordered(), 100.0, quad) == 1.0

    def test_unit_with_no_interferers(self):
        quad = make_quadrature(30, 1)
        s = s_at(300.0)
        assert intra(s, FixedSize(1)) == 1.0
        assert intra(s, PoissonSize(1.0)) == 1.0
        assert intra(s, FixedSize(1), quad=quad) == 1.0
        assert intra(s, FixedSize(1), Ordered(1), 100.0) == 1.0
        assert intra(s, PoissonSize(1.0), Ordered(), 100.0) == 1.0

    def test_subnormal_load_takes_zero_limit(self):
        # 1/beta overflows to inf here, and the exact disc mean used to
        # return inf * 0 = nan instead of its beta -> 0 limit
        assert laplace_intra(1e-310, 1.0, 3.5, UF6) == 1.0
        assert laplace_intra(1e-310, 0.5, 3.5, Scenario(Ordered(3), FixedSize(6))) == 1.0

    def test_exact_elementwise_over_arrays(self):
        # the exact coverage integrand evaluates a round's nodes in one call;
        # a zero load, a load whose inverse overflows and the rim u = 1 share
        # the array with ordinary entries and keep their scalar values
        beta = np.array([0.0, 1e-310, 1e-3, 0.4, 7.0, 0.4])
        u = np.array([0.3, 0.5, 0.2, 0.7, 0.9, 1.0])
        for scenario in (
            UF6,
            Scenario(Unordered(), PoissonSize(6.0)),
            Scenario(Ordered(3), FixedSize(6)),
            Scenario(Ordered(), FixedSize(6)),
            Scenario(Ordered(), PoissonSize(6.0)),
        ):
            together = laplace_intra(beta, u, 3.5, scenario)
            one_by_one = [laplace_intra(b, v, 3.5, scenario) for b, v in zip(beta, u)]
            np.testing.assert_allclose(together, one_by_one, rtol=1e-14, atol=0.0)

    def test_unit_with_zero_density(self):
        link = reference_link(lambda_g=0.0, lambda_co=0.0)
        # s p eta overflows at the two largest s; the transform is still 1
        huge = np.array([1e307, 1.7e308])
        for s in (s_at(300.0), 1e307, 1.7e308, huge):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.all(laplace_inter(s, FixedSize(6), link) == 1.0)
                assert np.all(laplace_inter(s, PoissonSize(6.0), link) == 1.0)
                assert np.all(laplace_coexist(s, link) == 1.0)
        assert laplace_coexist(huge, link).shape == huge.shape

    @pytest.mark.parametrize("density", [0.0, 1e-7])
    def test_unit_at_zero_s_with_huge_powers(self, density):
        # P^delta eta^delta overflows here, so the product must meet s^delta
        # = 0 before the power factors or it turns into 0 * inf = nan
        link = LinkParams(p_x0=1e300, p_x=1e300, p_z=1e300, eta=1e300, alpha=3.5, a=500.0,
                          lambda_g=density, lambda_co=density, sigma2=0.0)
        for s in (0.0, np.array([0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert np.all(laplace_inter(s, FixedSize(6), link) == 1.0)
                assert np.all(laplace_inter(s, PoissonSize(6.0), link) == 1.0)
                assert np.all(laplace_coexist(s, link) == 1.0)


class TestAgainstIntegralOracles:
    @pytest.mark.parametrize("s", S_GRID)
    def test_intra_fixed(self, s):
        assert intra(s, FixedSize(6)) == pytest.approx(
            oracles.intra_fixed_integral(s, 6, LINK), rel=1e-6
        )

    @pytest.mark.parametrize("s", S_GRID)
    def test_intra_random(self, s):
        assert intra(s, PoissonSize(6.0)) == pytest.approx(
            oracles.intra_random_integral(s, 6.0, LINK), rel=1e-6
        )

    @pytest.mark.parametrize("r_k", [50.0, 200.0, 450.0])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_intra_ordered_fixed(self, r_k, k):
        s = s_at(r_k)
        assert intra(s, FixedSize(6), Ordered(k), r_k) == pytest.approx(
            oracles.intra_ordered_fixed_integral(s, k, 6, r_k, LINK), rel=1e-6
        )

    @pytest.mark.parametrize("r_n", [50.0, 200.0, 500.0])
    def test_intra_ordered_random(self, r_n):
        s = s_at(r_n)
        assert intra(s, PoissonSize(6.0), Ordered(), r_n) == pytest.approx(
            oracles.intra_ordered_random_integral(s, 6.0, r_n, LINK), rel=1e-6
        )

    def test_coexist_matches_reflection_form(self):
        # Gamma(1+d)Gamma(1-d) route equals the pi d / sin(pi d) route
        delta = LINK.delta
        for s in S_GRID:
            expo = (
                math.pi**2
                * LINK.lambda_co
                * delta
                / math.sin(math.pi * delta)
                * (s * LINK.p_z * LINK.eta) ** delta
            )
            assert laplace_coexist(s, LINK) == pytest.approx(math.exp(-expo), rel=1e-12)

    def test_coexist_matches_whole_plane_pgfl(self):
        # the cluster-field PGFL with a = 0 and one node per parent is the
        # coexisting PPP; over [0, inf) it is the closed form
        for s in S_GRID:
            ref = oracles.inter_pgfl_integral(
                s * LINK.p_z * LINK.eta, LINK.lambda_co, 0.0, LINK.alpha, FixedSize(1)
            )
            assert laplace_coexist(s, LINK) == pytest.approx(ref, rel=1e-9)


def bound_s_grid(link):
    """Transform variables of the coverage chain at r = a, -20 / 0 / +10 dB."""
    return [link.a**link.alpha * g / (link.p_x0 * link.eta) for g in (0.01, 1.0, 10.0)]


def log_space_beta_sum(n: int, delta: float) -> float:
    """sum_{p=1}^{n} C(n,p) B(p - delta, n - p + delta), term by term in log space.

    The form the fixed-size bound was once built from; binomial
    coefficients overflow float64 past n ~ 1e3 and the Beta values
    underflow symmetrically, so each term is assembled from logs.
    """
    log_n_fact = math.lgamma(n + 1)
    return math.fsum(
        math.exp(log_n_fact - math.lgamma(p + 1) - math.lgamma(n - p + 1)
                 + math.lgamma(p - delta) + math.lgamma(n - p + delta) - math.lgamma(n))
        for p in range(1, n + 1)
    )


class TestFixedBoundConstant:
    """The fixed-size bound's exponent pi lambda_g (s p_x eta)^delta delta sum_p C(n,p) B(...)."""

    @pytest.mark.parametrize("alpha", [20.0, 3.5, 4.2, 2.0 / 0.9])
    def test_against_beta_sum_and_mpmath(self, alpha):
        link = reference_link(alpha=alpha)
        delta = link.delta
        mp_delta = mpmath.mpf(delta)
        with mpmath.workdps(30):
            for n in (1, 2, 6, 30, 300, 5000):
                ref_sum = delta * log_space_beta_sum(n, delta)
                ref_mp = mpmath.gamma(1 - mp_delta) * mpmath.gamma(n + mp_delta) / mpmath.gamma(n)
                # s puts the exponent near 1, where -log of the transform
                # keeps its relative precision
                s = (math.pi * link.lambda_g * ref_sum) ** (-1.0 / delta) / (link.p_x * link.eta)
                scale = math.pi * link.lambda_g * (s * link.p_x * link.eta) ** delta
                got = -math.log(laplace_inter(s, FixedSize(n), link)) / scale
                assert got == pytest.approx(ref_sum, rel=1e-10)
                assert got == pytest.approx(float(ref_mp), rel=1e-10)

    def test_single_node_equals_poisson_bound_at_unit_mean(self):
        for s in S_GRID:
            assert laplace_inter(s, FixedSize(1), LINK) == pytest.approx(
                laplace_inter(s, PoissonSize(1.0), LINK), rel=1e-14
            )


class TestInterBoundSides:
    """The cross-cluster bounds against the exact whole-plane transform (PGFL oracle)."""

    @pytest.mark.parametrize("a", [200.0, 1000.0])
    @pytest.mark.parametrize("n", [1, 6, 30])
    def test_fixed_size_bound_is_upper(self, n, a):
        # Jensen: 1 - t**n is concave in t; single-node clusters are a
        # displaced PPP, so the bound is exact at n = 1
        link = reference_link(a=a)
        for s in bound_s_grid(link):
            exact = oracles.inter_pgfl_integral(
                s * link.p_x * link.eta, link.lambda_g, a, link.alpha, FixedSize(n)
            )
            bound = laplace_inter(s, FixedSize(n), link)
            if n == 1:
                assert exact == pytest.approx(bound, rel=1e-8)
            else:
                assert exact <= bound

    @pytest.mark.parametrize("a", [200.0, 1000.0])
    @pytest.mark.parametrize("nbar", [1.0, 6.0, 30.0])
    def test_poisson_size_bound_is_lower(self, nbar, a):
        # 1 - exp(-y) <= y
        link = reference_link(a=a)
        for s in bound_s_grid(link):
            exact = oracles.inter_pgfl_integral(
                s * link.p_x * link.eta, link.lambda_g, a, link.alpha, PoissonSize(nbar)
            )
            assert exact >= laplace_inter(s, PoissonSize(nbar), link)


class TestGaussChebyshev:
    def test_agreement_at_order_50(self):
        quad = make_quadrature(50, 1)
        for gamma_db in range(-20, 11, 2):
            gamma = 10.0 ** (gamma_db / 10.0)
            for r in (50.0, 250.0, 499.0):
                s = s_at(r, gamma)
                assert abs(
                    intra(s, FixedSize(6), quad=quad) - intra(s, FixedSize(6))
                ) <= 1e-3
                assert abs(
                    intra(s, PoissonSize(6.0), quad=quad)
                    - intra(s, PoissonSize(6.0))
                ) <= 1e-3
                assert abs(
                    intra(s, FixedSize(6), Ordered(3), r, quad)
                    - intra(s, FixedSize(6), Ordered(3), r)
                ) <= 1e-3
                assert abs(
                    intra(s, PoissonSize(6.0), Ordered(), r, quad)
                    - intra(s, PoissonSize(6.0), Ordered(), r)
                ) <= 1e-3

    def test_elementwise_over_arrays(self):
        # the coverage composition evaluates all outer nodes in one call
        quad = make_quadrature(50, 1)
        r = np.array([50.0, 250.0, 499.0, LINK.a])
        s = s_at(r)
        for size, ordering in (
            (FixedSize(6), Unordered()),
            (PoissonSize(6.0), Unordered()),
            (FixedSize(6), Ordered(3)),
            (PoissonSize(6.0), Ordered()),
        ):
            together = intra(s, size, ordering, r, quad)
            one_by_one = [intra(si, size, ordering, ri, quad) for si, ri in zip(s, r)]
            np.testing.assert_allclose(together, one_by_one, rtol=1e-14, atol=0.0)
        for field in (
            lambda s: laplace_inter(s, FixedSize(6), LINK),
            lambda s: laplace_inter(s, PoissonSize(6.0), LINK),
            lambda s: laplace_coexist(s, LINK),
        ):
            assert list(field(s)) == [field(si) for si in s]

    def test_error_shrinks_with_order(self):
        coarse = make_quadrature(10, 1)
        fine = make_quadrature(50, 1)
        for s in S_GRID:
            exact = intra(s, FixedSize(6))
            err_coarse = abs(intra(s, FixedSize(6), quad=coarse) - exact)
            err_fine = abs(intra(s, FixedSize(6), quad=fine) - exact)
            assert err_fine <= err_coarse + 1e-12


class TestShapeProperties:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda s: intra(s, FixedSize(6)),
            lambda s: intra(s, PoissonSize(6.0)),
            lambda s: laplace_inter(s, FixedSize(6), LINK),
            lambda s: laplace_inter(s, PoissonSize(6.0), LINK),
            lambda s: laplace_coexist(s, LINK),
            lambda s: intra(s, FixedSize(6), Ordered(3), 200.0),
        ],
    )
    def test_in_unit_interval_and_nonincreasing_in_s(self, fn):
        grid = [0.0] + sorted(S_GRID)
        values = [fn(s) for s in grid]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_monotone_in_densities_and_power(self):
        s = s_at(300.0)
        dens = [laplace_inter(s, FixedSize(6), reference_link(lambda_g=f * 1e-7))
                for f in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(dens, dens[1:]))
        coex = [laplace_coexist(s, reference_link(lambda_co=f * 1e-7))
                for f in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(coex, coex[1:]))
        nbar = [laplace_inter(s, PoissonSize(v), LINK) for v in (1.0, 2.0, 4.0, 8.0)]
        assert all(x > y for x, y in zip(nbar, nbar[1:]))

    def test_monotone_in_interferer_power(self):
        import dataclasses

        s = s_at(300.0)
        links = [dataclasses.replace(LINK, p_x=f * LINK.p_x) for f in (0.5, 1.0, 2.0, 4.0)]
        for fn in (
            lambda link: intra(s, FixedSize(6), link=link),
            lambda link: laplace_inter(s, FixedSize(6), link),
            lambda link: intra(s, FixedSize(6), Ordered(3), 200.0, link=link),
        ):
            values = [fn(link) for link in links]
            assert all(x > y for x, y in zip(values, values[1:]))
        coex = [
            laplace_coexist(s, dataclasses.replace(LINK, p_z=f * LINK.p_z))
            for f in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(x > y for x, y in zip(coex, coex[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        r=st.floats(10.0, 500.0),
        gamma=st.floats(1e-3, 1e3),
        factor=st.floats(1.01, 50.0),
    )
    def test_intra_fixed_monotone_property(self, r, gamma, factor):
        s = s_at(r, gamma)
        assert intra(s, FixedSize(6)) >= intra(s * factor, FixedSize(6))

    def test_far_factor_continuous_at_rim(self):
        # r_k -> a is a removable singularity of the far-set factor
        s = s_at(499.0)
        at_rim = intra(s, FixedSize(6), Ordered(3), LINK.a)
        near_rim = intra(s, FixedSize(6), Ordered(3), LINK.a * (1.0 - 1e-7))
        assert at_rim == pytest.approx(near_rim, rel=1e-5)

    def test_degenerate_far_set_at_rim(self):
        # at u = 1 the annulus (u, 1] is empty: the near set is the whole
        # disc and the n - k farther nodes all sit on the rim, each giving
        # 1/(1 + beta)
        beta, n, k = 0.4, 6, 3
        for quad in (None, make_quadrature(30, 1)):
            ranked = laplace_intra(beta, 1.0, LINK.alpha, Scenario(Ordered(k), FixedSize(n)), quad)
            whole_disc = laplace_intra(beta, 1.0, LINK.alpha, Scenario(Unordered(), FixedSize(k)),
                                       quad)
            assert ranked == pytest.approx(whole_disc * (1.0 + beta) ** -(n - k), rel=1e-12)

    def test_invalid_conditioning(self):
        # a ranked typical node's distance must lie in (0, 1] cluster radii,
        # in every entry of an array
        for u in (0.0, -0.2, 1.0 + 1e-9, np.array([0.5, 1.2]), np.array([0.0, 0.5])):
            for scenario in (Scenario(Ordered(3), FixedSize(6)), OR6):
                with pytest.raises(ValueError, match="conditioning distance"):
                    laplace_intra(0.3, u, LINK.alpha, scenario)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            intra(-1.0, FixedSize(6))
        with pytest.raises(ValueError):
            intra(1.0, FixedSize(0))
        with pytest.raises(ValueError):
            intra(1.0, PoissonSize(0.5))
        with pytest.raises(ValueError):
            laplace_inter(1.0, PoissonSize(0.0), LINK)
        with pytest.raises(ValueError):
            intra(1.0, FixedSize(6), Ordered(7), 100.0)
        with pytest.raises(ValueError):
            intra(1.0, FixedSize(6), Ordered(2), 600.0)
        with pytest.raises(ValueError):
            intra(1.0, PoissonSize(6.0), Ordered(), 0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, np.array([1.0, math.nan])])
    def test_coexist_rejects_non_finite_s(self, s):
        for link in (LINK, reference_link(lambda_co=0.0)):
            with pytest.raises(ValueError, match="finite"):
                laplace_coexist(s, link)

    @pytest.mark.parametrize("s", [math.nan, math.inf, np.array([1.0, math.inf])])
    def test_inter_bounds_reject_non_finite_s(self, s):
        with pytest.raises(ValueError, match="finite"):
            laplace_inter(s, FixedSize(6), LINK)
        with pytest.raises(ValueError, match="finite"):
            laplace_inter(s, PoissonSize(6.0), LINK)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, np.array([0.5, math.nan])])
    def test_intra_rejects_non_finite_load(self, beta):
        for quad in (None, make_quadrature(20, 20)):
            with pytest.raises(ValueError, match="finite"):
                laplace_intra(beta, 1.0, LINK.alpha, UF6, quad)
