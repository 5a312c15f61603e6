import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercov import oracles
from clustercov.special import hyp2f1_1_b, make_quadrature

DELTA = 2.0 / 3.5

# b within this distance of an integer is where scipy's 2F1 at z > 0.5
# loses about 1e-15/|b - m| of relative precision
NEAR_INTEGER_BAND = 1e-4


def _signed_log_offset(exponent_and_sign):
    exponent, sign = exponent_and_sign
    return sign * 10.0**exponent


_B_NEAR_INTEGER = st.one_of(
    st.tuples(st.sampled_from([1.0, 2.0]), st.floats(-NEAR_INTEGER_BAND, NEAR_INTEGER_BAND)),
    st.tuples(
        st.sampled_from([1.0, 2.0]),
        st.tuples(st.floats(-13.0, -4.0), st.sampled_from([-1.0, 1.0])).map(_signed_log_offset),
    ),
).map(lambda pair: min(2.0, pair[0] + pair[1]))
_B = st.one_of(st.floats(1e-6, 2.0), _B_NEAR_INTEGER, st.floats(1e-9, NEAR_INTEGER_BAND))
_Z = st.one_of(
    st.floats(0.0, 1e12),
    st.floats(-6.0, 12.0).map(lambda e: 10.0**e),
    st.floats(0.5 - 1e-6, 0.5 + 1e-6),  # scipy / closed integer form switch
    st.floats(20.0 - 1e-4, 20.0 + 1e-4),  # a narrow band at moderate z
)


def _mp_hyp2f1_1_b(b: float, z: float) -> float:
    with mpmath.workdps(40):
        b_mp = mpmath.mpf(b)
        return float(mpmath.hyp2f1(1, b_mp, b_mp + 1, -mpmath.mpf(z)))


class TestHyp2f1:
    def test_unit_at_zero(self):
        assert hyp2f1_1_b(1.5, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1, 1; 2; -z) = ln(1+z)/z
        assert hyp2f1_1_b(1.0, 3.0) == pytest.approx(math.log(4.0) / 3.0, rel=1e-12)

    def test_frozen_quadrature_value(self):
        # value computed beforehand with the independent integral oracle
        assert hyp2f1_1_b(DELTA, 10.0) == pytest.approx(0.36442841832355355, rel=1e-10)

    @pytest.mark.parametrize("b", [0.25, DELTA, 1.0, 1.0 + DELTA])
    def test_against_integral_oracle(self, b):
        for z in np.logspace(-3, 6, 13):
            ref = oracles.hyp_integral(b, float(z))
            assert hyp2f1_1_b(b, float(z)) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("b", [0.3, DELTA, 1.0, 1.9, 2.5])
    def test_bounded_and_decreasing(self, b):
        grid = [0.0] + list(np.logspace(-4, 7, 23))
        values = [hyp2f1_1_b(b, z) for z in grid]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(x > y for x, y in zip(values, values[1:]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        b=st.floats(0.05, 3.0),
        z1=st.floats(1e-6, 1e5),
        factor=st.floats(1.001, 100.0),
    )
    def test_monotone_property(self, b, z1, factor):
        assert hyp2f1_1_b(b, z1) > hyp2f1_1_b(b, z1 * factor)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(b=_B, z=_Z)
    def test_against_mpmath(self, b, z):
        ref = _mp_hyp2f1_1_b(b, z)
        near_integer = abs(b - round(b)) <= NEAR_INTEGER_BAND
        rtol = 1e-6 if near_integer else 1e-8
        assert abs(hyp2f1_1_b(b, z) - ref) <= rtol * ref

    @pytest.mark.parametrize(
        "b, z",
        [
            (1.0 + 1.17e-8, 20.000005),
            (2.0 - 5e-8, 1e3),
            (1.0 - 1e-11, 3.0),
            (1.0, 4.64e11),
            (2.0 - 1e-9, 4.64),
            (1.0 + 1e-12, 10.0),
            (2.0 - 1e-12, 4.64),
        ],
    )
    def test_near_integer_b_large_z(self, b, z):
        # the first two lie just past the 1e-8 band of the closed integer
        # form and the rest inside it; scipy's 2F1 alone misses rel 1e-6 at
        # (1 - 1e-11, 3) and the last two
        assert hyp2f1_1_b(b, z) == pytest.approx(_mp_hyp2f1_1_b(b, z), rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1_1_b(0.0, 1.0)
        with pytest.raises(ValueError):
            hyp2f1_1_b(-1.0, 1.0)
        with pytest.raises(ValueError):
            hyp2f1_1_b(0.5, -0.1)
        for b, z in [(0.5, math.nan), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)]:
            with pytest.raises(ValueError):
                hyp2f1_1_b(b, z)

    @pytest.mark.parametrize("b", [DELTA, 1.0, 1.0 + DELTA, 2.0])
    def test_limit_at_infinite_z(self, b):
        assert hyp2f1_1_b(b, math.inf) == 0.0


class TestQuadrature:
    def test_single_node(self):
        quad = make_quadrature(1, 1)
        assert quad.psi[0] == 0.0
        assert quad.c[0] == 0.5
        assert quad.mu[0] == 1.0
        assert quad.omega_t == math.pi

    def test_two_nodes(self):
        quad = make_quadrature(2, 2)
        root_half = math.sqrt(2.0) / 2.0
        assert quad.psi[0] == pytest.approx(root_half, abs=1e-15)
        assert quad.psi[1] == pytest.approx(-root_half, abs=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 7, 30, 51])
    def test_nodes_exactly_antisymmetric(self, order):
        quad = make_quadrature(order, 1)
        assert np.array_equal(quad.psi, -quad.psi[::-1])
        assert np.all((quad.c > 0.0) & (quad.c < 1.0))
        assert np.all((quad.mu >= 0.0) & (quad.mu <= 1.0))

    def test_degree_two_exactness(self):
        # the rule integrates x^2/sqrt(1-x^2) exactly: sum equals pi/2
        quad = make_quadrature(30, 1)
        total = quad.omega_t * float(np.sum(quad.psi**2))
        assert total == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_weighted_mean_convergence(self):
        # omega_T sum mu_t c_t -> integral of (x+1)/2 over [-1,1] = 1,
        # with the characteristic 1/T^2 error of the endpoint weight
        err30 = abs(make_quadrature(30, 1).omega_t * float(
            np.sum(make_quadrature(30, 1).mu * make_quadrature(30, 1).c)) - 1.0)
        err1000 = abs(make_quadrature(1000, 1).omega_t * float(
            np.sum(make_quadrature(1000, 1).mu * make_quadrature(1000, 1).c)) - 1.0)
        assert err30 <= 1e-3
        assert err1000 <= 1e-6
        assert err1000 < err30

    def test_arrays_immutable(self):
        quad = make_quadrature(5, 5)
        with pytest.raises(ValueError):
            quad.psi[0] = 0.0

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            make_quadrature(0, 5)
        with pytest.raises(ValueError):
            make_quadrature(5, 0)
