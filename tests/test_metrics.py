import math

import pytest

from clustercov.coverage import (
    BoundSide,
    CoverageResult,
    Method,
    Ordered,
    Scenario,
    coverage,
)
from clustercov.metrics import (
    area_spectral_efficiency,
    db_to_linear,
    dbm_to_mw,
    energy_efficiency,
    linear_to_db,
    mw_to_dbm,
    noise_power_mw,
    rate_from_threshold,
)
from clustercov.params import FixedSize

from conftest import BASE_DENSITY, reference_link


def analytic_cov(value: float, gamma_th: float) -> CoverageResult:
    return CoverageResult(value, Method.GAUSS_CHEBYSHEV, BoundSide.UPPER, gamma_th)


def mc_cov(value: float, gamma_th: float, stderr: float) -> CoverageResult:
    return CoverageResult(
        value, Method.MONTE_CARLO, BoundSide.ESTIMATE, gamma_th, ci_halfwidth=1.96 * stderr
    )


class TestRate:
    def test_reference_points(self):
        assert rate_from_threshold(1.0) == 1.0
        assert rate_from_threshold(0.0) == 0.0
        assert rate_from_threshold(0.1) == pytest.approx(0.13750352374993502, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            rate_from_threshold(-1.0)


class TestUnits:
    def test_dbm_roundtrip(self):
        for dbm in (-30.0, 0.0, 14.0):
            assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-12)
        assert db_to_linear(0.0) == 1.0
        assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)

    def test_noise_floor(self):
        assert noise_power_mw(1.0) == pytest.approx(10.0**-17.4, rel=1e-12)
        assert mw_to_dbm(noise_power_mw(125e3)) == pytest.approx(-123.03089986991944, abs=1e-9)
        # 10 Hz sits exactly 10 dB above the 1 Hz floor
        assert noise_power_mw(10.0) == pytest.approx(10.0 * noise_power_mw(1.0), rel=1e-12)
        with pytest.raises(ValueError):
            noise_power_mw(0.0)


class TestAse:
    def test_zero_coverage_gives_zero(self):
        res = area_spectral_efficiency(6, BASE_DENSITY, 0.1, analytic_cov(0.0, 0.1))
        assert res.ase == 0.0

    def test_linear_in_node_count(self):
        cov = analytic_cov(0.4, 0.1)
        single = area_spectral_efficiency(3, BASE_DENSITY, 0.1, cov)
        double = area_spectral_efficiency(6, BASE_DENSITY, 0.1, cov)
        assert double.ase == pytest.approx(2.0 * single.ase, rel=1e-12)

    def test_formula(self):
        cov = analytic_cov(0.35, 0.1)
        res = area_spectral_efficiency(6, BASE_DENSITY, 0.1, cov)
        assert res.ase == pytest.approx(6 * BASE_DENSITY * math.log2(1.1) * 0.35, rel=1e-12)
        assert res.coverage is cov

    def test_threshold_mismatch_rejected(self):
        with pytest.raises(ValueError):
            area_spectral_efficiency(6, BASE_DENSITY, 0.2, analytic_cov(0.4, 0.1))

    def test_stderr_propagates_for_mc(self):
        res = area_spectral_efficiency(6, BASE_DENSITY, 0.1, mc_cov(0.4, 0.1, 0.01))
        assert res.ase_stderr == pytest.approx(6 * BASE_DENSITY * math.log2(1.1) * 0.01, rel=1e-9)


class TestEe:
    def test_zero_coverage_gives_zero(self):
        assert energy_efficiency(0.1, 25.0, analytic_cov(0.0, 0.1)).ee == 0.0

    def test_halving_power_doubles_ee(self):
        cov = analytic_cov(0.4, 0.1)
        assert energy_efficiency(0.1, 12.5, cov).ee == pytest.approx(
            2.0 * energy_efficiency(0.1, 25.0, cov).ee, rel=1e-12
        )

    def test_independent_of_density_and_count(self):
        # the density terms cancel: a pinned coverage gives one EE no matter
        # what node count or receiver density the ASE side assumed
        cov = analytic_cov(0.4, 0.1)
        baseline = energy_efficiency(0.1, 25.0, cov).ee
        for n_nodes, lam in ((1, BASE_DENSITY), (30, 5.0 * BASE_DENSITY)):
            area_spectral_efficiency(n_nodes, lam, 0.1, cov)  # unrelated inputs vary
            assert energy_efficiency(0.1, 25.0, cov).ee == baseline

    def test_monotone_in_cluster_radius(self, quad50):
        scen = Scenario(Ordered(), FixedSize(6))
        values = []
        for a in (300.0, 400.0, 500.0, 600.0, 700.0):
            link = reference_link(a=a)
            cov = coverage(0.1, scen, link, quad=quad50)
            values.append(energy_efficiency(0.1, link.p_x, cov).ee)
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_power_must_be_positive(self):
        with pytest.raises(ValueError):
            energy_efficiency(0.1, 0.0, analytic_cov(0.4, 0.1))
