"""Acceptance suite: one test per release criterion.

Every test prints an ``ACCEPTANCE nn <name>: PASS`` line (run pytest with
``-s`` to see them live).  Tolerances are fixed here, except criterion 10's:
it runs ``oracles.run_checks()``, the suite behind ``clustercov oracle``,
whose per-family tolerances live in ``clustercov.oracles``.
Monte Carlo gates are statistical three-standard-error checks evaluated at
pinned seeds, so the suite is deterministic end to end.

Budget: the module takes about 25 s on one core of a 2-core VM, and about
20 s with CLUSTERCOV_WORKERS=2.  A 1e5-trial simulation takes under a
second here, so extra workers help little; they never change a result.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import clustercov as cc
from clustercov import oracles
from clustercov.coverage import Method, Ordered, Scenario, Unordered
from clustercov.mc import InterferenceField
from clustercov.params import FixedSize, PoissonSize

from conftest import BASE_DENSITY, GAMMA_GRID_DB, reference_link

QUAD = cc.make_quadrature(50, 50)
GAMMA10 = 0.1  # -10 dB

SCENARIOS = {
    "unordered/fixed": lambda n: Scenario(Unordered(), FixedSize(int(n))),
    "unordered/poisson": lambda n: Scenario(Unordered(), PoissonSize(float(n))),
    "ordered/fixed": lambda n: Scenario(Ordered(), FixedSize(int(n))),
    "ordered/poisson": lambda n: Scenario(Ordered(), PoissonSize(float(n))),
}


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _mc_spec(link, scenario, trials, seed, gammas, window=20000.0, chunk=512):
    return cc.SimSpec(
        config=cc.NetworkConfig(link=link, window_radius=window),
        scenario=scenario,
        trials=trials,
        seed=seed,
        gamma_grid=gammas,
        chunk_trials=chunk,
    )


def test_01_cross_method_agreement(fig_link):
    """|Gauss-Chebyshev - exact integral| <= 1e-3 at T=M=50, all scenarios."""
    worst = 0.0
    where = ""
    for name, make in SCENARIOS.items():
        scen = make(6)
        for gamma_db in GAMMA_GRID_DB:
            gamma = 10.0 ** (gamma_db / 10.0)
            exact = cc.coverage(gamma, scen, fig_link, method=Method.EXACT_INTEGRAL).value
            approx = cc.coverage(gamma, scen, fig_link, method=Method.GAUSS_CHEBYSHEV,
                                 quad=QUAD).value
            gap = abs(exact - approx)
            if gap > worst:
                worst, where = gap, f"{name} at {gamma_db} dB"
    _report(1, "cross-method agreement", worst <= 1e-3, f"max gap {worst:.2e} {where}")


def test_02_mc_vs_analytical_small_radius():
    """|MC - analytical| <= 0.03 at a=100 m, -10 dB, n in {2,4,6,8}, 1e5 trials."""
    link = reference_link(a=100.0)
    worst = 0.0
    where = ""
    for n in (2, 4, 6, 8):
        for name, make in SCENARIOS.items():
            scen = make(n)
            analytical = cc.coverage(GAMMA10, scen, link, quad=QUAD).value
            spec = _mc_spec(link, scen, trials=100_000, seed=101, gammas=(GAMMA10,))
            estimate = cc.estimate_coverage(spec)[0]
            gap = abs(estimate.mean - analytical)
            if gap > worst:
                worst, where = gap, f"{name} n={n}"
    _report(2, "MC vs analytical at a=100 m", worst <= 0.03, f"max gap {worst:.3f} {where}")


def test_03_laplace_bound_directions(fig_link):
    """Cross-cluster bounds bracket MC; coexistence transform matches MC."""
    s_ref = fig_link.a**fig_link.alpha * GAMMA10 / (fig_link.p_x0 * fig_link.eta)
    s_grid = tuple(s_ref * 10.0**e for e in np.linspace(-2.0, 2.0, 9))
    trials = 100_000

    spec = _mc_spec(fig_link, Scenario(Unordered(), FixedSize(6)), trials, 31, (GAMMA10,))
    mc_fixed = cc.estimate_laplace(spec, InterferenceField.INTER, s_grid)
    spec = _mc_spec(fig_link, Scenario(Unordered(), PoissonSize(6.0)), trials, 32, (GAMMA10,))
    mc_random = cc.estimate_laplace(spec, InterferenceField.INTER, s_grid)
    # the coexistence identity is exact on the infinite plane; a 40 km
    # window keeps the truncation bias far below the Monte Carlo noise
    spec = _mc_spec(fig_link, Scenario(Unordered(), FixedSize(6)), trials, 33,
                    (GAMMA10,), window=40000.0)
    mc_coexist = cc.estimate_laplace(spec, InterferenceField.COEXIST, s_grid)

    ok = True
    detail = []
    for j, s in enumerate(s_grid):
        upper = cc.laplace_inter_fixed_upper(s, 6, fig_link)
        lower = cc.laplace_inter_random_lower(s, 6.0, fig_link)
        exact = cc.laplace_coexist(s, fig_link)
        if not mc_fixed[j].mean <= upper + 3.0 * mc_fixed[j].stderr:
            ok = False
            detail.append(f"upper violated at s={s:.2e}")
        if not mc_random[j].mean >= lower - 3.0 * mc_random[j].stderr:
            ok = False
            detail.append(f"lower violated at s={s:.2e}")
        if not abs(mc_coexist[j].mean - exact) <= 3.0 * mc_coexist[j].stderr:
            ok = False
            detail.append(f"coexistence off at s={s:.2e}")
    _report(3, "interference bound directions", ok, "; ".join(detail) or "all bracketed")


def test_04_monotonicity_suite():
    """Coverage nonincreasing in threshold, size, densities and radius."""
    violations = []

    def check(label, values):
        if any(b > a for a, b in zip(values, values[1:])):
            violations.append(label)

    for name, make in SCENARIOS.items():
        check(f"{name}/gamma", [
            cc.coverage(10.0 ** (db / 10.0), make(6), reference_link(), quad=QUAD).value
            for db in (-14, -12, -10, -8, -6)
        ])
        check(f"{name}/size", [
            cc.coverage(GAMMA10, make(n), reference_link(), quad=QUAD).value
            for n in (4, 5, 6, 7, 8)
        ])
        check(f"{name}/lambda_g", [
            cc.coverage(GAMMA10, make(6), reference_link(lambda_g=f * BASE_DENSITY),
                        quad=QUAD).value
            for f in (0.25, 0.5, 1.0, 2.0, 4.0)
        ])
        check(f"{name}/lambda_co", [
            cc.coverage(GAMMA10, make(6), reference_link(lambda_co=f * BASE_DENSITY),
                        quad=QUAD).value
            for f in (0.25, 0.5, 1.0, 2.0, 4.0)
        ])
        check(f"{name}/radius", [
            cc.coverage(GAMMA10, make(6), reference_link(a=a), quad=QUAD).value
            for a in (300.0, 400.0, 500.0, 600.0, 700.0)
        ])
    _report(4, "monotonicity suite", not violations, ", ".join(violations) or "0 violations")


def test_05_intra_limited_radius_invariance():
    """The in-cluster-only coverage is identical across cluster radii.

    In-cluster-only is the link without other clusters, coexisting nodes or noise.
    """
    ok = True
    for size in (FixedSize(6), PoissonSize(6.0)):
        scen = Scenario(Unordered(), size)
        values = [
            cc.coverage(
                GAMMA10, scen,
                reference_link(a=a, lambda_g=0.0, lambda_co=0.0, sigma2=0.0), quad=QUAD,
            ).value
            for a in (100.0, 500.0, 1000.0)
        ]
        spread = max(values) - min(values)
        ok &= spread <= 1e-10
    _report(5, "intra-limited radius invariance", ok)


def test_06_ordering_relation(fig_link):
    """Uniformly chosen typical node covers at least as well as the farthest."""
    gammas = tuple(10.0 ** (db / 10.0) for db in GAMMA_GRID_DB)
    ok = True
    detail = ""
    for size in (FixedSize(6), PoissonSize(6.0)):
        for gamma in gammas:
            u = cc.coverage(gamma, Scenario(Unordered(), size), fig_link, quad=QUAD).value
            o = cc.coverage(gamma, Scenario(Ordered(), size), fig_link, quad=QUAD).value
            if u < o:
                ok = False
                detail = f"analytic inversion at gamma={gamma:g}"
    unordered = cc.estimate_coverage(
        _mc_spec(fig_link, Scenario(Unordered(), FixedSize(6)), 100_000, 61, gammas)
    )
    ordered = cc.estimate_coverage(
        _mc_spec(fig_link, Scenario(Ordered(), FixedSize(6)), 100_000, 61, gammas)
    )
    for u, o in zip(unordered, ordered):
        slack = 3.0 * math.hypot(u.stderr, o.stderr)
        if u.mean < o.mean - slack:
            ok = False
            detail = "MC inversion"
    _report(6, "unordered dominates farthest-node", ok, detail)


def test_07_ase_interior_optimum():
    """ASE peaks strictly inside n = 1..30 and shrinks with the radius."""
    ok = True
    detail = []
    rate = cc.rate_from_threshold(GAMMA10)
    for scen_name in ("unordered/fixed", "ordered/fixed"):
        make = SCENARIOS[scen_name]
        curves = {}
        for a in (200.0, 500.0):
            link = reference_link(a=a)
            taus = [
                n * BASE_DENSITY * rate * cc.coverage(GAMMA10, make(n), link, quad=QUAD).value
                for n in range(1, 31)
            ]
            n_star = int(np.argmax(taus)) + 1
            if not (1 < n_star < 30 and taus[n_star - 1] > taus[0]
                    and taus[n_star - 1] > taus[-1]):
                ok = False
                detail.append(f"{scen_name} a={a:g}: no interior optimum")
            curves[a] = taus
        if not all(x > y for x, y in zip(curves[200.0], curves[500.0])):
            ok = False
            detail.append(f"{scen_name}: ASE not larger at a=200")
    _report(7, "ASE interior optimum", ok, "; ".join(detail) or "interior maximisers found")


def test_08_energy_efficiency_ordering():
    """EE falls with the cluster radius and with the standard power steps."""
    ok = True
    scen = Scenario(Ordered(), FixedSize(6))
    grid = (200.0, 400.0, 600.0, 800.0, 1000.0)
    curves = {}
    for p_dbm in (0.0, 7.0, 14.0):
        values = []
        for a in grid:
            link = reference_link(a=a, power_dbm=p_dbm)
            cov = cc.coverage(GAMMA10, scen, link, quad=QUAD)
            values.append(cc.ase_ee(cov, 6, link.lambda_g, link.p_x).ee)
        curves[p_dbm] = values
        ok &= all(x >= y for x, y in zip(values, values[1:]))
    for i in range(len(grid)):
        ok &= curves[0.0][i] > curves[7.0][i] > curves[14.0][i]
    _report(8, "energy-efficiency ordering", ok)


def test_09_noise_necessity():
    """Dropping noise raises coverage at 1 km clusters and 7 dBm, every size."""
    ok = True
    detail = ""
    sizes = (1, 2, 4, 6, 8, 10)
    for name in ("ordered/fixed", "ordered/poisson"):
        make = SCENARIOS[name]
        for n in sizes:
            noisy = cc.coverage(GAMMA10, make(n), reference_link(a=1000.0, power_dbm=7.0),
                                quad=QUAD).value
            free = cc.coverage(GAMMA10, make(n),
                               reference_link(a=1000.0, power_dbm=7.0, sigma2=0.0),
                               quad=QUAD).value
            if not free > noisy:
                ok = False
                detail = f"analytic at {name} n={n}"
    for name in ("ordered/fixed", "ordered/poisson"):
        make = SCENARIOS[name]
        for n in sizes:
            # same seed: the noise-free run sees identical draws with a
            # strictly smaller denominator
            noisy = cc.estimate_coverage(_mc_spec(
                reference_link(a=1000.0, power_dbm=7.0), make(n), 20000, 91, (GAMMA10,)
            ))[0]
            free = cc.estimate_coverage(_mc_spec(
                reference_link(a=1000.0, power_dbm=7.0, sigma2=0.0), make(n), 20000, 91,
                (GAMMA10,)
            ))[0]
            if not free.mean > noisy.mean:
                ok = False
                detail = f"MC at {name} n={n}"
    _report(9, "noise necessity", ok, detail)


def test_10_special_function_oracles():
    """Closed forms against their independent integral oracles, all families."""
    checks = oracles.run_checks()
    detail = ", ".join(
        f"{c.name} {c.worst_error:.1e} (tol {c.tolerance:.0e})" for c in checks
    )
    _report(10, "special-function oracles", all(c.passed for c in checks), detail)


def test_11_determinism_across_workers(tmp_path):
    """Same preset and seed give byte-identical CSV for any worker count."""
    config = tmp_path / "det.cfg"
    config.write_text(
        "axis = gamma_th_db\n"
        "axis_grid = -10, 0\n"
        "methods = gc, mc\n"
        "trials = 3000\n"
        "seed = 7\n"
        "size_model = both\n"
        "ordering = both\n"
        "cluster_size = 6\n"
    )
    src_dir = str(Path(cc.__file__).parents[1])
    outputs = {}
    for workers in ("1", "2", "1-again"):
        out = tmp_path / f"det-{workers}.csv"
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["CLUSTERCOV_WORKERS"] = workers.split("-")[0]
        proc = subprocess.run(
            [sys.executable, "-m", "clustercov.cli", "sweep",
             "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = out.read_bytes()
    ok = outputs["1"] == outputs["2"] == outputs["1-again"]
    _report(11, "worker-count determinism", ok)
