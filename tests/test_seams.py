"""The module attributes the benchmark's span tracer wraps must exist.

``perfbench/spans.py`` times each layer by swapping these names for
wrappers; a refactor that renames one would leave its layer untraced (or
break ``--trace 1``) without any other test noticing.  The import surface
(which SciPy subpackages a first number loads) is checked here too, since
it is what the benchmark's set-up time measures.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clustercov import cli, laplace, mc
from clustercov.coverage import Method, Scenario, Unordered
from clustercov.params import FixedSize

coverage_module = importlib.import_module("clustercov.coverage")

SEAMS = [
    (coverage_module, "laplace_coexist"),
    (laplace, "hyp2f1_1_b"),
    (cli, "coverage"),
    (cli, "build_link"),
    (cli, "build_scenarios"),
    (cli, "run_sweep"),
    (mc, "inter_sums"),
    (mc, "radial_sums"),
    (mc, "estimate_coverage"),
]


@pytest.mark.parametrize("module, attr", SEAMS, ids=lambda x: getattr(x, "__name__", x))
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("prefix", ["laplace_intra", "laplace_inter", "laplace_coexist"])
def test_coverage_calls_transform_family(prefix, monkeypatch, fig_link):
    # the laplace.* spans wrap these names, and coverage.exact.integrand_evals
    # counts through them, so both methods must reach them by name
    names = [name for name in dir(coverage_module) if name.startswith(prefix)]
    assert names
    assert all(callable(getattr(coverage_module, name)) for name in names)
    calls = {method: 0 for method in (Method.GAUSS_CHEBYSHEV, Method.EXACT_INTEGRAL)}
    current = None

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[current] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(coverage_module, name, counted(getattr(coverage_module, name)))
    scenario = Scenario(Unordered(), FixedSize(6))
    for current in calls:
        coverage_module.coverage(1.0, scenario, fig_link, method=current)
    assert all(count > 0 for count in calls.values()), calls


@pytest.mark.parametrize(
    "kernel, position, name", [("inter_sums", 3, "off_r"), ("radial_sums", 0, "r")]
)
def test_node_count_argument_position(kernel, position, name):
    # the tracer counts a kernel's nodes from the length of this positional
    # argument, so reordering the parameters would miscount them silently
    params = list(inspect.signature(getattr(mc, kernel)).parameters)
    assert params[position] == name


def test_estimate_coverage_takes_spec_first():
    # the tracer counts trials and chunks from args[0] or kwargs["spec"]
    params = list(inspect.signature(mc.estimate_coverage).parameters)
    assert params[0] == "spec"


IMPORT_SURFACE_SCRIPT = """
import json, math, sys
import clustercov as cc
from clustercov import mc

density = 0.1 / (500.0**2 * math.pi)
power = cc.dbm_to_mw(14.0)
link = cc.LinkParams(p_x0=power, p_x=power, p_z=power, eta=cc.free_space_eta(868e6),
                     alpha=3.5, a=500.0, lambda_g=density, lambda_co=density,
                     sigma2=cc.noise_power_mw(125e3))
scenario = cc.Scenario(cc.Unordered(), cc.FixedSize(6))
cc.coverage(0.1, scenario, link)
spec = cc.SimSpec(config=cc.NetworkConfig(link=link, window_radius=20000.0),
                  scenario=scenario, trials=512, seed=1, gamma_grid=(0.1,), workers=1)
cc.estimate_coverage(spec)
cc.estimate_laplace(spec, cc.InterferenceField.INTER, (1e-6,))
heavy = ["scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.linalg"]
loaded = [name for name in heavy if name in sys.modules]
far_table = mc._far_table(spec) is not None
exact = cc.coverage(0.1, scenario, link, method=cc.Method.EXACT_INTEGRAL).value
print(json.dumps({"loaded": loaded, "far_table": far_table, "exact": exact,
                  "integrate_after_exact": "scipy.integrate" in sys.modules}))
"""


def test_first_numbers_load_numpy_and_scipy_special_only():
    # a fresh interpreter: import, one GC point, one MC coverage chunk with a
    # far table and one INTER transform load none of SciPy's heavier
    # subpackages; the exact path loads scipy.integrate when first called
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", IMPORT_SURFACE_SCRIPT], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["loaded"] == []
    assert result["far_table"]
    assert 0.0 < result["exact"] < 1.0
    assert result["integrate_after_exact"]
