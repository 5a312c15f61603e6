"""The module attributes the benchmark's span tracer wraps must exist.

``perfbench/spans.py`` times each layer by swapping these names for
wrappers; a refactor that renames one would leave its layer untraced (or
break ``--trace 1``) without any other test noticing.  The import surface
(a first number loads nothing of SciPy) is checked here too, since it is
what the benchmark's set-up time measures.
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
import dataclasses, json, math, sys
import clustercov as cc
on_import = sorted(name for name in sys.modules if name.startswith("numpy.random"))
from clustercov import mc

def loaded():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("scipy", "multiprocessing")
                  or name == "concurrent.futures.process")

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
fast_paths = loaded()
far_table = mc._far_table(spec) is not None
exact = cc.coverage(0.1, scenario, link, method=cc.Method.EXACT_INTEGRAL).value
after_exact = sorted(name for name in ("scipy.special", "scipy.integrate") if name in sys.modules)
# one worker runs a request of several runs of chunks in this process
cc.estimate_coverage(dataclasses.replace(spec, trials=8192))
runs_loaded = sorted(name for name in loaded() if not name.startswith("scipy"))
# two chunks on two workers take the pool branch, which imports the pool itself
two_chunks = dataclasses.replace(spec, trials=1024)
serial = cc.estimate_coverage(two_chunks)
pooled = cc.estimate_coverage(dataclasses.replace(two_chunks, workers=2))
print(json.dumps({"on_import": on_import, "fast_paths": fast_paths, "far_table": far_table, "exact": exact,
                  "after_exact": after_exact, "runs_loaded": runs_loaded,
                  "pool_matches": serial == pooled,
                  "pool_loaded": "concurrent.futures.process" in sys.modules}))
"""

HYP2F1_FIRST_SCRIPT = """
import json
import clustercov as cc

ours = [cc.hyp2f1_1_b(1.37, z) for z in (0.3, 3.0, 1e6)]
from scipy.special import hyp2f1

theirs = [float(hyp2f1(1.0, 1.37, 2.37, -z)) for z in (0.3, 3.0, 1e6)]
print(json.dumps({"ours": ours, "theirs": theirs}))
"""


def _fresh_interpreter(script: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # pyproject's filterwarnings does not reach a child interpreter
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_first_numbers_load_numpy_only():
    # a fresh interpreter: import, one GC point, one MC coverage chunk with a
    # far table and one INTER transform load nothing of SciPy and no process
    # pool; the exact path loads scipy.special alone when first called (its
    # quadrature is in-repo); one worker runs a request of four runs of
    # chunks without the pool either, and a pooled estimate equals the
    # serial one.  The import alone loads no numpy.random: the first
    # Monte Carlo request loads it, for its chunks' generators
    result = _fresh_interpreter(IMPORT_SURFACE_SCRIPT)
    assert result["on_import"] == []
    assert result["fast_paths"] == []
    assert result["far_table"]
    assert 0.0 < result["exact"] < 1.0
    assert result["after_exact"] == ["scipy.special"]
    assert result["runs_loaded"] == []
    assert result["pool_matches"]
    assert result["pool_loaded"]


def test_hyp2f1_bound_on_first_call():
    # 2F1 called before anything else loads SciPy's hyp2f1 and returns its
    # values exactly, for a non-integer b on both sides of z = 0.5
    result = _fresh_interpreter(HYP2F1_FIRST_SCRIPT)
    assert result["ours"] == result["theirs"]
