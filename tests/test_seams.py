"""The module attributes the benchmark's span tracer wraps must exist.

``perfbench/spans.py`` times each layer by swapping these names for
wrappers; a refactor that renames one would leave its layer untraced (or
break ``--trace 1``) without any other test noticing.
"""

import importlib
import inspect

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
