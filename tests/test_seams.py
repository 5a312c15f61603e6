"""The module attributes the benchmark's span tracer wraps must exist.

``perfbench/spans.py`` times each layer by swapping these names for
wrappers; a refactor that renames one would leave its layer untraced (or
break ``--trace 1``) without any other test noticing.
"""

import importlib
import inspect

import pytest

from clustercov import cli, laplace, mc

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


@pytest.mark.parametrize("prefix", ["laplace_intra", "laplace_inter"])
def test_coverage_calls_transform_family(prefix):
    names = [name for name in dir(coverage_module) if name.startswith(prefix)]
    assert names
    assert all(callable(getattr(coverage_module, name)) for name in names)


@pytest.mark.parametrize(
    "kernel, position, name", [("inter_sums", 3, "off_r"), ("radial_sums", 0, "r")]
)
def test_node_count_argument_position(kernel, position, name):
    # the tracer counts a kernel's nodes from the length of this positional
    # argument, so reordering the parameters would miscount them silently
    params = list(inspect.signature(getattr(mc, kernel)).parameters)
    assert params[position] == name
