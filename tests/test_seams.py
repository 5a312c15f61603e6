"""The module attributes the benchmark's span tracer wraps must exist.

``perfbench/spans.py`` times each layer by swapping these names for
wrappers; a refactor that renames one would leave its layer untraced (or
break ``--trace 1``) without any other test noticing.
"""

import importlib

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
