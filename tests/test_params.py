import math
from dataclasses import replace

import pytest

import clustercov as cc

from conftest import reference_link

UF = cc.Scenario(cc.Unordered(), cc.FixedSize(6))
LINK_FIELDS = ("p_x0", "p_x", "p_z", "eta", "alpha", "a", "lambda_g", "lambda_co", "sigma2")


def _spec(gamma):
    config = cc.NetworkConfig(link=reference_link(), window_radius=20000.0)
    return cc.SimSpec(config=config, scenario=UF, trials=10, seed=0, gamma_grid=(gamma,))


CONSTRUCTORS = {
    **{
        f"LinkParams.{name}": (lambda v, name=name: replace(reference_link(), **{name: v}))
        for name in LINK_FIELDS
    },
    "FixedSize.n": cc.FixedSize,
    "PoissonSize.mean": cc.PoissonSize,
    "NetworkConfig.window_radius": lambda v: cc.NetworkConfig(reference_link(), v),
    "SimSpec.gamma_grid": _spec,
    "coverage.gamma_th": lambda v: cc.coverage(v, UF, reference_link()),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", sorted(CONSTRUCTORS))
def test_non_finite_input_rejected(field, value):
    with pytest.raises(ValueError):
        CONSTRUCTORS[field](value)
