import math
from dataclasses import replace

import numpy as np
import pytest

import clustercov as cc

from conftest import reference_link

UF = cc.Scenario(cc.Unordered(), cc.FixedSize(6))
LINK_FIELDS = ("p_x0", "p_x", "p_z", "eta", "alpha", "a", "lambda_g", "lambda_co", "sigma2")


def _spec(gamma=0.1, trials=10, seed=0, **kw):
    config = cc.NetworkConfig(link=reference_link(), window_radius=20000.0)
    return cc.SimSpec(
        config=config, scenario=UF, trials=trials, seed=seed, gamma_grid=(gamma,), **kw
    )


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


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in sorted(CONSTRUCTORS)
        for value in (math.nan, math.inf, -math.inf)
        # an infinite window is the whole plane (test_infinite_window_is_whole_plane)
        if (field, value) != ("NetworkConfig.window_radius", math.inf)
    ],
    ids=str,
)
def test_non_finite_input_rejected(field, value):
    with pytest.raises(ValueError):
        CONSTRUCTORS[field](value)


def test_infinite_window_is_whole_plane():
    assert cc.NetworkConfig(reference_link(), math.inf).window_radius == math.inf


INTEGER_CONSTRUCTORS = {
    "FixedSize.n": cc.FixedSize,
    "Ordered.k": cc.Ordered,
    "SimSpec.trials": lambda v: _spec(trials=v),
    "SimSpec.chunk_trials": lambda v: _spec(chunk_trials=v),
    "SimSpec.seed": lambda v: _spec(seed=v),
    "SimSpec.workers": lambda v: _spec(workers=v),
    "make_quadrature.order_t": lambda v: cc.make_quadrature(v, 50),
    "make_quadrature.order_m": lambda v: cc.make_quadrature(50, v),
}


@pytest.mark.parametrize("value", [2.5, 6.0, True, "6"], ids=repr)
@pytest.mark.parametrize("field", sorted(INTEGER_CONSTRUCTORS))
def test_non_integer_input_rejected(field, value):
    # FixedSize(2.5) used to simulate as FixedSize(2), Ordered(2.5) fed a
    # non-integer to the order-statistic density, make_quadrature(2.5, 50)
    # built 3 nodes weighted pi/2.5, and a float trial count or seed failed
    # only once the simulation ran
    with pytest.raises(ValueError, match="integer"):
        INTEGER_CONSTRUCTORS[field](value)


@pytest.mark.parametrize("field", sorted(INTEGER_CONSTRUCTORS))
def test_numpy_integer_accepted(field):
    INTEGER_CONSTRUCTORS[field](np.int64(3))
