"""The PGFL rule's callers reach it through the ``field`` module.

``mc`` and ``oracles`` call ``field.annulus_exponent`` and
``field.far_table`` as module attributes, not through names copied into
their own namespaces, so a test or a profiler that wraps those attributes
sees every call (``TestFarField``'s memo tests count the table's builds
that way).  The rule's accuracy and its table are checked in
``tests/test_mc.py::TestFarField``.
"""

import pytest

import clustercov.mc as mc
from clustercov import field, oracles
from clustercov.mc import InterferenceField, SimSpec
from clustercov.params import FixedSize, NetworkConfig, Scenario, Unordered

from conftest import reference_link


@pytest.fixture
def exponent_calls(monkeypatch):
    """The arguments of every ``field.annulus_exponent`` call."""
    calls = []

    def recorder(*args, _exponent=field.annulus_exponent):
        calls.append(args)
        return _exponent(*args)

    monkeypatch.setattr(field, "annulus_exponent", recorder)
    return calls


@pytest.mark.parametrize("interf_field", list(InterferenceField), ids=lambda f: f.value)
def test_transform_takes_its_annulus_through_the_module(exponent_calls, interf_field):
    # the annulus (R0, W] beyond the drawn near disc, for the asked field alone
    spec = SimSpec(config=NetworkConfig(link=reference_link(), window_radius=20000.0),
                   scenario=Scenario(Unordered(), FixedSize(6)), trials=64, seed=3, workers=1)
    mc.estimate_laplace(spec, interf_field, (1e9, 1e10))
    ((c, density, a, size, inner, outer, alpha),) = exponent_calls
    link = spec.config.link
    if interf_field is InterferenceField.INTER:
        assert (density, a, size) == (link.lambda_g, link.a, FixedSize(6))
    else:
        assert (density, a, size) == (link.lambda_co, 0.0, FixedSize(1))
    assert c.shape == (2,)
    assert (inner, outer, alpha) == (mc._near_radius(spec.config), 20000.0, link.alpha)


def test_oracle_check_reaches_the_rule_through_the_module(exponent_calls, monkeypatch):
    # the oracle's own quadrature is replaced by 1.0 here: only the calls count
    monkeypatch.setattr(oracles, "inter_pgfl_integral", lambda *args: 1.0)
    oracles.run_checks("laplace")
    # at two s: per size the annulus beyond 2 a and the whole window, then
    # the coexisting PPP over the whole window
    assert len(exponent_calls) == 2 * (2 * 2 + 1)
