"""Set-up probe: import clustercov, then make one GC point and one MC chunk.

Run as a script in a fresh interpreter, it is what ``setup_s`` times: the
cost a user pays before the first number.  The benchmark also calls
``probe`` in its own process to finish lazy set-up before timing.

    PYTHONPATH=src python3 perfbench/probe.py
"""

from __future__ import annotations

import math

BASE_DENSITY = 0.1 / (500.0**2 * math.pi)  # reference receiver density, m^-2


def reference_link():
    """The reference network: alpha 3.5, a = 500 m, 14 dBm, thermal noise."""
    import clustercov as cc

    power = cc.dbm_to_mw(14.0)
    return cc.LinkParams(
        p_x0=power, p_x=power, p_z=power,
        eta=cc.free_space_eta(868e6), alpha=3.5, a=500.0,
        lambda_g=BASE_DENSITY, lambda_co=BASE_DENSITY,
        sigma2=cc.noise_power_mw(125e3),
    )


def probe() -> None:
    import clustercov as cc

    link = reference_link()
    scenario = cc.Scenario(cc.Unordered(), cc.FixedSize(6))
    point = cc.coverage(0.1, scenario, link)
    spec = cc.SimSpec(
        config=cc.NetworkConfig(link=link, window_radius=20000.0),
        scenario=scenario, trials=512, seed=1, gamma_grid=(0.1,), workers=1,
    )
    chunk = cc.estimate_coverage(spec)[0]
    if not (0.0 <= point.value <= 1.0 and 0.0 <= chunk.mean <= 1.0):
        raise RuntimeError(f"probe produced coverage {point.value} / {chunk.mean}")


if __name__ == "__main__":
    probe()
