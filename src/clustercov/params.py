"""Physical and geometric parameters of the clustered-uplink model.

All powers are linear milliwatts internally; dBm appears only at I/O
boundaries (config files, CSV metadata).  Distances are metres, densities
are per square metre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "ClusterSizeModel",
    "FixedSize",
    "LinkParams",
    "NetworkConfig",
    "PoissonSize",
    "SPEED_OF_LIGHT",
    "free_space_eta",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def free_space_eta(carrier_hz: float) -> float:
    """Free-space reference path-loss constant (c / (4 pi f))^2."""
    if carrier_hz <= 0.0:
        raise ValueError(f"carrier frequency must be positive, got {carrier_hz}")
    return (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_hz)) ** 2


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LinkParams:
    """Link-level parameters shared by the analysis and the simulator.

    p_x0 : transmit power of the typical node, mW
    p_x  : transmit power of interfering same-technology nodes, mW
    p_z  : transmit power of coexisting (other-technology) nodes, mW
    eta  : frequency-dependent path-loss constant
    alpha: path-loss exponent, must exceed 2 so that delta = 2/alpha < 1
    a    : cluster radius, m
    lambda_g : receiver (cluster-centre) density, per m^2
    lambda_co: coexisting-node density, per m^2
    sigma2   : noise power, mW (zero models the interference-limited case)
    """

    p_x0: float
    p_x: float
    p_z: float
    eta: float
    alpha: float
    a: float
    lambda_g: float
    lambda_co: float
    sigma2: float

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        for name in ("p_x0", "p_x", "p_z", "eta", "a"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("lambda_g", "lambda_co", "sigma2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.alpha <= 2.0:
            raise ValueError(
                f"path-loss exponent alpha must exceed 2 (got {self.alpha}); "
                "otherwise delta = 2/alpha >= 1 and the interference "
                "transforms diverge"
            )

    @property
    def delta(self) -> float:
        return 2.0 / self.alpha

    @property
    def p_ratio_x(self) -> float:
        """Power ratio typical/interferer, p_x0 / p_x."""
        return self.p_x0 / self.p_x

    @property
    def p_ratio_z(self) -> float:
        """Power ratio typical/coexisting, p_x0 / p_z."""
        return self.p_x0 / self.p_z


@dataclass(frozen=True)
class FixedSize:
    """Every cluster holds exactly n active nodes."""

    n: int

    def __post_init__(self) -> None:
        _require_finite("fixed cluster size", self.n)
        if self.n < 1:
            raise ValueError(f"fixed cluster size must be >= 1, got {self.n}")


@dataclass(frozen=True)
class PoissonSize:
    """Cluster sizes are Poisson with the given mean."""

    mean: float

    def __post_init__(self) -> None:
        _require_finite("mean cluster size", self.mean)
        if self.mean <= 0.0:
            raise ValueError(f"mean cluster size must be positive, got {self.mean}")


ClusterSizeModel = FixedSize | PoissonSize


@dataclass(frozen=True)
class NetworkConfig:
    """Link parameters plus the finite simulation window.

    The window is a disc of radius window_radius around the typical
    receiver; it approximates the infinite plane for interference sums.
    """

    link: LinkParams
    window_radius: float

    def __post_init__(self) -> None:
        _require_finite("window_radius", self.window_radius)
        if self.window_radius <= 0.0:
            raise ValueError(
                f"window_radius must be positive, got {self.window_radius}"
            )
