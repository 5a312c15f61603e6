"""Physical and geometric parameters of the clustered-uplink model.

All powers are linear milliwatts internally; dBm appears only at I/O
boundaries (config files, CSV metadata).  Distances are metres, densities
are per square metre.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

__all__ = [
    "ClusterSizeModel",
    "FixedSize",
    "LinkParams",
    "NetworkConfig",
    "Ordered",
    "Ordering",
    "PoissonSize",
    "SPEED_OF_LIGHT",
    "Scenario",
    "Unordered",
    "free_space_eta",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def free_space_eta(carrier_hz: float) -> float:
    """Free-space reference path-loss constant (c / (4 pi f))^2."""
    if not 0.0 < carrier_hz < math.inf:
        raise ValueError(f"carrier frequency must be positive and finite, got {carrier_hz}")
    return (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_hz)) ** 2


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def require_int(name: str, value, minimum: int) -> None:
    """Reject anything but an integer >= minimum; bools and floats included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


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

    @cached_property  # read once per field transform, on every integrand evaluation
    def delta(self) -> float:
        return 2.0 / self.alpha

    @property
    def p_ratio_x(self) -> float:
        """Power ratio typical/interferer, p_x0 / p_x."""
        return self.p_x0 / self.p_x


@dataclass(frozen=True)
class FixedSize:
    """Every cluster holds exactly n active nodes."""

    n: int

    def __post_init__(self) -> None:
        require_int("fixed cluster size", self.n, 1)


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
class Unordered:
    """Typical node drawn uniformly from its cluster."""


@dataclass(frozen=True)
class Ordered:
    """Typical node is the k-th closest in its cluster; None means farthest."""

    k: int | None = None

    def __post_init__(self) -> None:
        if self.k is not None:
            require_int("rank k", self.k, 1)


Ordering = Unordered | Ordered


@dataclass(frozen=True)
class Scenario:
    """Typical-node ordering and cluster-size model.

    Every rule on valid combinations lives here, so the closed forms and the
    Monte Carlo engine accept exactly the same scenarios.
    """

    ordering: Ordering
    size_model: ClusterSizeModel

    def __post_init__(self) -> None:
        # The typical node belongs to its cluster: one node plus
        # Poisson(mean - 1) others, which needs a mean of at least one.
        if isinstance(self.size_model, PoissonSize) and self.size_model.mean < 1.0:
            raise ValueError(
                f"the typical cluster needs a mean size >= 1, got {self.size_model.mean}"
            )
        k = self.ordering.k if isinstance(self.ordering, Ordered) else None
        if k is None:
            return
        # With Poisson sizes a fixed rank may exceed the drawn cluster; only
        # the farthest node is defined for every draw.
        if isinstance(self.size_model, PoissonSize):
            raise ValueError(
                f"rank k={k} needs a fixed cluster size; with "
                "Poisson sizes only the farthest node (k=None) is supported"
            )
        if k > self.size_model.n:
            raise ValueError(f"rank k={k} exceeds the cluster size n={self.size_model.n}")

    def tag(self) -> str:
        """Short label used in CSV output."""
        order = "unordered" if isinstance(self.ordering, Unordered) else (
            "ordered-farthest" if self.ordering.k is None else f"ordered-k{self.ordering.k}"
        )
        size = (
            f"fixed-n{self.size_model.n}"
            if isinstance(self.size_model, FixedSize)
            else f"poisson-nbar{self.size_model.mean:g}"
        )
        return f"{order}/{size}"


@dataclass(frozen=True)
class NetworkConfig:
    """Link parameters plus the simulation window.

    The window is a disc of radius window_radius around the typical
    receiver that holds every interferer; math.inf means the whole plane.
    """

    link: LinkParams
    window_radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.window_radius <= math.inf:
            raise ValueError(
                f"window_radius must be positive (inf for the whole plane), "
                f"got {self.window_radius}"
            )
