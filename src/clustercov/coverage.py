"""Coverage probability of the typical uplink for all four scenarios.

Scenarios combine how the typical node is chosen (uniformly, or the k-th
closest in its cluster) with the cluster-size model (fixed count or
Poisson).  All of them share one integrand over the typical link distance,
a distance density times the three interference transforms, evaluated by
adaptive quadrature (exact) or by closed-form Gauss-Chebyshev nodes; both
rules compose the same transforms, so their agreement checks the quadrature
swap and nothing else.

Fixed-size results are upper bounds and Poisson-size results lower bounds,
inherited from the direction of the cross-cluster transform bound; the
result object carries that tag so downstream metrics never mix directions
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy import integrate

from .laplace import (
    laplace_coexist,
    laplace_inter_fixed_upper,
    laplace_inter_random_lower,
    laplace_intra,
)
from .params import ClusterSizeModel, FixedSize, LinkParams, PoissonSize
from .special import QuadratureSpec, make_quadrature

__all__ = [
    "BoundSide",
    "CoverageResult",
    "Interference",
    "Method",
    "Ordered",
    "Ordering",
    "QuadratureError",
    "Scenario",
    "Unordered",
    "coverage",
]

DEFAULT_QUADRATURE = make_quadrature(50, 50)


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


class Interference(Enum):
    FULL = "full"
    INTRA_LIMITED = "intra-limited"


@dataclass(frozen=True)
class Unordered:
    """Typical node drawn uniformly from its cluster."""


@dataclass(frozen=True)
class Ordered:
    """Typical node is the k-th closest in its cluster; None means farthest."""

    k: int | None = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError(f"rank k must be >= 1, got {self.k}")


Ordering = Unordered | Ordered


@dataclass(frozen=True)
class Scenario:
    ordering: Ordering
    size_model: ClusterSizeModel
    interference: Interference = Interference.FULL

    def __post_init__(self) -> None:
        k = self.ordering.k if isinstance(self.ordering, Ordered) else None
        if k is None:
            return
        # The Poisson in-cluster transform assumes every interferer lies
        # inside the typical distance, which holds only for the farthest node.
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
        suffix = "" if self.interference is Interference.FULL else "/intra-limited"
        return f"{order}/{size}{suffix}"


class Method(Enum):
    EXACT_INTEGRAL = "exact-integral"
    GAUSS_CHEBYSHEV = "gauss-chebyshev"
    MONTE_CARLO = "monte-carlo"


class BoundSide(Enum):
    UPPER = "upper-bound"
    LOWER = "lower-bound"
    EXACT = "exact"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class CoverageResult:
    value: float
    method: Method
    bound_side: BoundSide
    gamma_th: float
    stderr: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"coverage must lie in [0, 1], got {self.value}")
        if (self.stderr is not None) != (self.method is Method.MONTE_CARLO):
            raise ValueError("stderr is present exactly for Monte Carlo results")


def _check_gamma(gamma_th: float) -> None:
    if not (math.isfinite(gamma_th) and gamma_th > 0.0):
        raise ValueError(
            f"SINR threshold must be positive and finite (linear), got {gamma_th}"
        )


def _effective_params(p: LinkParams, interference: Interference) -> LinkParams:
    """Zero out the dropped terms for the intra-interference-limited case."""
    if interference is Interference.FULL:
        return p
    return replace(p, lambda_g=0.0, lambda_co=0.0, sigma2=0.0)


def _bound_side(size_model: ClusterSizeModel, interference: Interference) -> BoundSide:
    if interference is Interference.INTRA_LIMITED:
        return BoundSide.EXACT
    return BoundSide.UPPER if isinstance(size_model, FixedSize) else BoundSide.LOWER


def _resolve_rank(ordering: Ordered, size_model: ClusterSizeModel) -> tuple[int, int]:
    """(k, n) used by the ordered expressions.

    Poisson sizes enter the order-statistic density through a factorial, so
    the cluster size is taken as ceil(nbar) there; the Monte Carlo engine
    keeps the literal conditioning, which makes the convention's error
    measurable instead of hidden.
    """
    if isinstance(size_model, FixedSize):
        n = size_model.n
    else:
        n = math.ceil(size_model.mean)
    return (n if ordering.k is None else ordering.k), n


def _integrate(integrand, int_tol: float) -> float:
    value, abserr = integrate.quad(
        integrand, 0.0, 1.0, epsabs=1e-13, epsrel=int_tol, limit=200
    )
    if abserr > max(10.0 * int_tol * abs(value), 1e-11):
        raise QuadratureError(
            f"integral error estimate {abserr:g} exceeds tolerance "
            f"{int_tol:g} (value {value:g})"
        )
    return value


def coverage(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    method: Method = Method.GAUSS_CHEBYSHEV,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    int_tol: float = 1e-6,
) -> CoverageResult:
    """Coverage probability of the scenario's typical node at threshold gamma_th.

    Every scenario is one integral over u = r/a in (0, 1]:

        P = int f_U(u) min(1, L_intra(beta, u)) e^(-s sigma2) L_inter(s) L_co(s) du

    with s = (u a)^alpha gamma_th / (p_x0 eta) and beta = u^alpha gamma_th
    p_x / p_x0.  f_U is 2u for a uniformly chosen node and the k-th
    order-statistic density otherwise.  EXACT_INTEGRAL integrates it by
    adaptive quadrature with exact disc averages; GAUSS_CHEBYSHEV evaluates
    it at the M outer nodes of quad, with the in-cluster disc averages on
    its T inner nodes.  The intra-interference-limited case is the same
    integral with noise and the two other fields zeroed; beta does not
    contain a, so its value is bit-identical across cluster radii.
    """
    _check_gamma(gamma_th)
    if method not in (Method.EXACT_INTEGRAL, Method.GAUSS_CHEBYSHEV):
        raise ValueError(f"unsupported analytical method {method}")
    exact = method is Method.EXACT_INTEGRAL
    pe = _effective_params(p, scen.interference)
    size = scen.size_model
    if isinstance(size, FixedSize):
        inter, nodes = laplace_inter_fixed_upper, size.n
    else:
        inter, nodes = laplace_inter_random_lower, size.mean

    if isinstance(scen.ordering, Unordered):
        rank = None

        def density(u):
            return 2.0 * u
    else:
        rank, n = _resolve_rank(scen.ordering, size)
        os_coef = 2.0 * math.exp(
            math.lgamma(n + 1) - math.lgamma(n - rank + 1) - math.lgamma(rank)
        )

        def density(u):
            return os_coef * u ** (2 * rank - 1) * (1.0 - u**2) ** (n - rank)

    rho_scale = gamma_th / (pe.p_x0 * pe.eta)
    beta_scale = gamma_th / pe.p_ratio_x
    intra_quad = None if exact else quad

    def integrand(u):
        s = (u * pe.a) ** pe.alpha * rho_scale
        intra = laplace_intra(u**pe.alpha * beta_scale, u, pe.alpha, size, rank, intra_quad)
        return (
            density(u)
            * np.minimum(1.0, intra)
            * np.exp(-s * pe.sigma2)
            * inter(s, nodes, pe)
            * laplace_coexist(s, pe)
        )

    if exact:
        value = _integrate(integrand, int_tol)
    else:
        # the nodes ell are the (-1, 1) rule mapped onto (0, 1): half weight
        value = 0.5 * quad.omega_m * float(np.sum(quad.theta * integrand(quad.ell)))
    return CoverageResult(
        value=min(1.0, max(0.0, value)),
        method=method,
        bound_side=_bound_side(size, scen.interference),
        gamma_th=gamma_th,
    )
