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
silently.  A link without other clusters (lambda_g = 0) has no such bound,
so its result is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate

from .laplace import laplace_coexist, laplace_inter, laplace_intra
from .params import (  # the scenario types are re-exported from here
    ClusterSizeModel,
    FixedSize,
    LinkParams,
    Ordered,
    Ordering,
    PoissonSize,
    Scenario,
    Unordered,
)
from .special import QuadratureSpec, make_quadrature

__all__ = [
    "BoundSide",
    "CoverageResult",
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
        _check_gamma(self.gamma_th)


def _check_gamma(gamma_th: float) -> None:
    if not (math.isfinite(gamma_th) and gamma_th > 0.0):
        raise ValueError(
            f"SINR threshold must be positive and finite (linear), got {gamma_th}"
        )


def _bound_side(size_model: ClusterSizeModel, link: LinkParams) -> BoundSide:
    # the cross-cluster transform is the only bound in the composition
    if link.lambda_g == 0.0:
        return BoundSide.EXACT
    return BoundSide.UPPER if isinstance(size_model, FixedSize) else BoundSide.LOWER


def _distance_density(u, scenario: Scenario):
    """Density of the typical link distance u = r/a on (0, 1].

    2u for a uniformly chosen node; for the k-th closest of n nodes the
    order-statistic form n!/((n-k)!(k-1)!) F^(k-1) (1-F)^(n-k) f with
    F(u) = u^2 and f = 2u.  The farthest of 1 + Poisson(m) nodes, m =
    nbar - 1, mixes the farthest-of-N densities 2N u^(2N-1) over the
    cluster size: 2u (1 + m u^2) e^(-m (1 - u^2)).
    """
    ordering, size = scenario.ordering, scenario.size_model
    if isinstance(ordering, Unordered):
        return 2.0 * u
    if isinstance(size, PoissonSize):
        m = size.mean - 1.0
        return 2.0 * u * (1.0 + m * u**2) * np.exp(-m * (1.0 - u**2))
    n = size.n
    rank = n if ordering.k is None else ordering.k
    coef = 2.0 * math.exp(math.lgamma(n + 1) - math.lgamma(n - rank + 1) - math.lgamma(rank))
    return coef * u ** (2 * rank - 1) * (1.0 - u**2) ** (n - rank)


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
    p_x / p_x0.  f_U is 2u for a uniformly chosen node, the k-th
    order-statistic density for a ranked node of a fixed-size cluster, and
    its mixture over 1 + Poisson(nbar - 1) nodes for the farthest node of a
    Poisson-size cluster.  EXACT_INTEGRAL integrates it by
    adaptive quadrature with exact disc averages; GAUSS_CHEBYSHEV evaluates
    it at the M outer nodes of quad, with the in-cluster disc averages on
    its T inner nodes.  The in-cluster-interference-limited case is a link
    with lambda_g = lambda_co = sigma2 = 0; beta does not contain a, so its
    value is bit-identical across cluster radii.
    """
    _check_gamma(gamma_th)
    if method not in (Method.EXACT_INTEGRAL, Method.GAUSS_CHEBYSHEV):
        raise ValueError(f"unsupported analytical method {method}")
    if not (math.isfinite(int_tol) and int_tol > 0.0):
        raise ValueError(f"int_tol must be positive and finite, got {int_tol}")
    exact = method is Method.EXACT_INTEGRAL
    size = scen.size_model

    rho_scale = gamma_th / (p.p_x0 * p.eta)
    beta_scale = gamma_th / p.p_ratio_x
    intra_quad = None if exact else quad

    def integrand(u):
        s = (u * p.a) ** p.alpha * rho_scale
        intra = laplace_intra(u**p.alpha * beta_scale, u, p.alpha, scen, intra_quad)
        return (
            _distance_density(u, scen)
            * np.minimum(1.0, intra)
            * np.exp(-s * p.sigma2)
            * laplace_inter(s, size, p)
            * laplace_coexist(s, p)
        )

    if exact:
        value = _integrate(integrand, int_tol)
    else:
        # the nodes ell are the (-1, 1) rule mapped onto (0, 1): half weight
        value = 0.5 * quad.omega_m * float(np.sum(quad.theta * integrand(quad.ell)))
    return CoverageResult(
        value=min(1.0, max(0.0, value)),
        method=method,
        bound_side=_bound_side(size, p),
        gamma_th=gamma_th,
    )
