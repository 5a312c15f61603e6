"""Coverage probability of the typical uplink for all four scenarios.

Scenarios combine how the typical node is chosen (uniformly, or the k-th
closest in its cluster) with the cluster-size model (fixed count or
Poisson).  Each scenario has an exact-integral route (adaptive quadrature
over the typical link distance) and a closed-form Gauss-Chebyshev route;
both compose the same interference transforms, so their agreement checks
the quadrature swap and nothing else.

Fixed-size results are upper bounds and Poisson-size results lower bounds,
inherited from the direction of the cross-cluster transform bound; the
result object carries that tag so downstream metrics never mix directions
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from scipy import integrate

from .geometry import ordered_distance_pdf
from .laplace import (
    laplace_coexist,
    laplace_inter_fixed_upper,
    laplace_inter_random_lower,
    laplace_intra_fixed,
    laplace_intra_fixed_gc,
    laplace_intra_ordered_fixed,
    laplace_intra_ordered_fixed_gc,
    laplace_intra_ordered_random,
    laplace_intra_ordered_random_gc,
    laplace_intra_random,
    laplace_intra_random_gc,
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
    "coverage_intra_limited",
    "coverage_ordered_exact",
    "coverage_ordered_gc",
    "coverage_unordered_exact",
    "coverage_unordered_gc",
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
        # The Poisson in-cluster transform assumes every interferer lies
        # inside the typical distance, which holds only for the farthest node.
        if (
            isinstance(self.ordering, Ordered)
            and self.ordering.k is not None
            and isinstance(self.size_model, PoissonSize)
        ):
            raise ValueError(
                f"rank k={self.ordering.k} needs a fixed cluster size; with "
                "Poisson sizes only the farthest node (k=None) is supported"
            )

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
    ci_halfwidth: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"coverage must lie in [0, 1], got {self.value}")
        if (self.ci_halfwidth is not None) != (self.method is Method.MONTE_CARLO):
            raise ValueError("ci_halfwidth is present exactly for Monte Carlo results")


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
    k = n if ordering.k is None else ordering.k
    if k > n:
        raise ValueError(f"rank k={k} exceeds the cluster size n={n}")
    return k, n


def _integrate(integrand, upper: float, int_tol: float) -> float:
    value, abserr = integrate.quad(
        integrand, 0.0, upper, epsabs=1e-13, epsrel=int_tol, limit=200
    )
    if abserr > max(10.0 * int_tol * abs(value), 1e-11):
        raise QuadratureError(
            f"integral error estimate {abserr:g} exceeds tolerance "
            f"{int_tol:g} (value {value:g})"
        )
    return value


def _clip(value: float) -> float:
    return min(1.0, max(0.0, value))


def coverage_unordered_exact(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    int_tol: float = 1e-6,
) -> CoverageResult:
    """Coverage of a uniformly chosen typical node, by adaptive quadrature."""
    _check_gamma(gamma_th)
    if not isinstance(scen.ordering, Unordered):
        raise ValueError("scenario ordering must be Unordered")
    pe = _effective_params(p, scen.interference)
    size = scen.size_model
    rho_scale = gamma_th / (pe.p_x0 * pe.eta)

    if isinstance(size, FixedSize):
        def intra(s: float) -> float:
            return laplace_intra_fixed(s, size.n, pe)

        def inter(s: float) -> float:
            return laplace_inter_fixed_upper(s, size.n, pe)
    else:
        def intra(s: float) -> float:
            return laplace_intra_random(s, size.mean, pe)

        def inter(s: float) -> float:
            return laplace_inter_random_lower(s, size.mean, pe)

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        s = r**pe.alpha * rho_scale
        return (
            math.exp(-s * pe.sigma2)
            * intra(s)
            * inter(s)
            * laplace_coexist(s, pe)
            * 2.0
            * r
            / pe.a**2
        )

    value = _integrate(integrand, pe.a, int_tol)
    return CoverageResult(
        value=_clip(value),
        method=Method.EXACT_INTEGRAL,
        bound_side=_bound_side(size, scen.interference),
        gamma_th=gamma_th,
    )


def coverage_unordered_gc(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> CoverageResult:
    """Closed-form Gauss-Chebyshev coverage, uniformly chosen typical node."""
    _check_gamma(gamma_th)
    if not isinstance(scen.ordering, Unordered):
        raise ValueError("scenario ordering must be Unordered")
    pe = _effective_params(p, scen.interference)
    size = scen.size_model
    rho_scale = gamma_th / (pe.p_x0 * pe.eta)

    total = 0.0
    for m in range(quad.order_m):
        ell = quad.ell[m]
        s = (ell * pe.a) ** pe.alpha * rho_scale
        if isinstance(size, FixedSize):
            intra = laplace_intra_fixed_gc(s, size.n, pe, quad)
            inter = laplace_inter_fixed_upper(s, size.n, pe)
        else:
            intra = laplace_intra_random_gc(s, size.mean, pe, quad)
            inter = laplace_inter_random_lower(s, size.mean, pe)
        total += (
            quad.theta[m]
            * ell
            * math.exp(-s * pe.sigma2)
            * intra
            * inter
            * laplace_coexist(s, pe)
        )
    return CoverageResult(
        value=_clip(quad.omega_m * total),
        method=Method.GAUSS_CHEBYSHEV,
        bound_side=_bound_side(size, scen.interference),
        gamma_th=gamma_th,
    )


def coverage_intra_limited(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> CoverageResult:
    """Coverage with only in-cluster interference (no noise, no other fields).

    The cluster radius cancels out of the expression, so it never enters
    the computation: values are bit-identical across radii.
    """
    _check_gamma(gamma_th)
    if scen.interference is not Interference.INTRA_LIMITED:
        raise ValueError("scenario must be intra-interference limited")
    if not isinstance(scen.ordering, Unordered):
        raise ValueError("scenario ordering must be Unordered")
    size = scen.size_model
    gamma_ratio = gamma_th / p.p_ratio_x

    total = 0.0
    for m in range(quad.order_m):
        ell = quad.ell[m]
        beta = ell**p.alpha * gamma_ratio
        if isinstance(size, FixedSize):
            if size.n == 1:
                factor = 1.0
            else:
                bracket = quad.omega_t * float(
                    (quad.mu * quad.c ** (p.alpha + 1.0) / (quad.c**p.alpha + beta)).sum()
                )
                factor = bracket ** (size.n - 1)
        else:
            tail = quad.omega_t * float(
                (quad.mu * quad.c / (quad.c**p.alpha / beta + 1.0)).sum()
            )
            factor = math.exp(-(size.mean - 1.0) * tail)
        total += quad.theta[m] * ell * factor
    return CoverageResult(
        value=_clip(quad.omega_m * total),
        method=Method.GAUSS_CHEBYSHEV,
        bound_side=BoundSide.EXACT,
        gamma_th=gamma_th,
    )


def coverage_ordered_exact(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    int_tol: float = 1e-6,
) -> CoverageResult:
    """Coverage of the k-th closest node, by adaptive quadrature."""
    _check_gamma(gamma_th)
    if not isinstance(scen.ordering, Ordered):
        raise ValueError("scenario ordering must be Ordered")
    pe = _effective_params(p, scen.interference)
    size = scen.size_model
    k, n = _resolve_rank(scen.ordering, size)
    rho_scale = gamma_th / (pe.p_x0 * pe.eta)

    if isinstance(size, FixedSize):
        def intra(s: float, r: float) -> float:
            return laplace_intra_ordered_fixed(s, k, n, r, pe)

        def inter(s: float) -> float:
            return laplace_inter_fixed_upper(s, n, pe)
    else:
        def intra(s: float, r: float) -> float:
            return laplace_intra_ordered_random(s, size.mean, r, pe)

        def inter(s: float) -> float:
            return laplace_inter_random_lower(s, size.mean, pe)

    def integrand(r: float) -> float:
        if r <= 0.0:
            return 0.0
        s = r**pe.alpha * rho_scale
        return (
            math.exp(-s * pe.sigma2)
            * intra(s, r)
            * inter(s)
            * laplace_coexist(s, pe)
            * ordered_distance_pdf(r, k, n, pe.a)
        )

    value = _integrate(integrand, pe.a, int_tol)
    return CoverageResult(
        value=_clip(value),
        method=Method.EXACT_INTEGRAL,
        bound_side=_bound_side(size, scen.interference),
        gamma_th=gamma_th,
    )


def coverage_ordered_gc(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> CoverageResult:
    """Closed-form Gauss-Chebyshev coverage of the k-th closest node."""
    _check_gamma(gamma_th)
    if not isinstance(scen.ordering, Ordered):
        raise ValueError("scenario ordering must be Ordered")
    pe = _effective_params(p, scen.interference)
    size = scen.size_model
    k, n = _resolve_rank(scen.ordering, size)
    nbar = size.mean if isinstance(size, PoissonSize) else None
    rho_scale = gamma_th / (pe.p_x0 * pe.eta)
    os_coef = math.exp(math.lgamma(n + 1) - math.lgamma(n - k + 1) - math.lgamma(k))

    total = 0.0
    for m in range(quad.order_m):
        ell = quad.ell[m]
        r = ell * pe.a
        s = r**pe.alpha * rho_scale
        if nbar is None:
            intra = laplace_intra_ordered_fixed_gc(s, k, n, r, pe, quad)
            inter = laplace_inter_fixed_upper(s, n, pe)
        else:
            intra = laplace_intra_ordered_random_gc(s, nbar, r, pe, quad)
            inter = laplace_inter_random_lower(s, nbar, pe)
        os_density = os_coef * ell ** (2 * k - 1) * (1.0 - ell**2) ** (n - k)
        total += (
            quad.theta[m]
            * os_density
            * math.exp(-s * pe.sigma2)
            * intra
            * inter
            * laplace_coexist(s, pe)
        )
    return CoverageResult(
        value=_clip(quad.omega_m * total),
        method=Method.GAUSS_CHEBYSHEV,
        bound_side=_bound_side(size, scen.interference),
        gamma_th=gamma_th,
    )


def coverage(
    gamma_th: float,
    scen: Scenario,
    p: LinkParams,
    method: Method = Method.GAUSS_CHEBYSHEV,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
    int_tol: float = 1e-6,
) -> CoverageResult:
    """Route to the scenario's exact or Gauss-Chebyshev implementation."""
    unordered = isinstance(scen.ordering, Unordered)
    if method is Method.EXACT_INTEGRAL:
        fn = coverage_unordered_exact if unordered else coverage_ordered_exact
        return fn(gamma_th, scen, p, int_tol=int_tol)
    if method is Method.GAUSS_CHEBYSHEV:
        if unordered and scen.interference is Interference.INTRA_LIMITED:
            return coverage_intra_limited(gamma_th, scen, p, quad)
        fn = coverage_unordered_gc if unordered else coverage_ordered_gc
        return fn(gamma_th, scen, p, quad)
    raise ValueError(f"unsupported analytical method {method}")
