"""Coverage probability of the typical uplink for all four scenarios.

Scenarios combine how the typical node is chosen (uniformly, or the k-th
closest in its cluster) with the cluster-size model (fixed count or
Poisson).  All of them share one integrand over the typical link distance,
a distance density times the three interference transforms, evaluated by
adaptive Gauss-Kronrod quadrature (exact) or by closed-form Gauss-Chebyshev
nodes; both rules call the integrand on arrays of nodes and compose the
same transforms, so their agreement checks the quadrature swap and nothing
else.

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
    """How coverage is answered; the values are the sweep's method names."""

    EXACT_INTEGRAL = "exact"
    GAUSS_CHEBYSHEV = "gc"
    MONTE_CARLO = "mc"


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


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21; Piessens et al., 1983):
# the nonnegative Kronrod nodes on [-1, 1] from the rim inwards, their
# weights, and the weights of the 10-point Gauss rule at every other node
_KRONROD_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes in increasing order, the Kronrod weights and the Kronrod minus
# Gauss weights (the Gauss nodes are the odd positions) to match them
_NODES = np.concatenate([-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]])
_K21 = np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]])
_K21_MINUS_G10 = _K21.copy()
_K21_MINUS_G10[1::2] -= np.concatenate([_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[::-1]])
_EPS50 = 50.0 * np.finfo(float).eps
_ROUNDING_FLOOR_FROM = np.finfo(float).tiny / _EPS50
_EPSABS = 1e-13
_MAX_PANELS = 200


def _gk21(integrand, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(integral, error estimate) of every panel [lo, hi] by dqk21, in one integrand call.

    The error estimate is QUADPACK's: |K21 - G10| scaled by resasc, the
    rule's integral of |f - mean f|, and floored at 50 eps times the
    integral of |f|.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre[:, None] + half[:, None] * _NODES
    f = np.asarray(integrand(nodes.ravel()), dtype=float).reshape(nodes.shape)
    resk = f @ _K21
    err = np.abs(half * (f @ _K21_MINUS_G10))
    resabs = half * (np.abs(f) @ _K21)
    resasc = half * (np.abs(f - 0.5 * resk[:, None]) @ _K21)
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _ROUNDING_FLOOR_FROM, np.maximum(_EPS50 * resabs, err), err)
    return half * resk, err


def _integrate(integrand, int_tol: float) -> float:
    """Integral of the integrand over [0, 1] by adaptive G10/K21 panels.

    The integrand takes and returns arrays.  Each round bisects every panel
    whose error estimate exceeds its length's share of the tolerance
    max(1e-13, int_tol |integral|), only the worst of them where more would
    pass 200 panels, and evaluates all the new panels in one call.  It stops
    once the summed error estimate meets the tolerance or 200 panels exist.
    """
    lo, hi = np.zeros(1), np.ones(1)
    values, errors = _gk21(integrand, lo, hi)
    while True:
        value, abserr = float(values.sum()), float(errors.sum())
        tol = max(_EPSABS, int_tol * abs(value))
        split = np.flatnonzero(errors > (hi - lo) * tol)
        room = _MAX_PANELS - len(lo)
        # some panel exceeds its share whenever the sum exceeds tol, unless
        # an estimate is nan
        if abserr <= tol or room == 0 or len(split) == 0:
            break
        if len(split) > room:
            split = split[np.argsort(-errors[split], kind="stable")[:room]]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_values, new_errors = _gk21(integrand, new_lo, new_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        values = np.concatenate([values[keep], new_values])
        errors = np.concatenate([errors[keep], new_errors])
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
    Poisson-size cluster.  EXACT_INTEGRAL integrates it by adaptive
    Gauss-Kronrod panels to relative tolerance int_tol, with exact disc
    averages and each round's nodes in one call; GAUSS_CHEBYSHEV evaluates
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
    # s and beta grow with u, so the rim u = 1 bounds every node's values
    try:
        s_rim = p.a**p.alpha * rho_scale
    except OverflowError:  # reported below
        s_rim = math.inf
    if not (math.isfinite(s_rim) and math.isfinite(beta_scale)):
        raise ValueError(
            f"SINR threshold {gamma_th!r} is too large: "
            "the transform variables s and beta overflow at the cluster rim"
        )
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
        value = 0.5 * (math.pi / len(quad.ell)) * float(np.sum(quad.theta * integrand(quad.ell)))
    return CoverageResult(
        value=min(1.0, max(0.0, value)),
        method=method,
        bound_side=_bound_side(size, p),
        gamma_th=gamma_th,
    )
