"""Closed-form Laplace transforms of the three interference fields.

The field transforms (cross-cluster bounds and the coexisting PPP) are
functions of the variable s at which the coverage integrand needs them (s
carries units 1/(mW * m^-alpha)); they are elementwise over arrays of s, 1
at s = 0 and lie in (0, 1].

The in-cluster transform works in the dimensionless load beta = s p_x eta
a^-alpha, which along the coverage chain equals u^alpha gamma_th p_x / p_x0
with u the typical link distance in cluster radii; the cluster radius never
enters it.  One function serves every ordering and cluster-size model, with
the disc averages taken either exactly (hypergeometric evaluator) or by
Gauss-Chebyshev nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .params import ClusterSizeModel, LinkParams, PoissonSize, require_int
from .special import QuadratureSpec, gamma_fn, hyp2f1_1_b, log_beta

__all__ = [
    "laplace_coexist",
    "laplace_inter_fixed_upper",
    "laplace_inter_random_lower",
    "laplace_intra",
]

# Closeness of u to the cluster rim below which the far-set factor switches
# to its u -> 1 limit (the direct form is a 0/0 through its normalising
# density).
_FAR_DEGENERATE_RTOL = 1e-9


def _extremes(x) -> tuple[float, float]:
    return (x.min(), x.max()) if isinstance(x, np.ndarray) else (x, x)


def _is_finite_nonnegative(x) -> bool:
    lo, hi = _extremes(x)
    return bool(lo >= 0.0 and hi < math.inf)


def _check_s(s) -> None:
    if not _is_finite_nonnegative(s):
        raise ValueError(f"transform variable s must be finite and nonnegative, got {s}")


def _disc_rule(alpha: float, quad: QuadratureSpec | None):
    """(mean, tail) over a uniform disc, as functions of b = beta rho^-alpha.

    For interferers uniform in a disc of radius rho (in cluster radii),
    mean(b) is the average of 1/(1 + b x^-alpha) over the unit disc and
    tail(b) = 1 - mean(b) the average of the complementary fraction.  With
    quad None they are delta z/(delta+1) 2F1(1, delta+1; delta+2; -z) and
    2F1(1, delta; delta+1; -z) at z = 1/b, for scalar b; otherwise the T
    Gauss-Chebyshev nodes of quad, elementwise over arrays of b.
    """
    if quad is None:
        delta = 2.0 / alpha

        def mean(b):
            # b = 0, and a load so small that 1/b overflows, take the b -> 0
            # limit; the product below would be inf * 0 there
            z = math.inf if b == 0.0 else 1.0 / b
            if z == math.inf:
                return 1.0
            return z * delta / (delta + 1.0) * hyp2f1_1_b(delta + 1.0, z)

        def tail(b):
            return 0.0 if b == 0.0 else hyp2f1_1_b(delta, 1.0 / b)

        return mean, tail

    c_alpha = quad.c**alpha
    mean_weights = quad.mu * quad.c ** (alpha + 1.0)
    tail_weights = quad.mu * quad.c

    def mean(b):
        b = np.asarray(b, dtype=float)
        nodes = mean_weights / (c_alpha + b[..., None])
        return np.where(b > 0.0, quad.omega_t * nodes.sum(axis=-1), 1.0)

    def tail(b):
        b = np.asarray(b, dtype=float)[..., None]
        return quad.omega_t * (tail_weights * b / (c_alpha + b)).sum(axis=-1)

    return mean, tail


def laplace_intra(
    beta,
    u,
    alpha: float,
    size: ClusterSizeModel,
    rank: int | None = None,
    quad: QuadratureSpec | None = None,
):
    """In-cluster interference transform at dimensionless load beta.

    beta = s p_x eta a^-alpha and u in (0, 1] is the typical link distance
    in cluster radii.  rank None means a uniformly chosen typical node: its
    n - 1 (or Poisson(nbar - 1)) interferers are uniform in the cluster
    disc.  rank k means the k-th closest node: with a fixed size n, k - 1
    interferers are uniform inside radius u and n - k in the annulus
    (u, 1]; with Poisson sizes only the farthest node is modelled, so every
    interferer lies inside radius u whatever the rank.

    quad None takes the disc averages exactly, for scalar beta and u;
    otherwise by the T Gauss-Chebyshev nodes of quad, elementwise over
    arrays (one (len(beta) x T) expression per disc).  The Gauss-Chebyshev
    form can overshoot 1 by its quadrature error; the coverage composition
    clips it.
    """
    if not _is_finite_nonnegative(beta):
        raise ValueError(f"load beta must be finite and nonnegative, got {beta}")
    if rank is not None:
        u_lo, u_hi = _extremes(u)
        if not (0.0 < u_lo and u_hi <= 1.0):
            raise ValueError(f"conditioning distance must lie in (0, 1] radii, got {u}")
    if isinstance(size, PoissonSize):
        if size.mean < 1.0:
            raise ValueError(f"mean cluster size must be >= 1, got {size.mean}")
        interferers = size.mean - 1.0
    else:
        n = size.n
        if rank is not None and not 1 <= rank <= n:
            raise ValueError(f"rank k must satisfy 1 <= k <= n, got k={rank}, n={n}")
        interferers = n - 1
    if interferers == 0:
        return np.ones_like(beta, dtype=float)[()]
    mean, tail = _disc_rule(alpha, quad)

    if isinstance(size, PoissonSize):
        b = beta if rank is None else beta * u**-alpha
        return np.exp(-interferers * tail(b))
    if rank is None:
        return mean(beta) ** interferers
    near = mean(beta * u**-alpha)
    value = near ** (rank - 1)
    if rank < n:
        # mean over the annulus (u, 1] from the disc means at radii 1 and u;
        # np.subtract turns the 0/0 at u = 1 into nan for floats too, and
        # the rim limit replaces it
        with np.errstate(divide="ignore", invalid="ignore"):
            far = (mean(beta) - u**2 * near) / np.subtract(1.0, u**2)
        far = np.where(1.0 - u <= _FAR_DEGENERATE_RTOL, 1.0 / (1.0 + beta), far)
        value = value * far ** (n - rank)
    return value


@lru_cache(maxsize=None)
def _inter_beta_sum(n: int, delta: float) -> float:
    """sum_{p=1}^{n} C(n,p) B(p - delta, n - p + delta), in log space.

    Binomial coefficients overflow float64 past n ~ 1e3 and the Beta values
    underflow symmetrically, so each term is assembled from logs.
    """
    log_n_fact = math.lgamma(n + 1)
    terms = [
        math.exp(
            log_n_fact
            - math.lgamma(p + 1)
            - math.lgamma(n - p + 1)
            + log_beta(p - delta, n - p + delta)
        )
        for p in range(1, n + 1)
    ]
    return math.fsum(terms)


def laplace_inter_fixed_upper(s, n: int, p: LinkParams):
    """Upper bound on the cross-cluster transform, fixed cluster size n.

    exp(-pi lambda_g (s p_x eta)^delta delta sum_p C(n,p) B(p-delta,
    n-p+delta)); tight for small cluster radii, where the node-to-parent
    distance approximation underlying it is mild.
    """
    _check_s(s)
    require_int("cluster size n", n, 1)
    delta = p.delta
    expo = (
        math.pi
        * p.lambda_g
        * (s * p.p_x * p.eta) ** delta
        * delta
        * _inter_beta_sum(n, delta)
    )
    return np.exp(-expo)


def laplace_inter_random_lower(s, nbar: float, p: LinkParams):
    """Lower bound on the cross-cluster transform, Poisson mean nbar."""
    _check_s(s)
    if not 0.0 < nbar < math.inf:
        raise ValueError(f"mean cluster size must be positive and finite, got {nbar}")
    delta = p.delta
    expo = (
        math.pi**2
        * p.lambda_g
        * nbar
        * (s * p.p_x * p.eta) ** delta
        * delta
        / math.sin(math.pi * delta)
    )
    return np.exp(-expo)


def laplace_coexist(s, p: LinkParams):
    """Transform of the coexisting-PPP interference (exact, not a bound)."""
    _check_s(s)
    delta = p.delta
    expo = (
        math.pi
        * p.lambda_co
        * gamma_fn(1.0 + delta)
        * gamma_fn(1.0 - delta)
        * (s * p.p_z * p.eta) ** delta
    )
    return np.exp(-expo)
