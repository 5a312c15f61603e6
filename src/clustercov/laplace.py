"""Closed-form Laplace transforms of the three interference fields.

The field transforms (the cross-cluster bound and the coexisting PPP) are
functions of the variable s at which the coverage integrand needs them (s
carries units 1/(mW * m^-alpha)); they are elementwise over arrays of s, 1
at s = 0 and lie in (0, 1].  Both are one PPP form,
exp(-pi lambda Gamma(1-delta) K (s P eta)^delta), and differ only in the
density lambda, the power P and the constant K.  The cross-cluster
transform takes the cluster-size model and picks K from it: Gamma(n+delta)
/ Gamma(n) for n nodes per cluster (an upper bound) and nbar Gamma(1+delta)
for Poisson(nbar) nodes (a lower bound); the coexisting PPP has
K = Gamma(1+delta).

The in-cluster transform works in the dimensionless load beta = s p_x eta
a^-alpha, which along the coverage chain equals u^alpha gamma_th p_x / p_x0
with u the typical link distance in cluster radii; the cluster radius never
enters it.  One function serves every scenario, with the disc averages
taken either exactly (hypergeometric evaluator) or by Gauss-Chebyshev
nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ClusterSizeModel, FixedSize, LinkParams, Ordered, PoissonSize, Scenario
from .special import QuadratureSpec, hyp2f1_1_b

__all__ = [
    "laplace_coexist",
    "laplace_inter",
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


def _disc_rule(alpha: float, quad: QuadratureSpec | None):
    """(mean, tail) over a uniform disc, as functions of b = beta rho^-alpha.

    For interferers uniform in a disc of radius rho (in cluster radii),
    mean(b) is the average of 1/(1 + b x^-alpha) over the unit disc and
    tail(b) = 1 - mean(b) the average of the complementary fraction.  Both
    are elementwise over arrays of b (and give floats for scalar b).  With
    quad None they are delta z/(delta+1) 2F1(1, delta+1; delta+2; -z) and
    2F1(1, delta; delta+1; -z) at z = 1/b, one 2F1 call per array;
    otherwise the T Gauss-Chebyshev nodes of quad.
    """
    if quad is None:
        delta = 2.0 / alpha

        def inverse(b):
            # b = 0, and a load so small that 1/b overflows, give z = inf
            with np.errstate(divide="ignore", over="ignore"):
                return 1.0 / np.asarray(b, dtype=float)

        def mean(b):
            # z = inf takes the b -> 0 limit 1; the product below would be
            # inf * 0 there
            z = inverse(b)
            finite = z < math.inf
            z = np.where(finite, z, 0.0)
            value = z * delta / (delta + 1.0) * hyp2f1_1_b(delta + 1.0, z)
            return np.where(finite, value, 1.0)[()]

        def tail(b):
            return hyp2f1_1_b(delta, inverse(b))

        return mean, tail

    omega = math.pi / len(quad.c)
    c_alpha = quad.c**alpha
    mean_weights = quad.mu * quad.c ** (alpha + 1.0)
    tail_weights = quad.mu * quad.c

    def mean(b):
        b = np.asarray(b, dtype=float)
        nodes = mean_weights / (c_alpha + b[..., None])
        return np.where(b > 0.0, omega * nodes.sum(axis=-1), 1.0)

    def tail(b):
        b = np.asarray(b, dtype=float)[..., None]
        return omega * (tail_weights * b / (c_alpha + b)).sum(axis=-1)

    return mean, tail


def laplace_intra(
    beta, u, alpha: float, scenario: Scenario, quad: QuadratureSpec | None = None
):
    """In-cluster interference transform at dimensionless load beta.

    beta = s p_x eta a^-alpha and u in (0, 1] is the typical link distance
    in cluster radii.  For a uniformly chosen typical node the n - 1 (or
    Poisson(nbar - 1)) interferers are uniform in the cluster disc.  For
    the k-th closest of n nodes, k - 1 interferers are uniform inside
    radius u and n - k in the annulus (u, 1].  For the farthest node with
    Poisson sizes the cluster is the typical node plus J ~ Poisson(m)
    others, m = nbar - 1, all inside radius u; given u, J has the
    posterior P(J) (J + 1) u^(2J), which gives (1 + m u^2 g)/(1 + m u^2)
    exp(-m u^2 (1 - g)) with g the disc mean inside radius u.

    Elementwise over arrays of beta and u.  quad None takes the disc
    averages exactly (one 2F1 call per disc); otherwise by the T
    Gauss-Chebyshev nodes of quad (one (len(beta) x T) expression per
    disc).  The Gauss-Chebyshev form can overshoot 1 by its quadrature
    error; the coverage composition clips it.
    """
    if not _is_finite_nonnegative(beta):
        raise ValueError(f"load beta must be finite and nonnegative, got {beta}")
    ordering, size = scenario.ordering, scenario.size_model
    ranked, poisson = isinstance(ordering, Ordered), isinstance(size, PoissonSize)
    if ranked:
        u_lo, u_hi = _extremes(u)
        if not (0.0 < u_lo and u_hi <= 1.0):
            raise ValueError(f"conditioning distance must lie in (0, 1] radii, got {u}")
    interferers = size.mean - 1.0 if poisson else size.n - 1
    if interferers == 0:
        return np.ones_like(beta, dtype=float)[()]
    mean, tail = _disc_rule(alpha, quad)

    if not ranked:
        if poisson:
            return np.exp(-interferers * tail(beta))
        return mean(beta) ** interferers
    if poisson:
        load = interferers * u**2
        far_share = tail(beta * u**-alpha)  # 1 - g
        return (1.0 + load * (1.0 - far_share)) / (1.0 + load) * np.exp(-load * far_share)
    near = mean(beta * u**-alpha)
    n = size.n
    rank = n if ordering.k is None else ordering.k
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


def _ppp(s, density: float, power: float, k: float, p: LinkParams):
    """exp(-pi density Gamma(1 - delta) k (s power eta)^delta).

    With k = Gamma(1 + delta) this is the exact transform of a PPP of
    Rayleigh-faded transmitters; the cross-cluster bound scales k.  Exactly
    1 for a zero density, at every finite s; a load s power eta past the
    float range takes its limit exp(-inf) = 0.
    """
    lo, hi = _extremes(s)
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError(f"transform variable s must be finite and nonnegative, got {s}")
    if density == 0.0:
        return np.ones_like(s, dtype=float)[()]
    exponent = -math.pi * density * math.gamma(1.0 - p.delta) * k
    # np.errstate costs about as much as a scalar call, so only a load past
    # the float range (somewhere in s) enters it
    if float(hi) * power * p.eta < math.inf:
        return np.exp(exponent * (s * power * p.eta) ** p.delta)
    with np.errstate(over="ignore"):
        return np.exp(exponent * (s * power * p.eta) ** p.delta)


def laplace_inter(s, size: ClusterSizeModel, p: LinkParams):
    """Bound on the cross-cluster transform: upper for a fixed size, lower for Poisson.

    For n nodes per cluster this is the paper's exponent pi lambda_g (s p_x
    eta)^delta delta sum_j C(n,j) B(j-delta, n-j+delta) with the sum in
    closed form: the binomial theorem inside the Beta integral gives delta
    sum_j C(n,j) B(j-delta, n-j+delta) = Gamma(1-delta) Gamma(n+delta)/Gamma(n).
    Tight for small cluster radii, where the node-to-parent distance
    approximation underlying it is mild; exact at n = 1.  For Poisson(nbar)
    nodes per cluster the constant is nbar Gamma(1+delta).
    """
    if isinstance(size, FixedSize):
        k = math.exp(math.lgamma(size.n + p.delta) - math.lgamma(size.n))
    else:
        k = size.mean * math.gamma(1.0 + p.delta)
    return _ppp(s, p.lambda_g, p.p_x, k, p)


def laplace_coexist(s, p: LinkParams):
    """Transform of the coexisting-PPP interference (exact, not a bound)."""
    return _ppp(s, p.lambda_co, p.p_z, math.gamma(1.0 + p.delta), p)
