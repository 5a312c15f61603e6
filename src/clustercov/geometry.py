"""Distance distributions of the clustered spatial model.

Every receiver carries a cluster of nodes placed uniformly in a disc of
radius ``a`` around it.  The densities below give the typical link distance
(a uniformly chosen node, or the k-th closest of n) and the in-cluster
interferer distances given the typical node's rank; the coverage
expressions integrate over them.  Sampling lives in the Monte Carlo engine
(``clustercov.mc``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "conditional_interferer_pdf",
    "ordered_distance_pdf",
    "unordered_distance_pdf",
]


def unordered_distance_pdf(r, a: float):
    """Radial density 2r/a^2 of a uniformly placed node, zero outside [0, a]."""
    if a <= 0.0:
        raise ValueError(f"cluster radius must be positive, got {a}")
    r = np.asarray(r, dtype=float)
    out = np.where((r >= 0.0) & (r <= a), 2.0 * r / a**2, 0.0)
    return out if out.ndim else float(out)


def ordered_distance_pdf(r, k: int, n: int, a: float):
    """Density of the k-th closest of n uniformly placed nodes.

    Order-statistic form n!/((n-k)!(k-1)!) F^(k-1) (1-F)^(n-k) f with
    F(r) = r^2/a^2 and f the unordered radial density.
    """
    if a <= 0.0:
        raise ValueError(f"cluster radius must be positive, got {a}")
    if not 1 <= k <= n:
        raise ValueError(f"rank k must satisfy 1 <= k <= n, got k={k}, n={n}")
    r = np.asarray(r, dtype=float)
    coef = math.exp(math.lgamma(n + 1) - math.lgamma(n - k + 1) - math.lgamma(k))
    with np.errstate(invalid="ignore"):
        cdf = np.clip(r / a, 0.0, 1.0) ** 2
        out = np.where(
            (r >= 0.0) & (r <= a),
            coef * cdf ** (k - 1) * (1.0 - cdf) ** (n - k) * 2.0 * r / a**2,
            0.0,
        )
    return out if out.ndim else float(out)


def conditional_interferer_pdf(r, r_k: float, a: float):
    """Densities of in-cluster interferers given the typical node's rank.

    Returns (near, far): nodes closer than the rank-k node follow
    2r/r_k^2 on [0, r_k]; nodes farther follow 2r/(a^2 - r_k^2) on
    (r_k, a].  For the degenerate r_k == a the far branch has zero-width
    support and is returned as identically zero.
    """
    if a <= 0.0:
        raise ValueError(f"cluster radius must be positive, got {a}")
    if not 0.0 < r_k <= a:
        raise ValueError(f"conditioning distance must lie in (0, a], got {r_k}")
    r = np.asarray(r, dtype=float)
    near = np.where((r >= 0.0) & (r <= r_k), 2.0 * r / r_k**2, 0.0)
    if r_k == a:
        far = np.zeros_like(r)
    else:
        far = np.where((r > r_k) & (r <= a), 2.0 * r / (a**2 - r_k**2), 0.0)
    if near.ndim:
        return near, far
    return float(near), float(far)
