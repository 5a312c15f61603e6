"""Special functions behind the closed-form coverage expressions.

The coverage analysis only ever needs the Gauss hypergeometric function in
one family of shapes, 2F1(1, b; b+1; -z) with b > 0 and z >= 0, together
with Gamma/Beta values and Gauss-Chebyshev nodes and weights.  This module
evaluates exactly that family, robustly across the huge argument range the
interference transforms produce (z spans from ~1e-6 up to ~1e10 over a
typical SINR sweep).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "QuadratureSpec",
    "beta_fn",
    "gamma_fn",
    "hyp2f1_1_b",
    "log_beta",
    "make_quadrature",
]

# Relative tolerance per evaluation and hard iteration cap.  Exceeding the
# cap raises; values are never silently truncated.
_SERIES_RTOL = 1e-10
_SERIES_MAX_TERMS = 100_000

# Branch boundaries for hyp2f1_1_b.  The direct series needs |z| safely
# below 1; the Pfaff series argument z/(1+z) must stay away from 1.
_Z_SERIES_MAX = 0.5
_Z_PFAFF_MAX = 20.0


class ConvergenceError(RuntimeError):
    """A series or iteration failed to reach the requested tolerance."""


def _series_1_b(b: float, x: float, rtol: float = _SERIES_RTOL) -> float:
    """Sum_k b/(b+k) * x**k for |x| < 1, i.e. 2F1(1, b; b+1; x).

    Successive term ratios stay below |x|, so |term| * |x|/(1-|x|) bounds
    the remaining tail; summation stops once that bound meets rtol.
    """
    tail_factor = abs(x) / (1.0 - abs(x))
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= x * (b + k - 1.0) / (b + k)
        total += term
        if abs(term) * tail_factor <= rtol * abs(total):
            return total
    raise ConvergenceError(
        f"hypergeometric series did not converge (b={b}, x={x})"
    )


def _hyp_integer_b(m: int, z: float) -> float:
    """2F1(1, m; m+1; -z) for integer m >= 1 and z > 0 in closed form.

    m * (-1)**(m-1) * z**-m * [ln(1+z) - sum_{j=1}^{m-1} (-1)**(j+1) z**j / j].
    Stable for z above the direct-series branch; small z goes through the
    series instead, where the bracket would cancel.
    """
    acc = math.log1p(z)
    sign = 1.0
    zj = 1.0
    for j in range(1, m):
        zj *= z
        acc -= sign * zj / j
        sign = -sign
    return m * (1.0 if m % 2 else -1.0) * acc / z**m


def hyp2f1_1_b(b: float, z: float) -> float:
    """Evaluate 2F1(1, b; b+1; -z) for b > 0 and z >= 0.

    Equals b * int_0^1 t**(b-1) / (1 + z t) dt; lies in (0, 1], equals 1 at
    z = 0 and decreases strictly in z.

    Three regimes: the defining series for small z, the Pfaff transform
    (argument z/(1+z)) for moderate z, and the |z| -> inf connection formula
    otherwise.  Raises ConvergenceError if the internal tolerance cannot be
    met within the iteration cap.
    """
    if b <= 0.0:
        raise ValueError(f"hyp2f1_1_b requires b > 0, got b={b}")
    if z < 0.0:
        raise ValueError(f"hyp2f1_1_b requires z >= 0, got z={z}")
    if z == 0.0:
        return 1.0

    # Near-integer b routes through the closed log form: the connection
    # formula below pairs two O(1/|b-m|) terms whose cancellation costs
    # about eps/|b-m| in precision, while the integer form is off by only
    # O(|b-m|).  1e-8 balances the two error sources.
    m = round(b)
    is_integer_b = m >= 1 and abs(b - m) <= 1e-8 * max(1.0, b)

    if z <= _Z_SERIES_MAX:
        return _series_1_b(b, -z)
    if is_integer_b:
        return _hyp_integer_b(m, z)
    if z <= _Z_PFAFF_MAX:
        # Pfaff: 2F1(1, b; b+1; -z) = (1+z)^-1 2F1(1, 1; b+1; z/(1+z)),
        # summed as sum_k k!/(b+1)_k w^k; term ratios stay below w, so the
        # geometric factor bounds the tail.
        w = z / (1.0 + z)
        tail_factor = w / (1.0 - w)
        term = 1.0
        total = 1.0
        for k in range(1, _SERIES_MAX_TERMS):
            term *= w * k / (b + k)
            total += term
            if term * tail_factor <= _SERIES_RTOL * total:
                return total / (1.0 + z)
        raise ConvergenceError(
            f"Pfaff series did not converge (b={b}, z={z})"
        )
    # Large z: 2F1(1, b; b+1; -z) =
    #   b/(b-1) * z^-1 * 2F1(1, 1-b; 2-b; -1/z) + Gamma(1+b)Gamma(1-b) z^-b,
    # with Gamma(1+b)Gamma(1-b) = pi*b/sin(pi*b).  Near an integer m both
    # terms grow like 1/|b-m| and cancel, so each is carried to machine
    # precision: sin(pi*b) = (-1)^m sin(pi*(b-m)) keeps its relative
    # accuracy (b - m is exact), and the series runs to machine epsilon
    # because its terms of size 1/|b-m| cancel against the other term.
    inv = 1.0 / z
    sin_pi_b = math.sin(math.pi * (b - m)) * (-1.0 if m % 2 else 1.0)
    return (
        b / (b - 1.0) * inv * _series_1_b(1.0 - b, -inv, sys.float_info.epsilon)
        + math.pi * b / sin_pi_b * z**-b
    )


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got x={x}")
    return math.gamma(x)


def log_beta(x: float, y: float) -> float:
    """ln B(x, y) for x, y > 0, computed in log space."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError(
            f"beta arguments must be positive, got ({x}, {y}); nonpositive "
            "values arise when the path-loss exponent alpha <= 2"
        )
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def beta_fn(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    return math.exp(log_beta(x, y))


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Chebyshev nodes and weights for the two nested sums.

    The inner sum (order T) approximates the disc averages inside the
    interference transforms; the outer sum (order M) approximates the
    integral over the typical-link distance.  Nodes psi/nu live on (-1, 1),
    c/ell are their affine images on (0, 1), and mu/theta are the
    sqrt(1 - node^2) weights.
    """

    order_t: int
    order_m: int
    omega_t: float
    psi: np.ndarray
    c: np.ndarray
    mu: np.ndarray
    omega_m: float
    nu: np.ndarray
    ell: np.ndarray
    theta: np.ndarray


def _chebyshev_nodes(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    raw = np.cos((2.0 * np.arange(1, order + 1) - 1.0) * np.pi / (2.0 * order))
    # Antisymmetrise so that psi[i] == -psi[order-1-i] holds exactly (and
    # the middle node of an odd order is exactly zero).
    psi = 0.5 * (raw - raw[::-1])
    c = 0.5 * (psi + 1.0)
    mu = np.sqrt(1.0 - psi * psi)
    for arr in (psi, c, mu):
        arr.setflags(write=False)
    return psi, c, mu


def make_quadrature(order_t: int, order_m: int) -> QuadratureSpec:
    """Build the node/weight arrays for inner order T and outer order M."""
    if order_t < 1 or order_m < 1:
        raise ValueError(
            f"quadrature orders must be >= 1, got T={order_t}, M={order_m}"
        )
    psi, c, mu = _chebyshev_nodes(order_t)
    nu, ell, theta = _chebyshev_nodes(order_m)
    return QuadratureSpec(
        order_t=order_t,
        order_m=order_m,
        omega_t=math.pi / order_t,
        psi=psi,
        c=c,
        mu=mu,
        omega_m=math.pi / order_m,
        nu=nu,
        ell=ell,
        theta=theta,
    )
