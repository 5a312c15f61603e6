"""Special functions behind the closed-form coverage expressions.

The coverage analysis only ever needs the Gauss hypergeometric function in
one family of shapes, 2F1(1, b; b+1; -z) with b > 0 and z >= 0, together
with Gauss-Chebyshev nodes and weights.  The 2F1 family is one call of
scipy's ``hyp2f1`` ufunc on an array of z (or a scalar), behind a wrapper
that checks its domain, with a closed log form for b within 1e-8 of an
integer, where scipy loses precision at large z (z spans from ~1e-6 up to
~1e10 over a typical SINR sweep).

Only the exact integral calls 2F1, and ``import scipy.special`` takes
about a third of a second, so ``hyp2f1_1_b`` imports scipy's ``hyp2f1``
when called: importing the package, Gauss-Chebyshev points and Monte Carlo
estimates load NumPy and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import require_int

__all__ = [
    "QuadratureSpec",
    "hyp2f1_1_b",
    "make_quadrature",
]


def _hyp_integer_b(m: int, z: np.ndarray) -> np.ndarray:
    """2F1(1, m; m+1; -z) for integer m >= 1 and finite z > 0.5 in closed form.

    m * (-1)**(m-1) * z**-m * [ln(1+z) - sum_{j=1}^{m-1} (-1)**(j+1) z**j / j].
    Used for b within 1e-8 of m, where scipy's 2F1 loses about
    1e-15/|b-m| in relative precision for z > 0.5 and this form is off by
    only O(|b-m|).  Small z stays with scipy, where the bracket would cancel.
    """
    acc = np.log1p(z)
    sign = 1.0
    zj = 1.0
    for j in range(1, m):
        zj *= z
        acc -= sign * zj / j
        sign = -sign
    return m * (1.0 if m % 2 else -1.0) * acc / z**m


def hyp2f1_1_b(b: float, z):
    """Evaluate 2F1(1, b; b+1; -z) for finite b > 0 and z >= 0, elementwise over z.

    Equals b * int_0^1 t**(b-1) / (1 + z t) dt; lies in (0, 1], equals 1 at
    z = 0, decreases strictly in z and tends to 0 as z -> inf, which it
    returns at z = inf.  A scalar z gives a float, an array of z an array of
    its shape with every entry equal to the scalar result.  Raises
    ValueError for NaN arguments, nonpositive or infinite b and negative z
    (naming the first such z of an array).
    """
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"hyp2f1_1_b requires finite b > 0, got b={b}")
    z = np.asarray(z, dtype=float)
    valid = z >= 0.0
    if not valid.all():
        raise ValueError(f"hyp2f1_1_b requires z >= 0, got z={z[~valid].flat[0]}")
    from scipy.special import hyp2f1

    value = np.where(z < math.inf, hyp2f1(1.0, b, b + 1.0, -z), 0.0)
    m = round(b)
    if m >= 1 and abs(b - m) <= 1e-8 * max(1.0, b):
        large = (z > 0.5) & (z < math.inf)
        value = np.where(large, _hyp_integer_b(m, np.where(large, z, 1.0)), value)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Chebyshev nodes and weights for the two nested sums.

    The inner sum (T = len(c) nodes) approximates the disc averages inside
    the interference transforms; the outer sum (M = len(ell) nodes) the
    integral over the typical-link distance.  c/ell are the Chebyshev nodes
    mapped from (-1, 1) onto (0, 1) and mu/theta their sqrt(1 - node^2)
    weights; the sums' factors pi/T and pi/M follow from the lengths.
    """

    c: np.ndarray
    mu: np.ndarray
    ell: np.ndarray
    theta: np.ndarray


def _chebyshev_nodes(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, c, mu): the order Chebyshev nodes on (-1, 1), their (0, 1) images and weights."""
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
    """Read-only nodes and weights for inner order T = len(c) and outer order M = len(ell)."""
    require_int("quadrature order T", order_t, 1)
    require_int("quadrature order M", order_m, 1)
    _, c, mu = _chebyshev_nodes(order_t)
    _, ell, theta = _chebyshev_nodes(order_m)
    return QuadratureSpec(c=c, mu=mu, ell=ell, theta=theta)
