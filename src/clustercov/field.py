"""The other clusters and the coexisting nodes by their PGFL: the exponent Lambda and its table.

The clusters other than the typical node's own form a Poisson cluster
process (parents a PPP, each cluster a fixed or Poisson number of nodes
uniform in a disc of radius a about its parent) and the coexisting nodes
a PPP, so the transform of either field's interference over the parents
at distance (inner, outer] from the receiver is exactly exp(-Lambda(s)),
its probability generating functional.  ``annulus_exponent`` integrates
Lambda by quadrature, for any annulus and for the whole plane, and
``far_table`` tabulates both fields' Lambda over a window (0, W] on a
lattice of s fixed by the link, memoised, with ``FarTable`` reading it
off at any s.  Nothing here draws a random number: Monte Carlo coverage
takes each trial's other fields from the table, and a transform request
takes the annulus beyond its drawn near disc from ``annulus_exponent``.
NumPy only, so that a first number loads no SciPy.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .params import FixedSize, LinkParams

__all__ = [
    "FAR_TABLES",
    "FarTable",
    "TABLE_FLOOR_SPIKE",
    "TABLE_PER_DECADE",
    "annulus_exponent",
    "far_table",
    "pchip_coefficients",
    "small_s_law",
    "table_floor",
]

# The clusters' exponent rule (``_near_exponent``): each cluster disc is
# averaged over circles about the receiver, _ARC_NODES nodes on each rim
# arc, and the linear part of the bracket over the lens of its parent's
# disc, _LENS_NODES nodes.  Parent radii: _NEAR_LEVELS geometric panels of
# _NEAR_NODES on each side of x = a, where the disc's rim crosses the
# receiver, and beyond 2 a one panel of _FAR_NODES Gauss-Legendre nodes in
# u = (2 a / x)**(alpha - 2), which maps an infinite window to a finite
# interval and makes the tail of the integrand smooth.  The per-block
# buffer never exceeds _BLOCK_BYTES (a table build ran fastest there, and
# at 768 KiB it took more memory and no less time).
_FAR_NODES = 64
_NEAR_LEVELS = 4
_NEAR_NODES = 8
_ARC_NODES = 64
_LENS_NODES = 32
_BLOCK_BYTES = 256 * 1024
# Coverage needs Lambda(s) at a different s per trial and threshold, so it
# is tabulated on a lattice fixed by the link alone: TABLE_PER_DECADE
# points per decade of s / s_a, s_a = a**alpha / (p_x0 eta) (s at gamma = 1
# and r = a), up to two points past the largest s of the request.  It
# starts where a node's load term c / (r**alpha + c) is 1/2 at
# r = TABLE_FLOOR_SPIKE a for the stronger of the two fields, so the
# bracket's saturation is small there and the small-s law below the table
# (see ``FarTable``) is within about 1e-7 of Lambda: 238 points below s_a
# at alpha = 3.5.  The interpolant on an interval depends only on its
# neighbouring nodes, so a trial's value does not depend on the request's
# other thresholds.  The FAR_TABLES most recently used tables are kept
# (see ``far_table``).
TABLE_PER_DECADE = 40
TABLE_FLOOR_SPIKE = 0.02
FAR_TABLES = 64

_gauss = functools.cache(leggauss)


def _disc_mean(w: np.ndarray, alpha: float) -> np.ndarray:
    """H(w) = int_0^1 2 t / (1 + w t**alpha) dt = 2F1(1, delta; 1 + delta; -w), elementwise.

    w >= 0 may be inf (H = 0).  Up to w = 2 the Pfaff transform's series,
    H = sum_j j! / (1 + delta)_j zeta**j / (1 + w) with zeta = w / (1 + w)
    <= 2/3, all of its terms positive; beyond, the whole ray's
    K w**-delta, K = delta pi / sin(delta pi), minus the part beyond t = 1,
    2 sum_j (-1)**j w**-(j + 1) / (alpha (j + 1) - 2) with 1 / w < 1/2.
    Both are summed far past the float resolution.  NumPy only, since
    ``scipy.special`` costs more to import than a short request.
    """
    delta = 2.0 / alpha
    out = np.empty_like(w)
    small = w <= 2.0
    ws = w[small]
    zeta = ws / (1.0 + ws)
    term = np.ones_like(ws)
    total = np.ones_like(ws)
    for j in range(1, 100):
        term *= zeta * (j / (j + delta))
        total += term
    out[small] = total / (1.0 + ws)
    with np.errstate(divide="ignore"):  # w = inf: the ray's value is 0
        v = 1.0 / w[~small]
    beyond = np.zeros_like(v)
    for j in range(59, -1, -1):  # Horner's scheme, smallest terms first
        beyond = v * (2.0 / (alpha * (j + 1) - 2.0) - beyond)
    out[~small] = _plane_constant(delta) * v**delta - beyond
    return out


def _plane_constant(delta: float) -> float:
    """K = int_0^inf 2 y / (1 + y**(2 / delta)) dy = delta pi / sin(delta pi)."""
    return delta * math.pi / math.sin(delta * math.pi)


def _disc_integral(radius, c: np.ndarray, alpha: float) -> np.ndarray:
    """int_0^radius c / (r**alpha + c) 2 pi r dr, elementwise over a finite radius and c.

    The PGFL exponent of a unit-density PPP in that disc, with loads c
    (0 at c = 0); the whole plane gives pi K c**delta.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0: w = inf, or nan at radius 0
        w = radius**alpha / c
    return np.where(c > 0.0, math.pi * radius**2 * _disc_mean(w, alpha), 0.0)


def _graded_rule(lo: float, hi: float, toward_hi: bool):
    """Gauss-Legendre nodes and weights on (lo, hi], graded geometrically toward one end.

    _NEAR_LEVELS panels halve toward that end, and the last one reaches it;
    each takes _NEAR_NODES nodes.
    """
    t, w = _gauss(_NEAR_NODES)
    span = hi - lo
    steps = [span * 2.0**-k for k in range(1, _NEAR_LEVELS + 1)]
    ends = [lo] + ([hi - h for h in steps] if toward_hi else [lo + h for h in steps[::-1]]) + [hi]
    x = np.concatenate([p + 0.5 * (q - p) * (t + 1.0) for p, q in zip(ends, ends[1:])])
    weight = np.concatenate([0.5 * (q - p) * w for p, q in zip(ends, ends[1:])])
    return x, weight


def _cosine_rule(lo, hi, nodes: int):
    """Nodes and weights on [lo, hi] of r = mid - half cos(theta), Gauss-Legendre in theta.

    The map's square-root ends make arc lengths and lens areas, which
    vanish like a square root (or its 3/2 power) at the ends, smooth in
    theta.  lo and hi may be arrays (one interval per row).
    """
    t, w = _gauss(nodes)
    theta = 0.5 * math.pi * (t + 1.0)
    mid = np.asarray(0.5 * (lo + hi))[..., None]
    half = np.asarray(0.5 * (hi - lo))[..., None]
    return mid - half * np.cos(theta), half * (np.sin(theta) * (0.5 * math.pi * w))


@functools.lru_cache(maxsize=FAR_TABLES)
def _lens_rule(a: float, outer: float, alpha: float):
    """The nodes of ``_linear_exponent``: (inner radius, its area fraction, lens r**alpha, weights).

    A node at distance r from the receiver has its parent uniform in the
    disc of radius a about it, so the chance that the parent lies within
    outer is the area of the two discs' overlap over pi a**2: m**2 / a**2
    (m = min(a, outer)) up to r = |outer - a|, and the lens of the two
    circles from there to outer + a, on ``_cosine_rule``'s nodes.
    """
    lo, hi = abs(outer - a), outer + a
    r, dr = _cosine_rule(lo, hi, _LENS_NODES)
    cos_big = np.clip((r * r + outer * outer - a * a) / (2.0 * r * outer), -1.0, 1.0)
    cos_small = np.clip((r * r + a * a - outer * outer) / (2.0 * r * a), -1.0, 1.0)
    kite = np.maximum((outer + a - r) * (r + outer - a) * (r - outer + a) * (r + outer + a), 0.0)
    lens_area = (outer * outer * np.arccos(cos_big) + a * a * np.arccos(cos_small)
                 - 0.5 * np.sqrt(kite))
    r_alpha, weight = r**alpha, 2.0 / (a * a) * r * lens_area * dr
    r_alpha.flags.writeable = weight.flags.writeable = False
    return lo, min(a, outer) ** 2 / (a * a), r_alpha, weight


def _linear_exponent(c: np.ndarray, a: float, outer: float, alpha: float) -> np.ndarray:
    """The linear part of the exponent over parents in (0, outer], per unit density and node.

    2 pi int_0^outer (1 - g(x)) x dx, integrated over the node first: the
    node's c / (r**alpha + c) times the chance that its parent lies within
    outer (``_lens_rule``).  Exact for any load, however narrow the spike
    of c / (r**alpha + c) at the receiver.  Elementwise over c.  The whole
    plane (outer = inf) is the closed form pi K c**delta, and a point
    cluster (a = 0) is its node alone, the disc's closed form.
    """
    if outer == math.inf:
        return math.pi * _plane_constant(2.0 / alpha) * c ** (2.0 / alpha)
    if a == 0.0:
        return _disc_integral(outer, c, alpha)
    inner_radius, inner_fraction, r_alpha, weight = _lens_rule(a, outer, alpha)
    loads = c[..., None]
    terms = loads / (r_alpha + loads)
    terms *= weight
    return inner_fraction * _disc_integral(inner_radius, c, alpha) + terms.sum(axis=-1)


@functools.lru_cache(maxsize=FAR_TABLES)
def _near_rule(a: float, outer: float, alpha: float):
    """The nodes of ``_near_exponent`` for discs of radius a with a parent in (0, outer].

    Parent radii take graded panels on (0, a] and (a, 2 a]
    (``_graded_rule``) and beyond 2 a one panel of _FAR_NODES
    Gauss-Legendre nodes in u = (2 a / x)**(alpha - 2), with
    x dx = (2 a)**2 / (alpha - 2) u**(-alpha / (alpha - 2)) du; outer may
    be infinite (u from 0).  Returns (x_weight, full_radius, arc): each
    parent radius node's weight (with its 2 pi x); the radius of the
    circle about the receiver that lies inside the disc of each node with
    x < a (those nodes come first, in increasing x); each node's rim arcs'
    r**alpha and weights.  Read-only.
    """
    near = 2.0 * a
    x, x_weight = _graded_rule(0.0, min(a, outer), True)
    if outer > a:
        x2, weight2 = _graded_rule(a, min(outer, near), False)
        x, x_weight = np.concatenate([x, x2]), np.concatenate([x_weight, weight2])
    x_weight *= 2.0 * math.pi * x
    if outer > near:
        k = alpha - 2.0
        t, w = _gauss(_FAR_NODES)
        u_lo = (near / outer) ** k
        u = u_lo + 0.5 * (1.0 - u_lo) * (t + 1.0)
        x = np.concatenate([x, near * u ** (-1.0 / k)])
        # 2 pi x dx, with the panel's half-width (1 - u_lo) / 2 in u
        far_weight = math.pi * (1.0 - u_lo) * near**2 / k * w * u ** (-alpha / k)
        x_weight = np.concatenate([x_weight, far_weight])
    r, dr = _cosine_rule(np.abs(a - x), a + x, _ARC_NODES)
    xs = x[:, None]
    cos_half = np.clip((r * r + xs * xs - a * a) / (2.0 * r * xs), -1.0, 1.0)
    full_radius = a - x[x < a]
    arc = (r**alpha, 2.0 / (math.pi * a * a) * r * np.arccos(cos_half) * dr)
    for array in (x_weight, full_radius, *arc):
        array.flags.writeable = False
    return x_weight, full_radius, arc


def _near_exponent(c: np.ndarray, density: float, a: float, size, outer: float,
                   alpha: float) -> np.ndarray:
    """-log of the transform of the clusters with a parent at distance (0, outer], a > 0.

    A disc near the receiver may reach or cover it, so every disc average
    is taken over circles about the receiver: with f(r) = c / (r**alpha +
    c), 1 - g(x) = [F(max(a - x, 0)) + int f(r) 2 r phi(r) dr] / (pi a**2),
    the circle of radius r lying inside the disc up to r = a - x and
    crossing its rim on the arc of half-angle phi = acos((r**2 + x**2 -
    a**2) / (2 r x)) from |a - x| to a + x, and F(R) = int_0^R f 2 pi r dr
    in closed form (``_disc_integral``).  The bracket is split as
    n (1 - g) minus the rest, n (1 - g) - [1 - G] >= 0, which is second
    order in 1 - g.  The linear part is integrated over the node first
    (``_linear_exponent``), so that a load whose f is a spike at the
    receiver far narrower than a (small s) still gets its s**delta law to
    the last digits; only the rest is integrated over parent radii
    (``_near_rule``).  The rest changes fastest near x = a, where the
    disc's rim crosses the receiver, so the parent radii are graded toward
    a from both sides.  The arcs' r**alpha is computed once per rule, as
    a (parent radius, arc node) array, and the loads go through it in
    blocks of at most _BLOCK_BYTES: one add, one divide in place, one
    weighted sum.  Each load's value is computed alone, by the same
    operations on the same shapes, so it does not depend on the other
    loads or on its position in a block: a table's lattice value is the
    same bits for any lattice length.
    """
    x_weight, full_radius, (r_alpha, arc_weight) = _near_rule(a, outer, alpha)
    loads = c.reshape(-1)
    miss = np.zeros((len(loads), len(x_weight)))
    miss[:, :len(full_radius)] = _disc_integral(full_radius, loads[:, None], alpha)
    miss /= math.pi * a * a
    block = max(1, _BLOCK_BYTES // (8 * r_alpha.size))
    buf = np.empty((min(len(loads), block),) + r_alpha.shape)
    for start in range(0, len(loads), block):
        load = loads[start:start + block, None, None]
        terms = buf[:len(load)]
        np.add(r_alpha, load, out=terms)
        np.divide(load, terms, out=terms)
        terms *= arc_weight
        miss[start:start + block] += terms.sum(axis=-1)
    if isinstance(size, FixedSize):
        n = size.n
        # a saturated load gives log1p(-1) = -inf, whose limit is the bracket 1
        with np.errstate(divide="ignore"):
            rest = np.expm1(n * np.log1p(-np.minimum(miss, 1.0)))
    else:
        n = size.mean
        rest = np.expm1(-n * miss)
    rest += n * miss
    rest *= x_weight
    lam = density * (n * _linear_exponent(loads, a, outer, alpha) - rest.sum(axis=-1))
    return lam.reshape(c.shape)


def annulus_exponent(c, density: float, a: float, size, inner: float, outer: float,
                     alpha: float) -> np.ndarray:
    """-log of the transform of the clusters with a parent at distance (inner, outer].

    Parents form a PPP of the given density and each cluster holds size
    nodes uniform in a disc of radius a around its parent, so by the PGFL
    the exponent is 2 pi density int [1 - G(x)] x dx, with G = g**n for a
    fixed size, exp(-nbar (1 - g)) for a Poisson size, and
    g(x) = E_y[1 / (1 + c |x + y|**-alpha)] over the disc.  The coexisting
    PPP is a = 0 with one node per parent.  c holds the loads s p eta
    (any shape; the result has its shape); outer may be infinite.  Exactly
    0 at c = 0.  The arguments are ``oracles.inter_pgfl_integral``'s, and
    its value is exp(-annulus_exponent).

    One rule serves every annulus: the exponent over (0, outer] less the
    one over (0, inner].  The clusters' is ``_near_exponent``'s, and the
    coexisting PPP's the closed form density ``_disc_integral`` (density
    pi K c**delta over the whole plane, see ``_linear_exponent``).
    """
    c = np.asarray(c, dtype=float)
    if density == 0.0 or inner >= outer:
        return np.zeros_like(c)

    def exponent(radius):
        if a == 0.0:
            return density * _linear_exponent(c, 0.0, radius, alpha)
        return _near_exponent(c, density, a, size, radius, alpha)

    lam = exponent(outer)
    if inner > 0.0:
        lam = lam - exponent(inner)
    return lam


def pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``PchipInterpolator(x, y).c`` of SciPy for three or more increasing points.

    x must strictly increase and y must not decrease.  Lambda strictly
    increases in s, but it saturates in floating point far out: from
    thresholds of about 186 dB the table (a running maximum of the rule's
    values) has flat secants (43 of 1040 at gamma = 1e20 on the reference
    link).  PCHIP's interior slopes are the weighted harmonic means of the
    neighbouring secants, 0 next to a flat one (here by a division by zero,
    silenced as SciPy silences it), and its end slopes the three-point
    ones clamped at 0.  The operations and their order are SciPy's
    ``_find_derivatives``, ``_edge_case`` and ``CubicHermiteSpline``, so
    the (4, len(x) - 1) coefficients (highest power first, in powers of
    x - x[i]) are its coefficients bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore"):  # a flat secant gives the slope 0
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[0] = max(((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1]), 0.0)
    d[-1] = max(((2 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2]), 0.0)
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True)
class FarTable:
    """Lambda(s) of both fields over the window, tabulated for one link, window and size model.

    A monotone cubic (PCHIP) in log Lambda against the lattice index k = 0,
    ..., K, and below the grid Lambda's small-s law.  The fields reach the
    receiver, so there Lambda = z(s) - O(z**2), with z = lead s**delta -
    slope s (delta = 2 / alpha) its linear part in the bracket: ``lead``
    the whole plane's coefficient, ``slope`` what a finite window takes
    off it (0 for W = inf), both exact to first order.  The O(z**2) rest is
    the bracket's saturation; the table reads z / (1 + gap z) there, with
    gap = 1 / lam_lo - 1 / z(s_lo), so that it meets the grid at s_lo.  The
    law rises with z for any gap > -1 / z(s_lo), which lam_lo > 0 ensures;
    slope is capped so that z itself rises up to s_lo.  It is capped at
    lam_lo too, so that rounding never lifts it past the grid's first
    value.  So the table is nondecreasing in s like Lambda itself, and the
    estimate stays monotone in the threshold.

    ``pchip_coefficients`` builds SciPy's PCHIP coefficients bit for bit
    for these tables, without importing ``scipy.interpolate`` (whose import
    pulls in ``scipy.optimize`` and ``scipy.linalg`` and costs more than a
    short MC request).  The lattice is uniform in log s and PCHIP commutes
    with an affine map of its abscissa (Fritsch and Carlson 1980), so on
    the integer nodes it is the interpolant in log s up to rounding, and
    it is read without PPoly's per-point interval search, which costs
    more than a chunk's draws: s sits at the position p = (log max(s,
    s_lo) - x[0]) TABLE_PER_DECADE / ln 10, on the interval floor(p) (the
    last one beyond the lattice) at d = p - floor(p).  The cubic is
    evaluated in place in PPoly's order and the small-s law is applied to
    the points below the grid alone, so the values are SciPy's
    ``PchipInterpolator(np.arange(K + 1), log Lambda)`` at p bit for bit
    for any finite s from s_lo.

    Tables are shared between requests (see ``far_table``), so every
    array is read-only.
    """

    s_lo: float
    lam_lo: float
    lead: float
    slope: float
    delta: float
    x: np.ndarray  # log s at the lattice points k = 0, ..., K
    coef: np.ndarray  # (4, K), highest power first, in powers of k - i on interval i
    gap: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        z_lo = self.lead * self.s_lo**self.delta - self.slope * self.s_lo
        object.__setattr__(self, "gap", 1.0 / self.lam_lo - 1.0 / z_lo)
        for array in (self.x, self.coef):
            array.flags.writeable = False

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        pos = np.maximum(flat, self.s_lo)
        np.log(pos, out=pos)
        pos -= self.x[0]
        pos *= TABLE_PER_DECADE / math.log(10.0)
        i = pos.astype(np.intp)  # floor(pos), since log s >= x[0]
        np.minimum(i, self.coef.shape[1] - 1, out=i)
        d = np.subtract(pos, i, out=pos)
        c0, c1, c2, c3 = self.coef
        # c3 + c2 d + c1 (d d) + c0 ((d d) d), summed left to right
        value = c2.take(i)
        value *= d
        value += c3.take(i)
        power = d * d
        term = c1.take(i)
        term *= power
        value += term
        power *= d
        c0.take(i, out=term)
        term *= power
        value += term
        np.exp(value, out=value)
        below = flat < self.s_lo
        if below.any():
            low = flat[below]
            z = self.lead * low**self.delta - self.slope * low
            value[below] = np.minimum(z / (1.0 + self.gap * z), self.lam_lo)
        return value.reshape(s.shape)


def table_floor(link: LinkParams) -> int:
    """The lattice index of the table's first point (see TABLE_FLOOR_SPIKE)."""
    spike = TABLE_FLOOR_SPIKE**link.alpha * link.p_x0 / max(link.p_x, link.p_z)
    return math.floor(TABLE_PER_DECADE * math.log10(spike))


def small_s_law(link: LinkParams, outer: float, size, s: float) -> tuple[float, float]:
    """(lead, slope): Lambda's linear part in the bracket is lead s**delta - slope s + O(s**2).

    The bracket 1 - G is n (1 - g) to first order (nbar for a Poisson
    size), and n (1 - g) integrated over the parents in (0, outer] is one
    node's c / (r**alpha + c) integrated against the chance that its parent
    lies within outer (``_linear_exponent``; the coexisting PPP's own
    exponent).  Over the plane that is pi K c**delta, K = delta pi /
    sin(delta pi), which gives lead; the window's edge takes off a part
    linear in c while c**(1 / alpha) is far below outer, and slope is read
    off the exact linear part at s.  slope is capped at delta lead
    s**(delta - 1), so that the linear part's law rises up to s.
    """
    delta = link.delta
    n = size.n if isinstance(size, FixedSize) else size.mean
    weight = (link.lambda_g * n * (link.p_x * link.eta) ** delta
              + link.lambda_co * (link.p_z * link.eta) ** delta)
    lead = math.pi * _plane_constant(delta) * weight
    if outer == math.inf:
        return lead, 0.0
    linear = link.lambda_co * float(_disc_integral(outer, np.array(s * link.p_z * link.eta),
                                                  link.alpha))
    if link.lambda_g:
        linear += link.lambda_g * n * float(
            _linear_exponent(np.array(s * link.p_x * link.eta), link.a, outer, link.alpha)
        )
    slope = (lead * s**delta - linear) / s
    return lead, min(slope, delta * lead * s ** (delta - 1.0))


@functools.lru_cache(maxsize=FAR_TABLES)
def far_table(link: LinkParams, outer: float, size, top: int) -> FarTable | None:
    """The table of both fields over the window (0, outer] on lattice points up to top.

    The lattice runs from ``table_floor(link)`` to the index top; None where
    neither field has any density.  Tables are memoised on the arguments,
    the FAR_TABLES most recently used, and a cached table is the same bits
    as a rebuilt one.  OverflowError if the lattice's s overflows.
    """
    k = np.arange(table_floor(link), top + 1)
    with np.errstate(over="ignore"):  # an overflow is reported below
        s = link.a**link.alpha / (link.p_x0 * link.eta) * 10.0 ** (k / TABLE_PER_DECADE)
    if not np.isfinite(s).all():
        raise OverflowError("the far-field table's s lattice overflows")
    lam = annulus_exponent(s * (link.p_x * link.eta), link.lambda_g, link.a, size, 0.0, outer,
                           link.alpha)
    lam += annulus_exponent(s * (link.p_z * link.eta), link.lambda_co, 0.0, FixedSize(1), 0.0,
                            outer, link.alpha)
    if not lam.any():
        return None
    # Lambda never decreases in s, but where it saturates, near
    # (lambda_g + lambda_co) pi W**2, the rule's value wobbles by an ulp
    np.maximum.accumulate(lam, out=lam)
    log_lam = np.log(lam)
    # the interpolant at k = 0 is exactly log_lam[0]
    coef = pchip_coefficients(np.arange(len(s), dtype=float), log_lam)
    return FarTable(s[0], float(np.exp(log_lam[0])), *small_s_law(link, outer, size, s[0]),
                    link.delta, np.log(s), coef)
