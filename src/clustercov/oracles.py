"""Independent numerical oracles for the closed-form expressions.

Every closed form in this package has a brute-force counterpart here built
on adaptive quadrature of the underlying integral representations, with no
shared code path: the hypergeometric evaluator, the fixed-size
cross-cluster bound and the interference transforms are all checked
against these routes by the test suite and by the ``oracle`` CLI
subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, stats

from . import config, field, laplace, special
from .params import FixedSize, LinkParams, Ordered, PoissonSize, Scenario, Unordered

__all__ = [
    "OracleCheck",
    "hyp_integral",
    "beta_integral",
    "intra_fixed_integral",
    "intra_random_integral",
    "intra_ordered_fixed_integral",
    "intra_ordered_random_integral",
    "disc_mean_integral",
    "inter_pgfl_integral",
    "noise_only_coverage_integral",
    "run_checks",
]


def hyp_integral(b: float, z: float) -> float:
    """b * int_0^1 t^(b-1)/(1+zt) dt by adaptive quadrature.

    The t^(b-1) endpoint singularity is handed to the algebraic-weight
    rule; for large z the sharp transition near t ~ 1/z gets its own
    panel so the weighted rule only sees the boundary layer.
    """
    if z == 0.0:
        return 1.0

    def smooth(t: float) -> float:
        return 1.0 / (1.0 + z * t)

    if z <= 10.0:
        value, _ = integrate.quad(
            smooth, 0.0, 1.0, weight="alg", wvar=(b - 1.0, 0.0),
            epsabs=1e-15, epsrel=1e-13, limit=400,
        )
        return b * value
    split = 10.0 / z
    inner, _ = integrate.quad(
        smooth, 0.0, split, weight="alg", wvar=(b - 1.0, 0.0),
        epsabs=1e-16, epsrel=1e-13, limit=400,
    )
    outer, _ = integrate.quad(
        lambda t: t ** (b - 1.0) / (1.0 + z * t), split, 1.0,
        epsabs=1e-16, epsrel=1e-13, limit=400,
    )
    return b * (inner + outer)


def beta_integral(x: float, y: float) -> float:
    """B(x, y) from its defining integral int_0^inf t^(x-1)/(1+t)^(x+y) dt.

    t -> 1/t folds (1, inf) onto (0, 1) as t^(y-1)/(1+t)^(x+y), so both
    halves are a smooth factor under an algebraic endpoint weight; the
    heavy t^(-1-y) tail never reaches the quadrature.
    """
    total = 0.0
    for power in (x, y):
        value, _ = integrate.quad(
            lambda t: (1.0 + t) ** (-(x + y)), 0.0, 1.0, weight="alg",
            wvar=(power - 1.0, 0.0), epsabs=1e-15, epsrel=1e-13, limit=400,
        )
        total += value
    return total


def _disc_factor_integral(sp_eta: float, radius: float, alpha: float) -> float:
    """int_0^radius [1/(1 + sp_eta r^-alpha)] 2r/radius^2 dr."""
    value, _ = integrate.quad(
        lambda r: (2.0 * r / radius**2) / (1.0 + sp_eta * r**-alpha),
        0.0,
        radius,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return value


def intra_fixed_integral(s: float, n: int, p: LinkParams) -> float:
    """In-cluster transform, unordered/fixed, straight from its integral."""
    if s == 0.0 or n == 1:
        return 1.0
    return _disc_factor_integral(s * p.p_x * p.eta, p.a, p.alpha) ** (n - 1)


def intra_random_integral(s: float, nbar: float, p: LinkParams) -> float:
    """In-cluster transform, unordered/Poisson, from its exponent integral."""
    if s == 0.0 or nbar == 1.0:
        return 1.0
    sp_eta = s * p.p_x * p.eta
    value, _ = integrate.quad(
        lambda r: r * sp_eta * r**-p.alpha / (1.0 + sp_eta * r**-p.alpha),
        0.0,
        p.a,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return math.exp(-2.0 * (nbar - 1.0) / p.a**2 * value)


def intra_ordered_fixed_integral(s: float, k: int, n: int, r_k: float, p: LinkParams) -> float:
    """Ordered/fixed in-cluster transform from the two-set integrals."""
    if s == 0.0 or n == 1:
        return 1.0
    sp_eta = s * p.p_x * p.eta

    def kernel(r: float) -> float:
        return r / (1.0 + sp_eta * r**-p.alpha)

    value = 1.0
    if k > 1:
        q1, _ = integrate.quad(kernel, 0.0, r_k, epsabs=1e-16, epsrel=1e-12, limit=400)
        value *= (2.0 / r_k**2 * q1) ** (k - 1)
    if k < n:
        q2, _ = integrate.quad(kernel, r_k, p.a, epsabs=1e-16, epsrel=1e-12, limit=400)
        value *= (2.0 / (p.a**2 - r_k**2) * q2) ** (n - k)
    return value


def intra_ordered_random_integral(s: float, nbar: float, r_n: float, p: LinkParams) -> float:
    """Ordered/Poisson in-cluster transform as a posterior-weighted sum over sizes.

    The cluster is the typical node plus J ~ Poisson(nbar - 1) others; the
    typical node, the farthest, sits at r_n, so J has posterior weights
    P(J) (J + 1) (r_n/a)^(2J) and each of the J others is uniform in the
    disc of radius r_n.  The sum stops once the Poisson tail P(> J) falls
    below 1e-16.
    """
    if s == 0.0 or nbar == 1.0:
        return 1.0
    m = nbar - 1.0
    disc = _disc_factor_integral(s * p.p_x * p.eta, r_n, p.alpha)
    j = np.arange(stats.poisson.isf(1e-16, m) + 2)
    weights = stats.poisson.pmf(j, m) * (j + 1) * (r_n / p.a) ** (2 * j)
    return math.fsum(weights * disc**j) / math.fsum(weights)


def disc_mean_integral(load: float, a: float, alpha: float, x: float) -> float:
    """Mean of load / (d**alpha + load) over a disc of radius a centred x from the origin.

    d is a point's distance to the origin, and the disc mean is taken over
    circles about the origin, since the integrand depends on d alone: the
    circle of radius d lies inside the disc up to d = a - x (where x < a,
    so that the disc covers the origin) and crosses the disc's rim from
    |a - x| to a + x on an arc of half-angle acos((d**2 + x**2 - a**2) /
    (2 d x)).  Each is one adaptive quadrature, with a break where the
    term reaches 1/2.  a = 0 is the term at d = x.
    """
    def term(d: float) -> float:
        return load / (d**alpha + load)

    if a == 0.0:
        return term(x)
    knee = load ** (1.0 / alpha)
    # the disc mean is at least the term at the disc's far rim
    floor = 1e-13 * term(x + a)
    total = 0.0
    if x < a:
        total, _ = integrate.quad(
            lambda d: term(d) * 2.0 * d / a**2, 0.0, a - x,
            points=[knee] if knee < (1.0 - 1e-9) * (a - x) else None, epsabs=floor,
            epsrel=1e-12, limit=200,
        )

    # the arc in u = d - x, where its half-angle
    # acos(1 - (a**2 - u**2) / (2 d x)) = 2 asin(sqrt((a**2 - u**2) / (4 d x)))
    # keeps its digits however far out the disc lies
    def arc(u: float) -> float:
        d = x + u
        half = math.asin(min(1.0, math.sqrt(max(0.0, (a - u) * (a + u)) / (4.0 * d * x))))
        return term(d) * 4.0 * d * half / (math.pi * a**2)

    lo = abs(a - x) - x
    # breaks at the knee and where the arc, which opens from the circle of
    # radius |a - x|, has opened; none within rounding of an end, which
    # would make a degenerate panel
    breaks = [u for u in (knee - x, lo + 2.0 * abs(a - x)) if lo + 1e-9 * a < u < a - 1e-9 * a]
    value, _ = integrate.quad(
        arc, lo, a, points=sorted(breaks) or None, epsabs=floor, epsrel=1e-12, limit=200,
    )
    return total + value


def inter_pgfl_integral(
    load: float,
    density: float,
    a: float,
    alpha: float,
    size: FixedSize | PoissonSize,
    r_lo: float = 0.0,
    r_hi: float = math.inf,
) -> float:
    """Transform of a cluster field's interference, by nested adaptive quadrature.

    Parents form a PPP of the given density at distance [r_lo, r_hi] from
    the origin (0 and inf allowed), and each cluster holds size nodes
    uniform in a disc of radius a around its parent.  With load = s p eta
    the PGFL gives exp(-2 pi density int [1 - G(x)] x dx), where
    G = g**n (fixed) or exp(-nbar (1 - g)) (Poisson) and 1 - g(x) is the
    disc mean of load / (d**alpha + load) (``disc_mean_integral``), d the
    node's distance to the origin.  a = 0 is a plain PPP.
    """
    if load == 0.0 or density == 0.0 or r_lo >= r_hi:
        return 1.0

    def integrand(x: float) -> float:
        q = disc_mean_integral(load, a, alpha, x)
        if isinstance(size, FixedSize):
            # a saturated term (q = 1 in floating point) leaves the bracket 1
            return (-math.expm1(size.n * math.log1p(-q)) if q < 1.0 else 1.0) * x
        return -math.expm1(-size.mean * q) * x

    # panels end at the disc rim crossing the origin and at the radius where
    # a node's load term reaches 1/2, but not within rounding of another end
    breaks = [r_lo]
    for v in sorted({v for v in (a, load ** (1.0 / alpha)) if r_lo < v < r_hi} | {r_hi}):
        if v == r_hi or v - breaks[-1] > 1e-9 * v:
            breaks.append(v)
    total = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        if hi < math.inf:
            value, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)
        else:
            # x = lo * v**(-1 / k) maps [lo, inf) onto (0, 1] and turns the
            # x**(1 - alpha) tail into a constant, where quad's own map of an
            # infinite range resolves it poorly
            k = alpha - 2.0
            value, _ = integrate.quad(
                lambda v: integrand(lo * v ** (-1.0 / k)) * lo / k * v ** (-1.0 / k - 1.0),
                0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200,
            )
        total += value
    return math.exp(-2.0 * math.pi * density * total)


def noise_only_coverage_integral(gamma_th: float, p: LinkParams) -> float:
    """Coverage with no interferers at all: int e^(-rho sigma2) 2r/a^2 dr."""
    scale = gamma_th / (p.p_x0 * p.eta)
    value, _ = integrate.quad(
        lambda r: math.exp(-(r**p.alpha) * scale * p.sigma2) * 2.0 * r / p.a**2,
        0.0,
        p.a,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=400,
    )
    return value


@dataclass(frozen=True)
class OracleCheck:
    name: str
    worst_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_error <= self.tolerance


def _fig2_link() -> LinkParams:
    return config.build_sweep({}, preset="fig2")[1].network.link


def _check_hyp2f1() -> OracleCheck:
    worst = 0.0
    for b in (0.25, 2.0 / 3.5, 1.0, 1.0 + 2.0 / 3.5):
        for z in np.logspace(-3, 6, 13):
            ref = hyp_integral(b, float(z))
            got = special.hyp2f1_1_b(b, float(z))
            worst = max(worst, abs(got - ref) / abs(ref))
    return OracleCheck("2f1 vs integral representation", worst, 1e-8)


def _check_beta() -> OracleCheck:
    # the fixed-size cross-cluster bound against the paper's exponent
    # pi lambda_g (s p_x eta)^delta delta sum_j C(n,j) B(j-delta, n-j+delta)
    p = _fig2_link()
    delta = p.delta
    worst = 0.0
    for n in (1, 2, 6, 30):
        beta_sum = math.fsum(math.comb(n, j) * beta_integral(j - delta, n - j + delta)
                             for j in range(1, n + 1))
        for gamma_th in (0.1, 1.0, 10.0):
            s = p.a**p.alpha * gamma_th / (p.p_x0 * p.eta)
            ref = math.exp(-math.pi * p.lambda_g * (s * p.p_x * p.eta) ** delta * delta * beta_sum)
            got = laplace.laplace_inter(s, FixedSize(n), p)
            worst = max(worst, abs(got - ref) / ref)
    return OracleCheck("fixed-size cross-cluster bound vs Beta sum", worst, 1e-10)


def _check_laplace() -> OracleCheck:
    p = _fig2_link()
    worst = 0.0
    gamma_th = 0.1
    fixed, poisson = FixedSize(6), PoissonSize(6.0)
    for r in (50.0, 150.0, 350.0, 500.0):
        s = r**p.alpha * gamma_th / (p.p_x0 * p.eta)
        beta = s * p.p_x * p.eta / p.a**p.alpha
        u = min(r, p.a) / p.a
        pairs = [
            (laplace.laplace_intra(beta, u, p.alpha, Scenario(Unordered(), fixed)),
             intra_fixed_integral(s, 6, p)),
            (laplace.laplace_intra(beta, u, p.alpha, Scenario(Unordered(), poisson)),
             intra_random_integral(s, 6.0, p)),
            (laplace.laplace_intra(beta, u, p.alpha, Scenario(Ordered(), poisson)),
             intra_ordered_random_integral(s, 6.0, min(r, p.a), p)),
        ]
        if r < p.a:
            pairs.append(
                (
                    laplace.laplace_intra(beta, u, p.alpha, Scenario(Ordered(3), fixed)),
                    intra_ordered_fixed_integral(s, 3, 6, r, p),
                )
            )
        for got, ref in pairs:
            worst = max(worst, abs(got - ref) / abs(ref))
    # whole-plane PGFLs: the coexisting PPP, and single-node clusters, whose
    # displaced parents are again a PPP so the fixed-size bound is exact
    for r in (150.0, 500.0):
        s = r**p.alpha * gamma_th / (p.p_x0 * p.eta)
        pairs = [
            (laplace.laplace_coexist(s, p),
             inter_pgfl_integral(s * p.p_z * p.eta, p.lambda_co, 0.0, p.alpha, FixedSize(1))),
            (laplace.laplace_inter(s, FixedSize(1), p),
             inter_pgfl_integral(s * p.p_x * p.eta, p.lambda_g, p.a, p.alpha, FixedSize(1))),
        ]
        # the exact exponent of the Monte Carlo factors, over a 20 km window:
        # the annulus (2 a, W] beyond a transform's near disc, and coverage's
        # whole window (0, W], where the fields reach the receiver
        window = 20000.0
        for size in (fixed, poisson):
            for inner in (2.0 * p.a, 0.0):
                lam = field.annulus_exponent(s * (p.p_x * p.eta), p.lambda_g, p.a, size, inner,
                                             window, p.alpha)
                pairs.append((
                    math.exp(-lam),
                    inter_pgfl_integral(s * p.p_x * p.eta, p.lambda_g, p.a, p.alpha, size,
                                        inner, window),
                ))
        pairs.append((
            math.exp(-field.annulus_exponent(s * (p.p_z * p.eta), p.lambda_co, 0.0, FixedSize(1),
                                             0.0, window, p.alpha)),
            inter_pgfl_integral(s * p.p_z * p.eta, p.lambda_co, 0.0, p.alpha, FixedSize(1),
                                0.0, window),
        ))
        for got, ref in pairs:
            worst = max(worst, abs(got - ref) / abs(ref))
    return OracleCheck("interference transforms vs integrals", worst, 1e-9)


def run_checks(which: str = "all") -> list[OracleCheck]:
    """Run the requested oracle family; returns one check per family."""
    table = {
        "2f1": _check_hyp2f1,
        "beta": _check_beta,
        "laplace": _check_laplace,
    }
    if which == "all":
        return [fn() for fn in table.values()]
    if which not in table:
        raise ValueError(f"unknown oracle family {which!r}; choose 2f1, beta, laplace or all")
    return [table[which]()]
