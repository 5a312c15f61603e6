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

from . import config, laplace, mc, special
from .params import FixedSize, LinkParams, NetworkConfig, Ordered, PoissonSize, Scenario, Unordered

__all__ = [
    "OracleCheck",
    "hyp_integral",
    "beta_integral",
    "intra_fixed_integral",
    "intra_random_integral",
    "intra_ordered_fixed_integral",
    "intra_ordered_random_integral",
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
    disc mean of load / (d**alpha + load), d the node's distance to the
    origin; for x < a the disc covers the origin.  a = 0 is a plain PPP.
    """
    if load == 0.0 or density == 0.0 or r_lo >= r_hi:
        return 1.0

    def ring(x: float, rho: float) -> float:
        # mean over the angle of load / (d**alpha + load), d**2 by the law of
        # cosines in half-angle form
        value, _ = integrate.quad(
            lambda phi: load / (
                ((x - rho) ** 2 + 4.0 * x * rho * math.cos(0.5 * phi) ** 2) ** (0.5 * alpha) + load
            ),
            0.0, math.pi, epsabs=1e-15, epsrel=1e-12, limit=200,
        )
        return value / math.pi

    def tail(x: float) -> float:
        if a == 0.0:
            return load / (x**alpha + load)
        value, _ = integrate.quad(
            lambda rho: ring(x, rho) * 2.0 * rho / a**2, 0.0, a,
            points=[x] if 0.0 < x < a else None, epsabs=1e-15, epsrel=1e-12, limit=200,
        )
        return value

    def integrand(x: float) -> float:
        q = tail(x)
        if isinstance(size, FixedSize):
            return -math.expm1(size.n * math.log1p(-q)) * x
        return -math.expm1(-size.mean * q) * x

    # panels end at the disc rim crossing the origin and at the radius where
    # a node's load term reaches 1
    breaks = sorted({r_lo, r_hi} | {v for v in (a, load ** (1.0 / alpha)) if r_lo < v < r_hi})
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
        # the Monte Carlo far factor over the annulus (R0, W]
        for size in (fixed, poisson):
            spec = mc.SimSpec(NetworkConfig(p, 20000.0), Scenario(Unordered(), size), 1, 0)
            inner = mc._near_radius(spec.config)
            pairs.append((
                math.exp(-mc._far_exponent(spec, mc.InterferenceField.INTER, s)),
                inter_pgfl_integral(s * p.p_x * p.eta, p.lambda_g, p.a, p.alpha, size,
                                    inner, 20000.0),
            ))
        for got, ref in pairs:
            worst = max(worst, abs(got - ref) / abs(ref))
    return OracleCheck("interference transforms vs integrals", worst, 1e-6)


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
