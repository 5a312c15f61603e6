"""Area spectral efficiency, energy efficiency and unit helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coverage import CoverageResult

__all__ = [
    "MetricResult",
    "ase_ee",
    "db_to_linear",
    "dbm_to_mw",
    "linear_to_db",
    "mw_to_dbm",
    "noise_power_mw",
    "rate_from_threshold",
]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError(f"cannot express nonpositive value {value} in dB")
    return 10.0 * math.log10(value)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    if mw <= 0.0:
        raise ValueError(f"cannot express nonpositive power {mw} mW in dBm")
    return 10.0 * math.log10(mw)


def noise_power_mw(bandwidth_hz: float) -> float:
    """Thermal noise floor for the given bandwidth, in linear mW.

    -174 dBm/Hz plus 10 log10(BW).
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return dbm_to_mw(-174.0 + 10.0 * math.log10(bandwidth_hz))


def rate_from_threshold(gamma_th: float) -> float:
    """Per-link rate log2(1 + gamma_th) in bits/s/Hz (gamma_th linear)."""
    if gamma_th <= -1.0:
        raise ValueError(f"threshold must exceed -1 in linear units, got {gamma_th}")
    return math.log2(1.0 + gamma_th)


@dataclass(frozen=True)
class MetricResult:
    """ASE and EE of one coverage result, which is kept with them.

    The coverage result is kept so the bound direction survives: an ASE
    built on an upper-bound coverage is itself an upper bound.  The stderr
    fields are None unless the coverage is a Monte Carlo estimate.
    """

    coverage: CoverageResult
    rate: float
    ase: float
    ee: float
    ase_stderr: float | None
    ee_stderr: float | None


def ase_ee(cov: CoverageResult, n_nodes: float, lambda_g: float, p_x: float) -> MetricResult:
    """ASE = n * lambda_g * rate * coverage and EE = rate * coverage / p_x.

    ASE is in bits/s/Hz per m^2 and EE in bits/s/Hz per mW of transmit
    power; the rate log2(1 + gamma_th) comes from ``cov.gamma_th``.
    ``n_nodes`` is the per-cluster count (or mean, for the Poisson model).
    The node density cancels in EE, so it depends on per-link quantities only.
    """
    if n_nodes < 0.0 or lambda_g < 0.0:
        raise ValueError("node count and receiver density must be nonnegative")
    if p_x <= 0.0:
        raise ValueError(f"transmit power must be positive, got {p_x}")
    rate = rate_from_threshold(cov.gamma_th)
    ase_scale = n_nodes * lambda_g * rate
    stderr = cov.stderr
    return MetricResult(
        coverage=cov,
        rate=rate,
        ase=ase_scale * cov.value,
        ee=rate * cov.value / p_x,
        ase_stderr=None if stderr is None else ase_scale * stderr,
        ee_stderr=None if stderr is None else rate * stderr / p_x,
    )
