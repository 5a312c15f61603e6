"""Coverage, ASE and EE analysis of clustered LPWA uplinks.

Receivers form a Poisson point process; their served nodes cluster
uniformly within a disc around each receiver; an independent Poisson field
models coexisting transmitters on the same channel.  The package provides
closed-form coverage/ASE/EE expressions (exact integrals and
Gauss-Chebyshev approximations) for fixed and Poisson cluster sizes, with
the typical node either uniformly chosen or distance-ranked, plus a Monte
Carlo simulator that cross-validates every expression.
"""

from .coverage import (
    BoundSide,
    CoverageResult,
    Method,
    Ordered,
    Scenario,
    Unordered,
    coverage,
)
from .laplace import laplace_coexist, laplace_inter, laplace_intra
from .mc import (
    InterferenceField,
    McEstimate,
    SimSpec,
    estimate_coverage,
    estimate_laplace,
)
from .metrics import (
    MetricResult,
    ase_ee,
    db_to_linear,
    dbm_to_mw,
    linear_to_db,
    mw_to_dbm,
    noise_power_mw,
    rate_from_threshold,
)
from .params import (
    FixedSize,
    LinkParams,
    NetworkConfig,
    PoissonSize,
    free_space_eta,
)
from .special import QuadratureSpec, hyp2f1_1_b, make_quadrature

__version__ = "0.1.0"

# Kept because perfbench/run.py reads it.
KERNEL_BACKEND = "python"
