"""Configuration documents, presets and sweep specifications.

Configs are flat key = value documents with units spelled out in the key
names (tx_power_dbm, cluster_radius_m, ...), because silent unit mix-ups
are the dominant failure mode in this domain.  dB/dBm fields are converted
to linear once, here, and echoed alongside the linear values in output
metadata.

The fig2..fig7 presets pin every parameter of the reference evaluation
setup (868 MHz carrier, 125 kHz bandwidth, alpha 3.5, 20 km window,
thermal noise from the bandwidth) so reproducing a figure is one flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .coverage import Interference, Ordered, Scenario, Unordered
from .metrics import dbm_to_mw, noise_power_mw
from .params import FixedSize, LinkParams, NetworkConfig, PoissonSize, free_space_eta
from .special import make_quadrature

__all__ = [
    "ConfigError",
    "PRESETS",
    "SweepSpec",
    "build_sweep",
    "load_config",
    "parse_config_text",
]

BASE_DENSITY = 0.1 / (500.0**2 * math.pi)  # reference receiver density, m^-2

_AXES = (
    "gamma_th_db",
    "cluster_size",
    "cluster_radius_m",
    "receiver_density_per_m2",
    "tx_power_dbm",
)
_METHODS = ("exact", "gc", "mc")

_DEFAULTS: dict = {
    "preset": "custom",
    "tx_power_dbm": 14.0,
    "coexist_power_dbm": None,  # None ties it to tx_power_dbm
    "carrier_frequency_hz": 868e6,
    "eta": None,  # None derives the free-space value from the carrier
    "path_loss_exponent": 3.5,
    "bandwidth_hz": 125e3,
    "noise_mode": "thermal",  # thermal | zero
    "receiver_density_per_m2": BASE_DENSITY,
    "coexist_density_per_m2": BASE_DENSITY,
    "cluster_radius_m": 500.0,
    "window_radius_m": 20000.0,
    "size_model": "both",  # fixed | poisson | both
    "cluster_size": 6.0,
    "ordering": "both",  # unordered | ordered | both
    "ordered_rank": "farthest",  # farthest | positive integer
    "interference": "full",  # full | intra-limited
    "gamma_th_db": -10.0,
    "axis": "gamma_th_db",
    "axis_grid": tuple(float(db) for db in range(-20, 11, 2)),
    "methods": ("gc", "mc"),
    "trials": 100_000,
    "seed": 1,
    "quad_t": 50,
    "quad_m": 50,
    "chunk_trials": 512,
    "variants": (("base", {}),),
}

PRESETS: dict[str, dict] = {
    "fig2": {
        "methods": ("exact", "gc"),
    },
    "fig3": {
        "axis": "cluster_size",
        "axis_grid": tuple(float(n) for n in range(1, 11)),
        "cluster_radius_m": 100.0,
        "variants": (
            ("a100m", {}),
            ("a1000m", {"cluster_radius_m": 1000.0}),
        ),
    },
    "fig4": {
        "axis": "receiver_density_per_m2",
        "axis_grid": tuple(BASE_DENSITY * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)),
        "ordering": "ordered",
        "variants": (
            ("co-zero", {"coexist_density_per_m2": 0.0}),
            ("co-base", {}),
            ("co-10x", {"coexist_density_per_m2": 10.0 * BASE_DENSITY}),
        ),
    },
    "fig5": {
        "axis": "cluster_size",
        "axis_grid": tuple(float(n) for n in range(1, 31)),
        "methods": ("gc",),
        "variants": (
            ("a200m", {"cluster_radius_m": 200.0}),
            ("a500m", {"cluster_radius_m": 500.0}),
        ),
    },
    "fig6": {
        "axis": "cluster_radius_m",
        "axis_grid": (200.0, 400.0, 600.0, 800.0, 1000.0),
        "ordering": "ordered",
        "size_model": "fixed",
        "methods": ("gc",),
        "variants": (
            ("px0dbm", {"tx_power_dbm": 0.0}),
            ("px7dbm", {"tx_power_dbm": 7.0}),
            ("px14dbm", {"tx_power_dbm": 14.0}),
        ),
    },
    "fig7": {
        "axis": "cluster_size",
        "axis_grid": tuple(float(n) for n in range(1, 11)),
        "cluster_radius_m": 1000.0,
        "tx_power_dbm": 7.0,
        "ordering": "ordered",
        "variants": (
            ("noisy", {}),
            ("noiseless", {"noise_mode": "zero"}),
        ),
    },
}


class ConfigError(ValueError):
    """A configuration document failed validation."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis grid crossed with scenarios, variants and methods."""

    preset: str
    axis: str
    grid: tuple[float, ...]
    methods: tuple[str, ...]
    scenarios: tuple[Scenario, ...]
    variants: tuple[tuple[str, dict], ...]
    seed: int
    trials: int
    quad_t: int
    quad_m: int
    chunk_trials: int
    settings: dict = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("axis_grid: must contain at least one point")
        if not all(math.isfinite(v) for v in self.grid):
            raise ConfigError(f"axis_grid: grid points must be finite, got {self.grid}")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError(
                f"axis_grid: grid points must be sorted ascending without repeats, got {self.grid}"
            )
        if not self.methods:
            raise ConfigError("methods: at least one of exact/gc/mc is required")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods: each method may appear once, got {self.methods}")

    def quadrature(self):
        return make_quadrature(self.quad_t, self.quad_m)


def parse_config_text(text: str) -> dict:
    """Parse a flat key = value document.

    One assignment per line; '#' starts a comment; values are numbers,
    bare words, or comma-separated number lists.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if "," in value:
            out[key] = tuple(_parse_scalar(v.strip(), key) for v in value.split(","))
        else:
            out[key] = _parse_scalar(value, key)
    return out


def _parse_scalar(token: str, key: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _merge(preset: str, overrides: dict) -> dict:
    if preset != "custom" and preset not in PRESETS:
        raise ConfigError(
            f"preset: unknown preset {preset!r}; choose one of "
            f"{', '.join(sorted(PRESETS))} or custom"
        )
    settings = dict(_DEFAULTS)
    settings.update(PRESETS.get(preset, {}))
    for key, value in overrides.items():
        if key == "preset":
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"{key}: unknown configuration key")
        if key == "variants":
            raise ConfigError("variants: only presets may define variant lists")
        settings[key] = value
    settings["preset"] = preset
    return settings


def _require_finite(settings: dict, key: str) -> float:
    value = settings[key]
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {value!r}")
    return float(value)


def _require_positive(settings: dict, key: str) -> float:
    value = settings[key]
    if not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ConfigError(f"{key}: must be a positive finite number, got {value!r}")
    return float(value)


def _require_nonnegative(settings: dict, key: str) -> float:
    value = settings[key]
    if not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise ConfigError(f"{key}: must be a nonnegative finite number, got {value!r}")
    return float(value)


def build_link(settings: dict) -> LinkParams:
    """LinkParams from resolved settings; raises ConfigError on violations.

    This is the one place where dBm powers, eta and the noise power are
    resolved to linear values; the sidecar metadata reads them off the result.
    """
    tx_mw = dbm_to_mw(_require_finite(settings, "tx_power_dbm"))
    co_mw = tx_mw
    if settings["coexist_power_dbm"] is not None:
        co_mw = dbm_to_mw(_require_finite(settings, "coexist_power_dbm"))
    if settings["eta"] is None:
        eta = free_space_eta(_require_positive(settings, "carrier_frequency_hz"))
    else:
        eta = _require_positive(settings, "eta")
    mode = settings["noise_mode"]
    if mode not in ("thermal", "zero"):
        raise ConfigError(f"noise_mode: must be thermal or zero, got {mode!r}")
    sigma2 = 0.0 if mode == "zero" else noise_power_mw(_require_positive(settings, "bandwidth_hz"))
    alpha = _require_positive(settings, "path_loss_exponent")
    try:
        return LinkParams(
            p_x0=tx_mw,
            p_x=tx_mw,
            p_z=co_mw,
            eta=eta,
            alpha=alpha,
            a=_require_positive(settings, "cluster_radius_m"),
            lambda_g=_require_nonnegative(settings, "receiver_density_per_m2"),
            lambda_co=_require_nonnegative(settings, "coexist_density_per_m2"),
            sigma2=sigma2,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_network(settings: dict) -> NetworkConfig:
    return NetworkConfig(
        link=build_link(settings),
        window_radius=_require_positive(settings, "window_radius_m"),
    )


def build_scenarios(settings: dict) -> tuple[Scenario, ...]:
    size_key = settings["size_model"]
    if size_key not in ("fixed", "poisson", "both"):
        raise ConfigError(f"size_model: must be fixed, poisson or both, got {size_key!r}")
    order_key = settings["ordering"]
    if order_key not in ("unordered", "ordered", "both"):
        raise ConfigError(f"ordering: must be unordered, ordered or both, got {order_key!r}")
    interference = {
        "full": Interference.FULL,
        "intra-limited": Interference.INTRA_LIMITED,
    }.get(settings["interference"])
    if interference is None:
        raise ConfigError(
            f"interference: must be full or intra-limited, got {settings['interference']!r}"
        )

    size = settings["cluster_size"]
    if not isinstance(size, (int, float)) or not 1 <= size < math.inf:
        raise ConfigError(f"cluster_size: must be a finite number >= 1, got {size!r}")
    size = float(size)
    sizes = []
    if size_key in ("fixed", "both"):
        if size != int(size):
            raise ConfigError(
                f"cluster_size: the fixed-size model needs an integer, got {size}"
            )
        sizes.append(FixedSize(int(size)))
    if size_key in ("poisson", "both"):
        sizes.append(PoissonSize(size))

    rank = settings["ordered_rank"]
    if rank == "farthest":
        ordered = Ordered()
    elif isinstance(rank, int) and rank >= 1:
        ordered = Ordered(k=rank)
    else:
        raise ConfigError(
            f"ordered_rank: must be 'farthest' or a positive integer, got {rank!r}"
        )
    if ordered.k is not None and order_key != "unordered" and size_key != "fixed":
        raise ConfigError(
            f"ordered_rank: rank {rank} needs size_model = fixed; with Poisson "
            "sizes only 'farthest' is supported"
        )
    if ordered.k is not None and order_key != "unordered" and ordered.k > size:
        raise ConfigError(
            f"ordered_rank: rank {rank} exceeds the fixed cluster_size {size:g}"
        )
    orderings = []
    if order_key in ("unordered", "both"):
        orderings.append(Unordered())
    if order_key in ("ordered", "both"):
        orderings.append(ordered)

    return tuple(
        Scenario(ordering=o, size_model=s, interference=interference)
        for o in orderings
        for s in sizes
    )


def build_sweep(overrides: dict, preset: str | None = None) -> tuple[dict, SweepSpec]:
    """Resolve overrides over a preset; returns (settings, sweep spec).

    ``settings`` is the fully resolved flat document (what the sidecar
    metadata echoes); the scenarios inside the SweepSpec are built per
    variant at run time because variants may change scenario inputs.
    """
    chosen = preset or overrides.get("preset", "custom")
    settings = _merge(chosen, overrides)

    axis = settings["axis"]
    if axis not in _AXES:
        raise ConfigError(f"axis: must be one of {', '.join(_AXES)}, got {axis!r}")
    grid = settings["axis_grid"]
    if not isinstance(grid, (tuple, list)):
        grid = (grid,)
    if not all(isinstance(v, (int, float)) for v in grid):
        raise ConfigError(f"axis_grid: grid points must be numbers, got {grid!r}")
    grid = tuple(float(v) for v in grid)
    _require_finite(settings, "gamma_th_db")

    methods = settings["methods"]
    if not isinstance(methods, (tuple, list)):
        methods = (methods,)
    methods = tuple(methods)
    for method in methods:
        if method not in _METHODS:
            raise ConfigError(f"methods: must be among {', '.join(_METHODS)}, got {method!r}")

    trials = settings["trials"]
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError(f"trials: must be a positive integer, got {trials!r}")
    for key in ("quad_t", "quad_m", "chunk_trials"):
        if not isinstance(settings[key], int) or settings[key] < 1:
            raise ConfigError(f"{key}: must be a positive integer, got {settings[key]!r}")
    seed = settings["seed"]
    if not isinstance(seed, int):
        raise ConfigError(f"seed: must be an integer, got {seed!r}")

    # Validate the base settings, the grid (in SweepSpec), and every variant
    # at every grid point eagerly, so schema errors precede any computation.
    build_network(settings)
    spec = SweepSpec(
        preset=chosen,
        axis=axis,
        grid=grid,
        methods=methods,
        scenarios=build_scenarios(settings),
        variants=tuple((label, dict(changes)) for label, changes in settings["variants"]),
        seed=seed,
        trials=trials,
        quad_t=settings["quad_t"],
        quad_m=settings["quad_m"],
        chunk_trials=settings["chunk_trials"],
        settings=settings,
    )
    for _, changes in spec.variants:
        merged = {**settings, **changes}
        for point in [merged] + [{**merged, axis: value} for value in grid]:
            build_network(point)
            build_scenarios(point)
    return settings, spec


def load_config(path, preset: str | None = None) -> tuple[dict, SweepSpec]:
    """Parse and validate a config file (optionally over a preset)."""
    with open(path, encoding="utf-8") as fh:
        overrides = parse_config_text(fh.read())
    return build_sweep(overrides, preset=preset)
