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

from .coverage import Method
from .metrics import db_to_linear, noise_power_mw
from .params import (
    FixedSize,
    LinkParams,
    NetworkConfig,
    Ordered,
    PoissonSize,
    Scenario,
    Unordered,
    free_space_eta,
    require_int,
)
from .special import make_quadrature

__all__ = [
    "ConfigError",
    "PRESETS",
    "SweepPoint",
    "SweepSpec",
    "build_sweep",
    "parse_config_text",
    "read_config",
]

BASE_DENSITY = 0.1 / (500.0**2 * math.pi)  # reference receiver density, m^-2

_AXES = (
    "gamma_th_db",
    "cluster_size",
    "cluster_radius_m",
    "receiver_density_per_m2",
    "tx_power_dbm",
)

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
class SweepPoint:
    """One grid point of one variant, resolved into model objects."""

    axis_value: float
    network: NetworkConfig
    scenarios: tuple[Scenario, ...]
    gamma: float  # linear SINR threshold


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis grid crossed with scenarios, variants and methods.

    ``network``, ``gamma`` and ``scenarios`` resolve the settings alone;
    ``variant_points`` holds each variant's label and resolved grid points.
    """

    preset: str
    axis: str
    grid: tuple[float, ...]
    methods: tuple[str, ...]
    network: NetworkConfig
    gamma: float
    scenarios: tuple[Scenario, ...]
    variant_points: tuple[tuple[str, tuple[SweepPoint, ...]], ...]
    seed: int
    trials: int
    quad_t: int
    quad_m: int
    chunk_trials: int
    settings: dict = field(repr=False, default_factory=dict)

    def quadrature(self):
        return make_quadrature(self.quad_t, self.quad_m)


def parse_config_text(text: str) -> dict:
    """Parse a flat key = value document.

    One assignment per line, each key at most once; '#' starts a comment;
    values are numbers, bare words, or comma-separated number lists.
    """
    out: dict = {}
    key_lines: dict[str, int] = {}
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
        if key in key_lines:
            raise ConfigError(f"line {lineno}: {key} is already set on line {key_lines[key]}")
        key_lines[key] = lineno
        if "," in value:
            out[key] = tuple(_parse_scalar(v.strip()) for v in value.split(","))
        else:
            out[key] = _parse_scalar(value)
    return out


def _parse_scalar(token: str):
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


def _number(settings: dict, key: str, *, above: float = -math.inf,
            at_least: float = -math.inf, allow_inf: bool = False) -> float:
    """``settings[key]`` as a float, else a ConfigError naming ``key``.

    A bool is not a number.  The value must be finite (+inf too where
    ``allow_inf``), greater than ``above`` and at least ``at_least``.
    """
    value = settings[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if above < number and at_least <= number and (allow_inf or number < math.inf):
            return number
    bound = f" > {above:g}" if above > -math.inf else (
        f" >= {at_least:g}" if at_least > -math.inf else "")
    kind = f"a number{bound} or inf" if allow_inf else f"a finite number{bound}"
    raise ConfigError(f"{key}: must be {kind}, got {value!r}")


def _linear(settings: dict, key: str, unit: str, what: str) -> float:
    """A dB (or dBm) setting as a linear value, which must be positive and finite."""
    db = _number(settings, key)
    try:
        linear = db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ConfigError(f"{key}: {db!r} {unit} is not a positive finite {what}")
    return linear


def _require_count(settings: dict, key: str, minimum: int) -> None:
    """An integer setting under the simulator's rule (no bools, no floats)."""
    try:
        require_int(key, settings[key], minimum)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def build_link(settings: dict) -> LinkParams:
    """LinkParams from resolved settings; raises ConfigError on violations.

    This is the one place where dBm powers, eta and the noise power are
    resolved to linear values; the sidecar metadata reads them off the result.
    """
    tx_mw = _linear(settings, "tx_power_dbm", "dBm", "power in mW")
    co_mw = tx_mw
    if settings["coexist_power_dbm"] is not None:
        co_mw = _linear(settings, "coexist_power_dbm", "dBm", "power in mW")
    # checked even where unread: the sidecar echoes both
    carrier_hz = _number(settings, "carrier_frequency_hz", above=0)
    bandwidth_hz = _number(settings, "bandwidth_hz", above=0)
    if settings["eta"] is None:
        eta = free_space_eta(carrier_hz)
    else:
        eta = _number(settings, "eta", above=0)
    mode = settings["noise_mode"]
    if mode not in ("thermal", "zero"):
        raise ConfigError(f"noise_mode: must be thermal or zero, got {mode!r}")
    sigma2 = 0.0 if mode == "zero" else noise_power_mw(bandwidth_hz)
    alpha = _number(settings, "path_loss_exponent", above=0)
    try:
        return LinkParams(
            p_x0=tx_mw,
            p_x=tx_mw,
            p_z=co_mw,
            eta=eta,
            alpha=alpha,
            a=_number(settings, "cluster_radius_m", above=0),
            lambda_g=_number(settings, "receiver_density_per_m2", at_least=0),
            lambda_co=_number(settings, "coexist_density_per_m2", at_least=0),
            sigma2=sigma2,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_scenarios(settings: dict) -> tuple[Scenario, ...]:
    size_key = settings["size_model"]
    if size_key not in ("fixed", "poisson", "both"):
        raise ConfigError(f"size_model: must be fixed, poisson or both, got {size_key!r}")
    order_key = settings["ordering"]
    if order_key not in ("unordered", "ordered", "both"):
        raise ConfigError(f"ordering: must be unordered, ordered or both, got {order_key!r}")

    size = _number(settings, "cluster_size", at_least=1)
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
    if rank != "farthest" and not isinstance(rank, int):
        raise ConfigError(f"ordered_rank: must be 'farthest' or an integer, got {rank!r}")
    orderings = []
    if order_key in ("unordered", "both"):
        orderings.append(Unordered())
    # Ordered and Scenario hold the rank rules; the cluster sizes are valid
    # by now, so any ValueError they raise is about the rank.
    try:
        ordered = Ordered() if rank == "farthest" else Ordered(k=rank)
        if order_key in ("ordered", "both"):
            orderings.append(ordered)
        return tuple(
            Scenario(ordering=o, size_model=s)
            for o in orderings
            for s in sizes
        )
    except ValueError as exc:
        raise ConfigError(f"ordered_rank: {exc}") from None


def _resolve(settings: dict, axis_value: float) -> SweepPoint:
    # an infinite window is the whole plane
    window = _number(settings, "window_radius_m", above=0, allow_inf=True)
    network = NetworkConfig(link=build_link(settings), window_radius=window)
    gamma = _linear(settings, "gamma_th_db", "dB", "SINR threshold")
    return SweepPoint(axis_value, network, build_scenarios(settings), gamma)


def build_sweep(overrides: dict, preset: str | None = None) -> tuple[dict, SweepSpec]:
    """Resolve overrides over a preset; returns (settings, sweep spec).

    Settings merge as defaults < preset < overrides < variant < axis point;
    ``settings`` stops before the variant (the sidecar metadata echoes it).
    Every variant is resolved at every grid point here, so validating a
    config is resolving it, and schema errors precede any computation.
    """
    chosen = preset or overrides.get("preset", "custom")
    settings = _merge(chosen, overrides)

    axis = settings["axis"]
    if axis not in _AXES:
        raise ConfigError(f"axis: must be one of {', '.join(_AXES)}, got {axis!r}")
    grid = settings["axis_grid"]
    if not isinstance(grid, (tuple, list)):
        grid = (grid,)
    grid = tuple(_number({"axis_grid": v}, "axis_grid") for v in grid)
    if not grid:
        raise ConfigError("axis_grid: must contain at least one point")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(
            f"axis_grid: grid points must be sorted ascending without repeats, got {grid}"
        )

    methods = settings["methods"]
    if not isinstance(methods, (tuple, list)):
        methods = (methods,)
    methods = tuple(methods)
    if not methods:
        raise ConfigError("methods: at least one of exact/gc/mc is required")
    names = [m.value for m in Method]
    for method in methods:
        if method not in names:
            raise ConfigError(f"methods: must be among {', '.join(names)}, got {method!r}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"methods: each method may appear once, got {methods}")

    for key in ("trials", "quad_t", "quad_m", "chunk_trials"):
        _require_count(settings, key, 1)
    _require_count(settings, "seed", 0)

    base = _resolve(settings, settings[axis])
    return settings, SweepSpec(
        preset=chosen,
        axis=axis,
        grid=grid,
        methods=methods,
        network=base.network,
        gamma=base.gamma,
        scenarios=base.scenarios,
        variant_points=tuple(
            (label, tuple(_resolve({**settings, **changes, axis: v}, v) for v in grid))
            for label, changes in settings["variants"]
        ),
        seed=settings["seed"],
        trials=settings["trials"],
        quad_t=settings["quad_t"],
        quad_m=settings["quad_m"],
        chunk_trials=settings["chunk_trials"],
        settings=settings,
    )


def read_config(path) -> dict:
    """The overrides a flat key = value config file sets."""
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
