"""Command-line interface: sweeps, config validation and oracle checks.

``sweep`` evaluates coverage/ASE/EE along a parameter axis for every
scenario, variant and method of a preset (or custom config) and writes one
CSV row per combination plus a sidecar JSON with the fully resolved
configuration.  Output is byte-identical across repeated runs with the
same spec, regardless of the worker count (CLUSTERCOV_WORKERS).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import __version__, mc
from .config import (
    ConfigError,
    PRESETS,
    SweepPoint,
    SweepSpec,
    build_sweep,
    read_config,
)
# Unused here (build_sweep resolves every point); perfbench/spans.py wraps them.
from .config import build_link, build_scenarios  # noqa: F401
from .coverage import BoundSide, CoverageResult, Method, Scenario, coverage
from .metrics import MetricResult, ase_ee, rate_from_threshold
from .params import FixedSize

__all__ = ["main", "run_sweep"]

_CSV_HEADER = (
    "axis_value",
    "scenario",
    "method",
    "bound_side",
    "coverage",
    "ase",
    "ee",
    "stderr",
    "seed",
    "quad_t",
    "quad_m",
)

_ANALYTIC_METHODS = {
    "exact": Method.EXACT_INTEGRAL,
    "gc": Method.GAUSS_CHEBYSHEV,
}


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _scenario_nodes(scen: Scenario) -> float:
    return float(scen.size_model.n) if isinstance(scen.size_model, FixedSize) else scen.size_model.mean


def _scenario_label(scen: Scenario, variant: str) -> str:
    return scen.tag() if variant == "base" else f"{scen.tag()}@{variant}"


def _curve_label(scen: Scenario, variant: str, axis: str) -> str:
    """Summary-curve name; drops the size digits when the axis sweeps them."""
    label = _scenario_label(scen, variant)
    if axis == "cluster_size":
        if isinstance(scen.size_model, FixedSize):
            label = label.replace(f"fixed-n{scen.size_model.n}", "fixed")
        else:
            label = label.replace(f"poisson-nbar{scen.size_model.mean:g}", "poisson")
    return label


def _curve(
    spec: SweepSpec, method: str, points: list[tuple[SweepPoint, Scenario]], quad
) -> list[CoverageResult]:
    """Coverage of one curve at every grid point; ``points`` hold (point, scenario).

    Monte Carlo on the threshold axis is one simulation over the whole grid,
    so the thresholds share realizations.  Every other curve makes one call
    per point.  Chunk streams depend only on the seed and the chunk index,
    so both routes give the same estimate at the same point.
    """
    if method != "mc":
        return [
            coverage(
                point.gamma, scen, point.network.link,
                method=_ANALYTIC_METHODS[method], quad=quad,
            )
            for point, scen in points
        ]
    groups = [points] if spec.axis == "gamma_th_db" else [[p] for p in points]
    results = []
    for group in groups:
        point, scen = group[0]
        gammas = tuple(p.gamma for p, _ in group)
        sim = mc.SimSpec(
            config=point.network,
            scenario=scen,
            trials=spec.trials,
            seed=spec.seed,
            gamma_grid=gammas,
            chunk_trials=spec.chunk_trials,
        )
        results.extend(
            CoverageResult(est.mean, Method.MONTE_CARLO, BoundSide.ESTIMATE, gamma, est.stderr)
            for gamma, est in zip(gammas, mc.estimate_coverage(sim))
        )
    return results


def _row(spec: SweepSpec, axis_value: float, label: str, method: str, metric: MetricResult) -> tuple:
    cov = metric.coverage
    return (
        _fmt(axis_value),
        label,
        method,
        cov.bound_side.value,
        _fmt(cov.value),
        _fmt(metric.ase),
        _fmt(metric.ee),
        _fmt(cov.stderr),
        str(spec.seed),
        str(spec.quad_t),
        str(spec.quad_m),
    )


def run_sweep(spec: SweepSpec, out_path: str) -> dict:
    """Execute a sweep and write CSV plus sidecar metadata atomically.

    Returns a summary dict (largest cross-method coverage gaps and, for
    cluster-size sweeps, the ASE-maximising size per curve).
    """
    quad = spec.quadrature()
    rows: list[tuple] = []
    # summary accumulators keyed by curve = (variant, scenario index, method);
    # the CSV rows keep the accurate per-point scenario tag instead
    cov_map: dict[tuple, float] = {}
    ase_map: dict[tuple, list[tuple[float, float]]] = {}
    curve_names: dict[tuple, str] = {}

    for variant_label, points in spec.variant_points:
        for scen_idx, first_scen in enumerate(points[0].scenarios):
            curve_points = [(point, point.scenarios[scen_idx]) for point in points]
            for method in spec.methods:
                curve = (variant_label, scen_idx, method)
                curve_names[curve] = _curve_label(first_scen, variant_label, spec.axis)
                covs = _curve(spec, method, curve_points, quad)
                for (point, scen), cov in zip(curve_points, covs):
                    link = point.network.link
                    metric = ase_ee(cov, _scenario_nodes(scen), link.lambda_g, link.p_x)
                    label = _scenario_label(scen, variant_label)
                    rows.append(_row(spec, point.axis_value, label, method, metric))
                    cov_map[curve + (point.axis_value,)] = cov.value
                    ase_map.setdefault(curve, []).append((point.axis_value, metric.ase))

    summary = _summarise(spec, cov_map, ase_map, curve_names)
    _write_outputs(spec, out_path, rows, summary)
    return summary


def _summarise(spec: SweepSpec, cov_map: dict, ase_map: dict, curve_names: dict) -> dict:
    summary: dict = {"preset": spec.preset, "axis": spec.axis}
    # in sweep order, so a tie goes to the first curve whatever the hash seed
    families = dict.fromkeys((variant, idx) for variant, idx, _ in curve_names)
    gaps = {}
    for first, second in (("mc", "gc"), ("mc", "exact"), ("gc", "exact")):
        worst = None
        for variant, idx in families:
            for axis_value in spec.grid:
                a = cov_map.get((variant, idx, first, axis_value))
                b = cov_map.get((variant, idx, second, axis_value))
                if a is None or b is None:
                    continue
                gap = abs(a - b)
                if worst is None or gap > worst[0]:
                    worst = (gap, curve_names[(variant, idx, first)], axis_value)
        if worst is not None:
            gaps[f"{first}-vs-{second}"] = {
                "max_gap": worst[0],
                "scenario": worst[1],
                "axis_value": worst[2],
            }
    if gaps:
        summary["coverage_gaps"] = gaps
    if spec.axis == "cluster_size":
        optima = {}
        for curve, points in sorted(ase_map.items(), key=lambda kv: curve_names[kv[0]] + kv[0][2]):
            best = max(points, key=lambda item: item[1])
            optima[f"{curve_names[curve]}/{curve[2]}"] = {"n_star": best[0], "ase": best[1]}
        summary["ase_optimum"] = optima
    return summary


def _write_outputs(spec: SweepSpec, out_path: str, rows: list[tuple], summary: dict) -> None:
    meta_path = out_path + ".meta.json"
    tmp_csv = out_path + ".tmp"
    tmp_meta = meta_path + ".tmp"
    try:
        with open(tmp_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER)
            writer.writerows(rows)
        with open(tmp_meta, "w", encoding="utf-8") as fh:
            json.dump(_metadata(spec, summary), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp_csv, out_path)
        os.replace(tmp_meta, meta_path)
    except BaseException:
        for path in (tmp_csv, tmp_meta):
            if os.path.exists(path):
                os.remove(path)
        raise


def _metadata(spec: SweepSpec, summary: dict) -> dict:
    settings = dict(spec.settings)
    if settings["window_radius_m"] == math.inf:
        settings["window_radius_m"] = "inf"  # JSON has no infinity
    link, gamma = spec.network.link, spec.gamma
    resolved = {
        "eta": link.eta,
        "noise_mw": link.sigma2,
        "tx_power_mw": link.p_x,
        "coexist_power_mw": link.p_z,
        "gamma_th_linear": gamma,
        "rate_bits_per_hz": rate_from_threshold(gamma),
    }
    return {
        "package_version": __version__,
        "settings": settings,
        "resolved": resolved,
        "summary": summary,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    overrides = read_config(args.config) if args.config else {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.methods is not None:
        overrides["methods"] = tuple(m.strip() for m in args.methods.split(","))
    if args.quad_t is not None:
        overrides["quad_t"] = args.quad_t
    if args.quad_m is not None:
        overrides["quad_m"] = args.quad_m
    _, spec = build_sweep(overrides, preset=args.preset)
    summary = run_sweep(spec, args.out)
    print(f"wrote {args.out} ({spec.preset}, axis={spec.axis}, {len(spec.grid)} points)")
    for key, gap in summary.get("coverage_gaps", {}).items():
        print(
            f"max |{key}| coverage gap: {gap['max_gap']:.3e} "
            f"({gap['scenario']} at {spec.axis}={gap['axis_value']:g})"
        )
    for label, opt in summary.get("ase_optimum", {}).items():
        print(f"ASE optimum for {label}: n*={opt['n_star']:g} (ase={opt['ase']:.3e})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _, spec = build_sweep(read_config(args.config), preset=args.preset)
    print(f"config OK: preset={spec.preset} axis={spec.axis} points={len(spec.grid)}")
    print(f"scenarios: {', '.join(s.tag() for s in spec.scenarios)}")
    link = spec.network.link
    for key, value in (("eta", link.eta), ("noise_mw", link.sigma2), ("tx_power_mw", link.p_x)):
        print(f"{key} = {value!r}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracles import run_checks

    checks = run_checks(args.check)
    failed = False
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: worst rel. err {check.worst_error:.3e} "
              f"(tolerance {check.tolerance:.1e})")
        failed |= not check.passed
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercov",
        description="Clustered LPWA uplink coverage/ASE/EE sweeps and checks",
    )
    parser.add_argument("--version", action="version", version=f"clustercov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and write CSV")
    sweep.add_argument("--preset", choices=sorted(PRESETS) + ["custom"], default=None)
    sweep.add_argument("--config", help="flat key=value config file", default=None)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--methods", default=None, help="comma list from exact,gc,mc")
    sweep.add_argument("--quad-t", dest="quad_t", type=int, default=None)
    sweep.add_argument("--quad-m", dest="quad_m", type=int, default=None)
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", help="check a config file and print the resolution")
    validate.add_argument("--config", required=True)
    validate.add_argument("--preset", choices=sorted(PRESETS) + ["custom"], default=None)
    validate.set_defaults(func=_cmd_validate)

    oracle = sub.add_parser("oracle", help="run the independent numerical oracles")
    oracle.add_argument("--check", choices=("2f1", "beta", "laplace", "all"), default="all")
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
