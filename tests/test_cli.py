import csv
import json
import os
import subprocess
import sys

import pytest

import clustercov
from clustercov.cli import main, run_sweep
from clustercov.coverage import Method
from clustercov.config import (
    BASE_DENSITY,
    ConfigError,
    PRESETS,
    build_sweep,
    parse_config_text,
    read_config,
)

TINY_CONFIG = """
# three-point smoke sweep
axis = gamma_th_db
axis_grid = -10, -5, 0
methods = gc, mc
trials = 1500
seed = 5
size_model = fixed
ordering = unordered
cluster_size = 6
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfigParsing:
    def test_flat_document(self):
        parsed = parse_config_text("a = 1\nb = 2.5  # trailing comment\nc = x, 2\n\n")
        assert parsed == {"a": 1, "b": 2.5, "c": ("x", 2)}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not an assignment")

    def test_repeated_key(self):
        # the last line used to win silently
        with pytest.raises(ConfigError, match="line 3: trials is already set on line 1"):
            parse_config_text("trials = 1000\nseed = 3\ntrials = 5")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            build_sweep({"no_such_key": 1})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            build_sweep({}, preset="fig99")

    def test_path_loss_gate(self):
        with pytest.raises(ConfigError, match="alpha"):
            build_sweep({"path_loss_exponent": 2.0})

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            build_sweep({"axis": "bananas"})

    def test_unsorted_grid(self):
        with pytest.raises(ConfigError, match="sorted"):
            build_sweep({"axis_grid": (3.0, 1.0)})

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="at least one point"):
            build_sweep({"axis_grid": ()})

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="methods"):
            build_sweep({"methods": ("gc", "magic")})

    def test_fixed_size_needs_integer(self):
        with pytest.raises(ConfigError, match="cluster_size"):
            build_sweep({"size_model": "fixed", "cluster_size": 5.5})

    def test_rank_with_poisson_rejected(self):
        # the Poisson in-cluster transform holds only for the farthest node
        for size_model in ("poisson", "both"):
            with pytest.raises(ConfigError, match="ordered_rank"):
                build_sweep(parse_config_text(f"ordered_rank = 1\nsize_model = {size_model}"))
        _, spec = build_sweep(parse_config_text("ordered_rank = 1\nsize_model = fixed"))
        assert spec.scenarios

    def test_rank_beyond_fixed_size_rejected(self):
        # Monte Carlo used to clip such a rank to the farthest node silently
        with pytest.raises(ConfigError, match="ordered_rank"):
            build_sweep(parse_config_text("ordered_rank = 7\nsize_model = fixed\ncluster_size = 6"))
        _, spec = build_sweep(
            parse_config_text("ordered_rank = 6\nsize_model = fixed\ncluster_size = 6")
        )
        assert spec.scenarios
        # every point of a cluster-size sweep is checked, not only the base
        with pytest.raises(ConfigError, match="ordered_rank"):
            build_sweep(parse_config_text(
                "axis = cluster_size\naxis_grid = 1, 2, 3\nordered_rank = 3\nsize_model = fixed"
            ))

    @pytest.mark.parametrize(
        "value, key",
        [
            (value, key)
            for key in (
                "cluster_radius_m", "window_radius_m", "receiver_density_per_m2",
                "cluster_size", "gamma_th_db", "tx_power_dbm", "coexist_power_dbm", "eta",
            )
            for value in ("nan", "inf", "-inf")
            # an infinite window is the whole plane (test_infinite_window_is_whole_plane)
            if (value, key) != ("inf", "window_radius_m")
        ],
    )
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_sweep(parse_config_text(f"{key} = {value}"))

    def test_infinite_window_is_whole_plane(self, tmp_path):
        _, spec = build_sweep(parse_config_text(
            "window_radius_m = inf\nmethods = mc\ntrials = 200\naxis_grid = -10"
        ))
        out = tmp_path / "whole.csv"
        run_sweep(spec, str(out))
        # JSON has no infinity: the sidecar spells the window as "inf"
        meta = json.loads((tmp_path / "whole.csv.meta.json").read_text())
        assert meta["settings"]["window_radius_m"] == "inf"

    @pytest.mark.parametrize(
        "key",
        ["eta", "tx_power_dbm", "coexist_power_dbm", "cluster_size", "gamma_th_db", "axis_grid"],
    )
    def test_non_numeric_rejected(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=key):
            build_sweep(parse_config_text(f"{key} = abc"))
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} = abc\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("tx_power_dbm = 4000", "tx_power_dbm"),
            ("coexist_power_dbm = 4000", "coexist_power_dbm"),
            ("tx_power_dbm = -4000", "tx_power_dbm"),
            ("axis = tx_power_dbm\naxis_grid = 14, 4000", "tx_power_dbm"),
            # thresholds: 10 ** 400 used to pass validate and fail the sweep
            # after every curve, and 10 ** -400 is a zero threshold
            ("gamma_th_db = 4000", "gamma_th_db"),
            ("axis_grid = -4000, 0", "gamma_th_db"),
            # an integer beyond the float range used to escape as an
            # OverflowError from float()
            pytest.param(f"cluster_radius_m = {10 ** 400}", "cluster_radius_m",
                         id="cluster_radius_m-int-1e400"),
            pytest.param(f"gamma_th_db = {10 ** 400}", "gamma_th_db", id="gamma_th_db-int-1e400"),
        ],
    )
    def test_power_beyond_float_range_rejected(self, text, key, tmp_path, capsys):
        # 10 ** 400 mW used to escape as an OverflowError traceback
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + "\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            # an explicit eta leaves the carrier unread; inf used to pass
            # validate and fail the sweep's sidecar with a JSON error
            ("eta = 1e-4\ncarrier_frequency_hz = inf", "carrier_frequency_hz"),
            # zero noise leaves the bandwidth unread; -5 reached the sidecar
            ("noise_mode = zero\nbandwidth_hz = -5", "bandwidth_hz"),
        ],
        ids=["carrier-with-eta", "bandwidth-without-noise"],
    )
    def test_unread_keys_still_checked(self, text, key, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + "\naxis_grid = -10, 0\nmethods = gc\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err
        out = tmp_path / "never.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("methods", ("gc", "gc")), ("axis_grid", (-10.0, -10.0))]
    )
    def test_repeated_entries_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_sweep({key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", True), ("trials", 0), ("trials", 1.5),
            ("quad_t", True), ("quad_m", 0), ("chunk_trials", 2.0),
            ("seed", -1), ("seed", False), ("seed", "x"),
            # nor is a bool a real number: True used to be a 1 m radius, n = 1
            # or a grid point of 1.0
            ("cluster_size", True), ("cluster_radius_m", True),
            ("window_radius_m", True), ("bandwidth_hz", True),
            ("axis_grid", (True, 2.0)), ("axis_grid", True),
        ],
    )
    def test_integer_settings_follow_simulator_rule(self, key, value):
        # bools used to pass as integers and a negative seed passed until the
        # Monte Carlo part of a sweep rejected it
        with pytest.raises(ConfigError, match=f"^{key}: "):
            build_sweep({key: value})

    def test_interference_key_is_gone(self, tmp_path, capsys):
        # the in-cluster-limited case is a link: receiver and coexisting
        # densities zero and noise_mode = zero
        bad = tmp_path / "bad.cfg"
        bad.write_text("interference = intra-limited\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_resolution_order(self):
        # preset < overrides < variant < axis point
        override = 3.0 * BASE_DENSITY
        _, spec = build_sweep({"coexist_density_per_m2": override}, preset="fig4")
        expected = {"co-zero": 0.0, "co-base": override, "co-10x": 10.0 * BASE_DENSITY}
        assert [label for label, _ in spec.variant_points] == list(expected)
        for label, points in spec.variant_points:
            assert [p.axis_value for p in points] == list(spec.grid)
            for value, point in zip(spec.grid, points):
                assert point.network.link.lambda_co == expected[label]
                assert point.network.link.lambda_g == value

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_resolve(self, preset):
        settings, spec = build_sweep({}, preset=preset)
        assert spec.preset == preset
        assert len(spec.grid) >= 3
        assert spec.scenarios


class TestSweep:
    def test_writes_csv_and_metadata(self, tiny_config, tmp_path):
        out = tmp_path / "sweep.csv"
        _, spec = build_sweep(read_config(tiny_config))
        summary = run_sweep(spec, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[:5] == ["axis_value", "scenario", "method", "bound_side", "coverage"]
        # grid x methods x scenarios (one scenario here)
        assert len(data) == 3 * 2
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert set(meta) == {"package_version", "settings", "resolved", "summary"}
        assert meta["settings"]["seed"] == 5
        assert "mc-vs-gc" in summary["coverage_gaps"]

    def test_dbm_metadata_roundtrip(self, tiny_config, tmp_path):
        out = tmp_path / "sweep.csv"
        _, spec = build_sweep(read_config(tiny_config))
        run_sweep(spec, str(out))
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        dbm = meta["settings"]["tx_power_dbm"]
        mw = meta["resolved"]["tx_power_mw"]
        assert abs(10.0 ** (dbm / 10.0) - mw) <= 1e-9 * mw

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        _, spec = build_sweep(read_config(tiny_config))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_sweep(spec, str(first))
        run_sweep(spec, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_outputs_ignore_hash_seed(self, tmp_path):
        # every curve ties at gap 0 here: n = 1 in-cluster-limited rows are
        # exact, so the worst gap is reported for the first curve, not for
        # one picked by set order
        cfg = tmp_path / "ties.cfg"
        cfg.write_text(
            "receiver_density_per_m2 = 0\ncoexist_density_per_m2 = 0\nnoise_mode = zero\n"
            "cluster_size = 1\nmethods = gc, exact\naxis_grid = -10, 0\n"
        )
        src = os.path.dirname(os.path.dirname(clustercov.__file__))
        outputs = []
        for hash_seed in ("1", "4"):
            out = tmp_path / f"h{hash_seed}.csv"
            subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "clustercov.cli",
                 "sweep", "--config", str(cfg), "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
                check=True, capture_output=True, timeout=120,
            )
            meta = tmp_path / f"h{hash_seed}.csv.meta.json"
            outputs.append((out.read_bytes(), meta.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mc_point_matches_threshold_curve(self, tmp_path):
        # chunk streams depend only on the seed and the chunk index, so the
        # one simulation over a threshold grid and the per-point simulation
        # of another axis give the same estimate at the same point
        common = {"methods": ("mc",), "trials": 600, "seed": 3}
        _, by_gamma = build_sweep({**common, "axis_grid": (-20.0, -10.0, 0.0)})
        _, by_size = build_sweep(
            {**common, "axis": "cluster_size", "axis_grid": (5.0, 6.0), "gamma_th_db": -10.0}
        )
        cells = {}
        for name, spec, axis_value in (("gamma", by_gamma, "-10.0"), ("size", by_size, "6.0")):
            out = tmp_path / f"{name}.csv"
            run_sweep(spec, str(out))
            with open(out, newline="") as fh:
                cells[name] = {
                    row["scenario"]: [row[c] for c in ("coverage", "ase", "ee", "stderr")]
                    for row in csv.DictReader(fh)
                    if row["axis_value"] == axis_value
                }
        assert len(cells["gamma"]) == 4
        assert cells["gamma"] == cells["size"]

    def test_method_names_are_method_values(self, tmp_path):
        # Method is the one method vocabulary: every member's value is a
        # sweep method name, and the CSV's method column writes it back
        for method in Method:
            _, spec = build_sweep({"methods": (method.value,)})
            assert spec.methods == (method.value,)
        with pytest.raises(ConfigError, match="must be among exact, gc, mc, got 'magic'"):
            build_sweep({"methods": ("magic",)})
        _, spec = build_sweep({"methods": ("exact", "gc", "mc"), "axis_grid": (0.0,),
                               "trials": 20, "seed": 1})
        out = tmp_path / "methods.csv"
        run_sweep(spec, str(out))
        with open(out, newline="") as fh:
            written = {row["method"] for row in csv.DictReader(fh)}
        assert written == {method.value for method in Method}

    def test_in_cluster_limited_rows_are_exact(self, tmp_path):
        # no other clusters, no coexisting nodes, no noise: nothing is bounded
        _, spec = build_sweep(parse_config_text(
            "receiver_density_per_m2 = 0\ncoexist_density_per_m2 = 0\nnoise_mode = zero\n"
            "axis_grid = -10, 0\nmethods = gc, exact"
        ))
        out = tmp_path / "intra.csv"
        run_sweep(spec, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 4
        assert {row["bound_side"] for row in rows} == {"exact"}

    def test_mc_rows_carry_stderr(self, tiny_config, tmp_path):
        out = tmp_path / "sweep.csv"
        _, spec = build_sweep(read_config(tiny_config))
        run_sweep(spec, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["method"] == "mc":
                assert float(row["stderr"]) >= 0.0
                assert row["bound_side"] == "estimate"
            else:
                assert row["stderr"] == ""
                assert row["bound_side"] == "upper-bound"


class TestMainEntry:
    def test_sweep_command(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(["sweep", "--config", str(tiny_config), "--out", str(out),
                     "--trials", "500"])
        assert code == 0
        assert out.exists()
        assert "max |mc-vs-gc| coverage gap" in capsys.readouterr().out

    def test_sweep_ranked_node_of_large_cluster(self, tmp_path):
        # validate accepted this config and sweep then exited 1 with an
        # uncaught OverflowError from the order-statistic coefficient
        cfg = tmp_path / "large.cfg"
        cfg.write_text(
            "size_model = fixed\nordering = ordered\nordered_rank = 550\n"
            "cluster_size = 1100\nmethods = gc\naxis_grid = -30\n"
        )
        out = tmp_path / "large.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_validate_command(self, tiny_config, capsys):
        assert main(["validate", "--config", str(tiny_config)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("path_loss_exponent = 1.5\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan", "-10, inf", "-inf, 0"])
    def test_validate_rejects_non_finite_grid(self, tmp_path, capsys, grid):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"axis_grid = {grid}\n")
        assert main(["validate", "--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "axis_grid" in captured.err
        assert "config OK" not in captured.out

    def test_sweep_rejects_non_finite_threshold(self, tmp_path, capsys):
        # on the threshold axis the base value reaches only the sidecar,
        # which must never hold NaN (invalid JSON)
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma_th_db = nan\naxis_grid = -10, 0\nmethods = gc\n")
        out = tmp_path / "never.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert "gamma_th_db" in capsys.readouterr().err
        assert not out.exists()

    def test_schema_error_before_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("axis_grid = \n")  # empty value -> parse error
        out = tmp_path / "never.csv"
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--check", "beta"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["sweep", "--preset", "fig2", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 16 thresholds x 2 methods x 4 scenarios
        assert len(rows) == 16 * 2 * 4
        methods = {row["method"] for row in rows}
        assert methods == {"exact", "gc"}
