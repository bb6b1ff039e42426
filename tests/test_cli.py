import json

import pytest

from advdiff.cli import (
    EXIT_GATES,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    main,
)
from advdiff.fieldio import read_field


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def simulate_config(**overrides):
    cfg = {
        "kind": "simulate",
        "seed": 7,
        "grid": {"dim": 2, "points_per_axis": 32},
        "field": {"name": "taylor_green", "params": {"amplitude": 1.0}},
        "initial_datum": {"kind": "sine", "mode": [0, 1], "amplitude": 1.0},
        "solver": {"t_final": 0.02, "dt": 0.0005, "record_every": 10},
        "outputs": {"diagnostics_csv": True, "snapshots": True},
    }
    cfg.update(overrides)
    return cfg


class TestSimulateCommand:
    def test_end_to_end(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_gates_pass"] is True
        assert set(manifest["gates"]) == {
            "e1_l1", "e1_l2", "e1_l4", "e1_linf", "e2_dissipation",
            "beta_half_square", "beta_arctan", "mean_conserved",
        }
        assert manifest["config_sha256"]

        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,l1,l2,l4,linf,grad_l2_sq_cum,energy_lhs,mean,beta_arctan"

        snaps = sorted(out.glob("snapshot_*.torf"))
        assert snaps
        field = read_field(snaps[0])
        assert field.grid.points_per_axis == 32

        assert not list(out.parent.glob(".tmp-run-*"))  # no temp leftovers

    def test_pure_diffusion_eigenmode_manifest_reports_heat_error(self, tmp_path):
        cfg = simulate_config(field=None)
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "heat"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gates"]["heat_kernel_exact"] is True
        assert manifest["metrics"]["heat_kernel_error"] <= 1e-10

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = simulate_config(initial_datum={"kind": "random_bandlimited", "max_mode": 3, "amplitude": 1.0})
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg_path, "--out", str(b)]) == EXIT_OK
        assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
        snaps = sorted(p.name for p in a.glob("snapshot_*.torf"))
        assert snaps and snaps == sorted(p.name for p in b.glob("snapshot_*.torf"))
        for name in snaps:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = simulate_config(extra_block={"x": 1})
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_SCHEMA

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg = simulate_config()
        cfg["solver"]["step_size"] = 0.1
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_SCHEMA

    def test_bool_dim_rejected(self, tmp_path, capsys):
        cfg = simulate_config(grid={"dim": True, "points_per_axis": 32})
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_SCHEMA
        assert "grid.dim: expected int, got bool" in capsys.readouterr().err

    def test_wrong_kind_rejected(self, tmp_path):
        cfg = simulate_config(kind="commutator")
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_SCHEMA

    def test_cfl_violation_exits_numerical(self, tmp_path):
        cfg = simulate_config(
            field={"name": "taylor_green", "params": {"amplitude": 4.0}},
            solver={"t_final": 0.2, "dt": 0.05},
        )
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_NUMERICAL


class TestCommutatorCommand:
    def test_constant_velocity_exact(self, tmp_path):
        cfg = {
            "kind": "commutator",
            "grid": {"dim": 2, "points_per_axis": 64},
            "field": {"name": "constant", "params": {"c1": 1.0}},
            "w": {"kind": "random_bandlimited", "max_mode": 4, "amplitude": 1.0},
            "study": {"delta0": 0.1, "levels": 3, "norm": "L1_spacetime"},
            "expect": {"decay": True},
        }
        cfg_path = write_config(tmp_path, "com.json", cfg)
        out = tmp_path / "study"
        assert main(["commutator", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "exact"
        assert verdict["decay"] is True
        lines = (out / "decay.csv").read_text().splitlines()
        assert lines[0] == "delta,norm,ratio"
        assert len(lines) == 4

    def test_decay_with_threads(self, tmp_path):
        cfg = {
            "kind": "commutator",
            "grid": {"dim": 2, "points_per_axis": 128},
            "field": {"name": "taylor_green", "params": {}},
            "w": {"kind": "sine", "mode": [1, 0], "amplitude": 1.0},
            "study": {"delta0": 0.1, "levels": 4, "norm": "L2_Hminus1"},
            "expect": {"decay": True},
        }
        cfg_path = write_config(tmp_path, "com.json", cfg)
        out = tmp_path / "study"
        assert main(["commutator", "--config", cfg_path, "--out", str(out), "--threads", "3"]) == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["verdict"] == "decay"
        assert verdict["fitted_rate"] > 0.8

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = {
            "kind": "commutator",
            "seed": 3,
            "grid": {"dim": 2, "points_per_axis": 64},
            "field": {"name": "power_singularity", "params": {"exponent": 1.25}},
            "w": {"kind": "random_bandlimited", "max_mode": 4, "amplitude": 1.0},
            "study": {"delta0": 0.1, "levels": 3, "norm": "L2_Hminus1"},
        }
        cfg_path = write_config(tmp_path, "com.json", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["commutator", "--config", cfg_path, "--out", str(a)]) == EXIT_OK
        assert main(["commutator", "--config", cfg_path, "--out", str(b)]) == EXIT_OK
        for name in ("decay.csv", "verdict.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_expectation_gate_failure(self, tmp_path):
        cfg = {
            "kind": "commutator",
            "grid": {"dim": 2, "points_per_axis": 64},
            "field": {"name": "constant", "params": {}},
            "w": {"kind": "sine", "mode": [1, 0]},
            "study": {"delta0": 0.1, "levels": 3},
            "expect": {"decay": False},
        }
        cfg_path = write_config(tmp_path, "com.json", cfg)
        assert main(["commutator", "--config", cfg_path, "--out", str(tmp_path / "s")]) == EXIT_GATES


class TestRegimeCommand:
    def test_classify_red_wedge(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["regime", "classify", "--d", "3", "--alpha", "inf", "--p", "inf", "--q", "2", "--out", str(out_file)])
        assert code == EXIT_OK
        report = json.loads(out_file.read_text())
        for flag in ("product_defined", "distributional_exists", "parabolic_exists", "parabolic_unique", "all_distributional_parabolic"):
            assert report[flag] is True
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_classify_rejects_bad_exponent(self):
        assert main(["regime", "classify", "--d", "3", "--alpha", "2", "--p", "0.5", "--q", "2"]) == EXIT_SCHEMA

    def test_map_writes_svg_and_csv(self, tmp_path):
        svg = tmp_path / "fig.svg"
        assert main(["regime", "map", "--d", "2", "--alpha", "inf", "--resolution", "16", "--out", str(svg)]) == EXIT_OK
        assert svg.exists()
        csv_lines = (tmp_path / "fig.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 16 * 16

    def test_map_config_mode_writes_manifest(self, tmp_path):
        cfg = {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": 16}
        cfg_path = write_config(tmp_path, "map.json", cfg)
        out = tmp_path / "map_run"
        assert main(["regime", "map", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gates"]["coherent_cells"] is True
        assert (out / "map.svg").exists() and (out / "map.csv").exists()

    @pytest.mark.parametrize("alpha", [0, "0", "abc", 0.5, float("nan")], ids=["0", "str0", "abc", "half", "nan"])
    def test_map_config_rejects_bad_alpha(self, tmp_path, capsys, alpha):
        cfg = {"kind": "regime-map", "d": 3, "alpha": alpha, "resolution": 16}
        cfg_path = write_config(tmp_path, "map.json", cfg)
        assert main(["regime", "map", "--config", cfg_path, "--out", str(tmp_path / "m")]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["0", "abc", "0.5", "nan"])
    def test_map_flags_rejects_bad_alpha(self, tmp_path, capsys, alpha):
        svg = tmp_path / "fig.svg"
        assert main(["regime", "map", "--d", "3", "--alpha", alpha, "--resolution", "16", "--out", str(svg)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not svg.exists()

    @pytest.mark.parametrize("key", ["d", "resolution", "alpha"])
    def test_map_config_rejects_bool(self, tmp_path, capsys, key):
        cfg = {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": 16, key: True}
        cfg_path = write_config(tmp_path, "map.json", cfg)
        assert main(["regime", "map", "--config", cfg_path, "--out", str(tmp_path / "m")]) == EXIT_SCHEMA
        assert f"config.{key}: expected" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_map_requires_flags_or_config(self):
        assert main(["regime", "map", "--alpha", "inf"]) == EXIT_SCHEMA


class TestFieldsCommand:
    def test_list_table(self, capsys):
        assert main(["fields", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        body = [line for line in out.splitlines()[2:] if line.strip()]
        assert len(body) == 6
        assert "power_singularity" in out
        assert "2/(a-1) = 4" in out
        assert "taylor_green" in out

    def test_audit(self, tmp_path):
        cfg = {
            "kind": "field-audit",
            "field": {"name": "power_singularity", "params": {"exponent": 1.5}},
            "dim": 2,
            "p_values": [3.0, 5.0],
            "resolutions": [64, 128, 256, 512],
        }
        cfg_path = write_config(tmp_path, "audit.json", cfg)
        out = tmp_path / "audit"
        assert main(["fields", "audit", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        rows = (out / "trends.csv").read_text().splitlines()
        assert rows[0] == "p,slope,verdict,consistent_with_card"
        verdicts = {row.split(",")[0]: row.split(",")[2] for row in rows[1:]}
        assert verdicts["3"] == "converging"
        assert verdicts["5"] == "diverging"
