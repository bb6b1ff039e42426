import argparse
import contextlib
import copy
import io
import json
import pathlib
import re
import tempfile

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from advdiff.cli import (
    EXIT_GATES,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    _parser,
    main,
)
from advdiff.fieldio import read_field
from advdiff.grid import ScalarField, TorusGrid
from advdiff.library import FieldSpec
from advdiff.solver import SolverConfig, solve


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def manifest_without_wall_time(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["wall_time_s"]
    return manifest


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

    def test_diagnostics_csv_is_the_solver_table(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK

        grid = TorusGrid(2, 32)
        _, y = grid.coordinate_mesh()
        u0 = ScalarField(grid, np.broadcast_to(np.sin(2 * np.pi * y), grid.shape))
        config = SolverConfig(t_final=0.02, dt=0.0005, record_every=10)
        diag = solve(FieldSpec("taylor_green", {"amplitude": 1.0}), u0, config).diagnostics
        for name, column in diag.items():
            assert column.dtype == np.float64 and not column.flags.writeable, name
            assert len(column) == 40 + 1, name  # n_steps + 1, t = 0 included

        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        names = header.split(",")
        assert len(rows) == 40 + 1
        for i, row in enumerate(rows):
            for name, cell in zip(names, row.split(","), strict=True):
                assert float(cell) == diag[name][i], (name, i)

    def test_pure_diffusion_eigenmode_manifest_reports_heat_error(self, tmp_path):
        cfg = simulate_config(field=None)
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "heat"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gates"]["heat_kernel_exact"] is True
        assert manifest["metrics"]["heat_kernel_error"] <= 1e-10

    def test_mollified_pure_diffusion_passes_heat_kernel_gate(self, tmp_path):
        # The gate compares with the mollified datum the solver evolved, not the raw one.
        cfg = simulate_config(
            field=None,
            initial_datum={"kind": "sine", "mode": [1, 2]},
            solver={"t_final": 0.02, "dt": 0.0005, "record_every": 10, "mollify_u0": 0.1},
        )
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        out = tmp_path / "heat"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_gates_pass"] is True
        assert manifest["metrics"]["heat_kernel_error"] <= 1e-10

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = simulate_config(initial_datum={"kind": "random_bandlimited", "max_mode": 3, "amplitude": 1.0})
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", cfg_path, "--out", str(b), "--threads", "3"]) == EXIT_OK
        assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
        snaps = sorted(p.name for p in a.glob("snapshot_*.torf"))
        assert snaps and snaps == sorted(p.name for p in b.glob("snapshot_*.torf"))
        for name in snaps:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert manifest_without_wall_time(a) == manifest_without_wall_time(b)

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
        assert main(["commutator", "--config", cfg_path, "--out", str(b), "--threads", "3"]) == EXIT_OK
        for name in ("decay.csv", "verdict.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert manifest_without_wall_time(a) == manifest_without_wall_time(b)

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

    def test_unresolvable_schedule_exits_before_compute(self, tmp_path, monkeypatch, capsys):
        # at N=16 the floor is 1.5 / 16 = 0.094, so the last level 0.05 is unresolvable
        cfg = {
            "kind": "commutator",
            "grid": {"dim": 2, "points_per_axis": 16},
            "field": {"name": "taylor_green", "params": {}},
            "w": {"kind": "sine", "mode": [1, 0]},
            "study": {"delta0": 0.2, "levels": 3},
        }

        def never(*args, **kwargs):
            pytest.fail("the study ran before the schedule was validated")

        monkeypatch.setattr("advdiff.commutators.convergence_study", never)
        monkeypatch.setattr("advdiff.cli.convergence_study", never)
        cfg_path = write_config(tmp_path, "com.json", cfg)
        out = tmp_path / "study"
        assert main(["commutator", "--config", cfg_path, "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert "delta=0.05" in err
        assert not out.exists()


class TestRegimeCommand:
    def test_classify_red_wedge(self, capsys):
        assert main(["regime", "classify", "--d", "3", "--alpha", "inf", "--p", "inf", "--q", "2"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for flag in ("product_defined", "distributional_exists", "parabolic_exists", "parabolic_unique", "all_distributional_parabolic"):
            assert report[flag] is True

    def test_classify_rejects_bad_exponent(self):
        assert main(["regime", "classify", "--d", "3", "--alpha", "2", "--p", "0.5", "--q", "2"]) == EXIT_SCHEMA

    def test_map_writes_svg_and_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, "map.json", {"kind": "regime-map", "d": 2, "alpha": "inf", "resolution": 16})
        out = tmp_path / "map_run"
        assert main(["regime", "map", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert (out / "map.svg").exists()
        csv_lines = (out / "map.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 16 * 16

    def test_map_out_never_clobbers_files(self, tmp_path):
        notes, sibling = tmp_path / "notes.txt", tmp_path / "notes.csv"
        notes.write_text("keep me\n")
        sibling.write_text("keep me too\n")
        with pytest.raises(SystemExit) as exc:
            main(["regime", "map", "--d", "2", "--resolution", "16", "--out", str(notes)])
        assert exc.value.code == EXIT_SCHEMA
        cfg_path = write_config(tmp_path, "map.json", {"kind": "regime-map", "d": 2, "resolution": 16})
        assert main(["regime", "map", "--config", cfg_path, "--out", str(notes)]) == EXIT_IO
        assert notes.read_text() == "keep me\n" and sibling.read_text() == "keep me too\n"

    @pytest.mark.parametrize("flag", ["--d", "--alpha", "--resolution"])
    def test_map_refuses_removed_flags(self, tmp_path, capsys, flag):
        cfg_path = write_config(tmp_path, "map.json", {"kind": "regime-map", "d": 2, "resolution": 16})
        out = tmp_path / "map_run"
        with pytest.raises(SystemExit) as exc:
            main(["regime", "map", "--config", cfg_path, "--out", str(out), flag, "2"])
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "usage:" in err and f"unrecognized arguments: {flag}" in err
        assert not out.exists()

    def test_classify_refuses_out(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["regime", "classify", "--d", "3", "--out", str(report)])
        assert exc.value.code == EXIT_SCHEMA
        assert capsys.readouterr().out == ""
        assert not report.exists()

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

    @pytest.mark.parametrize("key", ["d", "resolution", "alpha"])
    def test_map_config_rejects_bool(self, tmp_path, capsys, key):
        cfg = {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": 16, key: True}
        cfg_path = write_config(tmp_path, "map.json", cfg)
        assert main(["regime", "map", "--config", cfg_path, "--out", str(tmp_path / "m")]) == EXIT_SCHEMA
        assert f"config.{key}: expected" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_map_config_mode_prints_run_line(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "map.json", {"kind": "regime-map", "d": 2, "resolution": 16})
        out = tmp_path / "map_run"
        assert main(["regime", "map", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"run complete: {out} (1 gates, all pass)\n"


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


def small_simulate_config(datum=None, solver=None):
    return simulate_config(
        grid={"dim": 2, "points_per_axis": 16},
        initial_datum=datum or {"kind": "sine", "mode": [0, 1]},
        solver=solver or {"t_final": 0.002, "dt": 0.001},
        outputs={"diagnostics_csv": True, "snapshots": False},
    )


def small_commutator_config(**study):
    return {
        "kind": "commutator",
        "seed": 1,
        "grid": {"dim": 2, "points_per_axis": 16},
        "field": {"name": "power_singularity", "params": {"exponent": 1.25}},
        "w": {"kind": "random_bandlimited", "max_mode": 2, "amplitude": 1.0},
        "study": {"delta0": 0.5, "levels": 2, "norm": "L2_Hminus1", "t_final": 0.01, "time_samples": 1, **study},
        "expect": {"decay": True},
    }


def audit_config(**overrides):
    cfg = {
        "kind": "field-audit",
        "field": {"name": "power_singularity", "params": {"exponent": 1.5}},
        "dim": 2,
        "p_values": [3.0],
        "resolutions": [16, 32, 64],
    }
    cfg.update(overrides)
    return cfg


# A small valid config for each run command.
RUN_CONFIGS = {
    "simulate": small_simulate_config(),
    "commutator": small_commutator_config(),
    "regime map": {"kind": "regime-map", "d": 2, "resolution": 16},
    "fields audit": audit_config(),
}

NAN = float("nan")

# (command, config, expected stderr fragment): each one used to run silently
# or to end in a traceback with exit 1.
BAD_CONFIGS = {
    "mode_bool": (["simulate"], small_simulate_config({"kind": "sine", "mode": [True, 0]}), "initial_datum.mode[0]: expected int, got bool"),
    "mode_str": (["simulate"], small_simulate_config({"kind": "sine", "mode": ["abc", 0]}), "initial_datum.mode[0]: expected int, got str"),
    "center_bool": (
        ["simulate"],
        small_simulate_config({"kind": "gaussian_bump", "center": [True, 0.5]}),
        "initial_datum.center[0]: expected int/float, got bool",
    ),
    "p_values_str": (["fields", "audit"], audit_config(p_values=["abc"]), "config.p_values[0]: expected int/float, got str"),
    "resolutions_bool": (
        ["fields", "audit"],
        audit_config(resolutions=[True, 64, 128, 256]),
        "config.resolutions[0]: expected int, got bool",
    ),
    "resolutions_repeated": (["fields", "audit"], audit_config(resolutions=[32, 32, 32]), "resolutions must be strictly increasing"),
    "resolutions_not_power_of_two": (
        ["fields", "audit"],
        audit_config(resolutions=[16, 32, 100]),
        "points_per_axis must be a power of two >= 4, got 100",
    ),
    "p_values_empty": (["fields", "audit"], audit_config(p_values=[]), "config.p_values: need at least one p, each >= 1"),
    "p_values_below_one": (["fields", "audit"], audit_config(p_values=[0.5]), "config.p_values: need at least one p, each >= 1"),
    "p_values_repeated": (["fields", "audit"], audit_config(p_values=[3.0, 3.0]), "config.p_values: repeated p"),
    "audit_dim_one": (["fields", "audit"], audit_config(dim=1), "field 'power_singularity' requires dim >= 2"),
    "simulate_dim_one": (
        ["simulate"],
        dict(
            small_simulate_config({"kind": "sine", "mode": [1]}),
            grid={"dim": 1, "points_per_axis": 16},
            field={"name": "shear"},
        ),
        "field 'shear' requires dim >= 2",
    ),
    "commutator_dim_one": (
        ["commutator"],
        dict(small_commutator_config(), grid={"dim": 1, "points_per_axis": 16}),
        "field 'power_singularity' requires dim >= 2",
    ),
    "amplitude_nan": (["simulate"], small_simulate_config({"kind": "sine", "mode": [0, 1], "amplitude": NAN}), "must be finite"),
    "width_nan": (["simulate"], small_simulate_config({"kind": "gaussian_bump", "width": NAN}), "initial_datum.width: must be finite"),
    "width_zero": (["simulate"], small_simulate_config({"kind": "gaussian_bump", "width": 0}), "initial_datum.width: must be positive"),
    "max_mode_16": (
        ["simulate"],
        small_simulate_config({"kind": "random_bandlimited", "max_mode": 16}),
        "initial_datum.max_mode: must lie in [0, 8)",
    ),
    "max_mode_negative": (
        ["simulate"],
        small_simulate_config({"kind": "random_bandlimited", "max_mode": -1}),
        "initial_datum.max_mode: must lie in [0, 8)",
    ),
    # the solver keeps only |k| <= N // 3, so these ran a truncated or zero datum
    "max_mode_above_dealiased_band": (
        ["simulate"],
        small_simulate_config({"kind": "random_bandlimited", "max_mode": 6}),
        "initial_datum.max_mode: must be <= 5 at N=16, got 6",
    ),
    "sine_above_dealiased_band": (
        ["simulate"],
        small_simulate_config({"kind": "sine", "mode": [6, 0]}),
        "initial_datum.mode: each |k| must be <= 5 at N=16, got [6, 0]",
    ),
    # w is not dealiased, but the Nyquist mode and beyond alias
    "w_sine_at_nyquist": (
        ["commutator"],
        dict(small_commutator_config(), w={"kind": "sine", "mode": [8, 0]}),
        "w.mode: each |k| must be <= 7 at N=16, got [8, 0]",
    ),
    "output_dir_key": (
        ["simulate"],
        dict(small_simulate_config(), output_dir="x"),
        "config error: config: unknown keys ['output_dir']",
    ),
    "mollify_b_unresolved": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "mollify_b": 0.01}),
        "under-resolved",
    ),
    "dealias_key": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "dealias": False}),
        "solver: unknown keys ['dealias']",
    ),
    "diffusion_key": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "diffusion": "explicit"}),
        "solver: unknown keys ['diffusion']",
    ),
    "profile_bogus_simulate": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "mollifier_profile": "bogus"}),
        "unknown mollifier profile 'bogus'",
    ),
    "profile_bogus_commutator": (["commutator"], small_commutator_config(profile="bogus"), "unknown mollifier profile 'bogus'"),
    "field_param_nan": (
        ["simulate"],
        dict(small_simulate_config(), field={"name": "taylor_green", "params": {"amplitude": NAN}}),
        "field.params.amplitude: must be finite",
    ),
    "regime_d_zero": (["regime", "map"], {"kind": "regime-map", "d": 0, "resolution": 16}, "config error: dimension must be >= 1"),
    "regime_d_negative": (["regime", "map"], {"kind": "regime-map", "d": -1, "resolution": 16}, "config error: dimension must be >= 1"),
}


class TestConfigValidation:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_schema(self, tmp_path, capsys, case):
        command, cfg, fragment = BAD_CONFIGS[case]
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert fragment in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ["resolutions_repeated", "resolutions_not_power_of_two", "p_values_empty", "p_values_below_one", "p_values_repeated"]
    )
    def test_bad_audit_refused_before_compute(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr("advdiff.cli.estimate_integrability", lambda *a, **k: pytest.fail("audit computed a trend"))
        command, cfg, _ = BAD_CONFIGS[case]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("case", ["audit_dim_one", "simulate_dim_one", "commutator_dim_one"])
    def test_planar_field_on_dim_one_refused_before_compute(self, tmp_path, monkeypatch, case):
        for name in ("solve", "estimate_integrability", "convergence_study"):
            monkeypatch.setattr(f"advdiff.cli.{name}", lambda *a, **k: pytest.fail("computed before the dim check"))
        command, cfg, _ = BAD_CONFIGS[case]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "commutator", "regime_map", "fields_audit"])
    def test_threads_below_one_refused_before_compute(self, tmp_path, monkeypatch, capsys, command, threads):
        for name in ("solve", "convergence_study", "emit_region_map", "estimate_integrability"):
            monkeypatch.setattr(f"advdiff.cli.{name}", lambda *a, **k: pytest.fail("computed before the threads check"))
        argv, cfg = {
            "simulate": (["simulate"], small_simulate_config()),
            "commutator": (["commutator"], small_commutator_config()),
            "regime_map": (["regime", "map"], {"kind": "regime-map", "d": 2, "resolution": 16}),
            "fields_audit": (["fields", "audit"], audit_config()),
        }[command]
        out = tmp_path / "out"
        assert main([*argv, "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out), "--threads", threads]) == EXIT_SCHEMA
        assert capsys.readouterr().err == f"config error: threads must be >= 1, got {threads}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate"], ["commutator"], ["regime", "map"], ["fields", "audit"]], ids="_".join)
    def test_run_command_requires_config(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "usage:" in err and "--config" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(RUN_CONFIGS), ids=lambda c: c.replace(" ", "_"))
    def test_run_command_requires_out(self, tmp_path, monkeypatch, capsys, command):
        cfg_path = write_config(tmp_path, "cfg.json", RUN_CONFIGS[command])
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--config", cfg_path])
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "usage:" in err and "--out" in err and "Traceback" not in err
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "commutator"])
    def test_run_command_refuses_seed(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, "cfg.json", RUN_CONFIGS[command])
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, "--out", str(out), "--seed", "1"])
        assert exc.value.code == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --seed 1" in err
        assert not out.exists()

    def test_run_commands_take_only_config_out_threads(self):
        # A new run flag must not change what is computed: the config alone decides that.
        def subcommands(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    yield from action.choices.items()

        runs = {}
        for name, sub in subcommands(_parser()):
            runs[name] = sub
            runs.update((f"{name} {inner}", p) for inner, p in subcommands(sub))
        for command in RUN_CONFIGS:
            options = {opt for action in runs[command]._actions for opt in action.option_strings}
            assert options == {"-h", "--help", "--config", "--out", "--threads"}, command

    def test_regime_alpha_still_accepts_infinity(self, tmp_path):
        cfg_path = write_config(tmp_path, "map.json", {"kind": "regime-map", "d": 3, "alpha": float("inf"), "resolution": 16})
        assert main(["regime", "map", "--config", cfg_path, "--out", str(tmp_path / "m")]) == EXIT_OK


class TestPublish:
    def run(self, tmp_path, out, **overrides):
        cfg = small_simulate_config()
        cfg["outputs"]["snapshots"] = True
        cfg.update(overrides)
        cfg_path = write_config(tmp_path, "sim.json", cfg)
        return main(["simulate", "--config", cfg_path, "--out", str(out)])

    def test_rerun_replaces_previous_run_whole(self, tmp_path):
        out = tmp_path / "run"
        assert self.run(tmp_path, out) == EXIT_OK
        (out / "snapshot_999999.torf").write_bytes(b"stale")
        assert self.run(tmp_path, out) == EXIT_OK
        assert not (out / "snapshot_999999.torf").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == manifest["outputs"]
        assert not list(tmp_path.glob(".tmp-run-*"))

    def test_empty_directory_is_filled(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert self.run(tmp_path, out) == EXIT_OK
        assert (out / "manifest.json").is_file()

    def test_failure_mid_write_leaves_target_unchanged(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert self.run(tmp_path, out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_text = pathlib.Path.write_text

        def failing_write_text(path, *args, **kwargs):
            if path.name == "manifest.json":
                raise OSError("disk full")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", failing_write_text)
        assert self.run(tmp_path, out, seed=8) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o failure: disk full")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(tmp_path.glob(".tmp-run-*"))

    def test_out_of_memory_exits_numerical(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the state")

        monkeypatch.setattr("advdiff.cli.solve", exhausted)
        out = tmp_path / "run"
        assert self.run(tmp_path, out) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical abort: out of memory: cannot allocate the state\n"
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-run-*"))

    @pytest.mark.parametrize("target", ["foreign_directory", "file"])
    def test_foreign_target_refused_before_compute(self, tmp_path, monkeypatch, capsys, target):
        out = tmp_path / "out"
        if target == "file":
            out.write_text("notes")
        else:
            out.mkdir()
            (out / "notes.txt").write_text("notes")
        monkeypatch.setattr("advdiff.cli.solve", lambda *a, **k: pytest.fail("computed before refusing the target"))
        assert self.run(tmp_path, out) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o failure:") and "Traceback" not in err
        if target == "file":
            assert out.read_text() == "notes"
        else:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert not list(tmp_path.glob(".tmp-run-*"))


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_CONFIGS = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S) if '"kind"' in block]
KIND_COMMANDS = {"simulate": ["simulate"], "commutator": ["commutator"], "regime-map": ["regime", "map"], "field-audit": ["fields", "audit"]}


class _ReachedCompute(Exception):
    pass


@pytest.mark.parametrize("cfg", README_CONFIGS, ids=lambda cfg: cfg["kind"])
def test_readme_config_examples_parse(tmp_path, monkeypatch, cfg):
    def reached(*args, **kwargs):
        raise _ReachedCompute

    for name in ("solve", "convergence_study", "emit_region_map", "integrability_card"):
        monkeypatch.setattr(f"advdiff.cli.{name}", reached)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    with pytest.raises(_ReachedCompute):
        main([*KIND_COMMANDS[cfg["kind"]], "--config", cfg_path, "--out", str(tmp_path / "out")])


def test_readme_shows_a_config_of_every_kind():
    assert sorted(cfg["kind"] for cfg in README_CONFIGS) == sorted(KIND_COMMANDS)


# Small valid configs; the fuzz below replaces or deletes a few of their values.
FUZZ_BASES = {
    "simulate": (
        ["simulate"],
        {
            "kind": "simulate",
            "seed": 1,
            "grid": {"dim": 2, "points_per_axis": 8},
            "field": {"name": "taylor_green", "params": {"amplitude": 1.0}},
            "initial_datum": {"kind": "gaussian_bump", "center": [0.5, 0.5], "width": 0.2, "amplitude": 1.0},
            "solver": {"t_final": 0.004, "dt": 0.001, "record_every": 2, "mollify_u0": 0.5},
            "outputs": {"diagnostics_csv": True, "snapshots": True},
            "tolerances": {"e1_slack": 1e-8},
        },
    ),
    "commutator": (["commutator"], small_commutator_config()),
    "regime map": (["regime", "map"], {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": 16}),
}
FUZZ_VALUES = [0, 1, -1, 2, 0.5, 1e-3, NAN, float("inf"), True, None, "abc", [], [1, 0], [True, 0.5], {}]
DELETE = object()


def config_paths(node, prefix=()):
    """The path (tuple of keys and indices) of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from config_paths(value, prefix + (key,))


def apply_edit(cfg, path, value):
    node = cfg
    try:
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass  # an earlier edit removed or replaced this path


@hypothesis.given(data=st.data())
@hypothesis.settings(max_examples=60, deadline=None)
def test_fuzzed_configs_exit_with_a_documented_code(data):
    command, base = FUZZ_BASES[data.draw(st.sampled_from(sorted(FUZZ_BASES)))]
    cfg = copy.deepcopy(base)
    paths = list(config_paths(base))
    for path, value in data.draw(st.lists(st.tuples(st.sampled_from(paths), st.sampled_from([*FUZZ_VALUES, DELETE])), max_size=3)):
        apply_edit(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(pathlib.Path(tmp), "cfg.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--config", cfg_path, "--out", str(pathlib.Path(tmp) / "out")])
    assert code in {EXIT_OK, EXIT_GATES, EXIT_SCHEMA, EXIT_NUMERICAL, EXIT_IO}
    assert "Traceback" not in err.getvalue()
