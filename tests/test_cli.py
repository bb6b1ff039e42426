import argparse
import contextlib
import copy
import io
import json
import pathlib
import re
import runpy
import tempfile
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import advdiff.cli
import advdiff.mollify
import advdiff.regimes
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
from advdiff.mollify import kernel_multiplier
from advdiff.solver import SolverConfig, solve
from conftest import count_calls, peak_state_arrays
from lab import CATALOG


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload, indent=2))
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

    def test_diagnostics_only_run_holds_the_endpoints(self, tmp_path, monkeypatch):
        # record_every defaults to 1, yet a run that publishes no snapshot keeps only step 0 and the last step
        held = []

        def capture(*args, **kwargs):
            held.append(solve(*args, **kwargs))
            return held[-1]

        monkeypatch.setattr("advdiff.solver.solve", capture)
        outs = {}
        for snapshots in (False, True):
            cfg = simulate_config(
                grid={"dim": 2, "points_per_axis": 16},
                field=None,  # pure diffusion: the heat-kernel gate reads the first and last state
                solver={"t_final": 0.04, "dt": 1e-4},
                outputs={"diagnostics_csv": True, "snapshots": snapshots},
            )
            outs[snapshots] = tmp_path / f"snapshots_{snapshots}"
            assert main(["simulate", "--config", write_config(tmp_path, "sim.json", cfg), "--out", str(outs[snapshots])]) == EXIT_OK
        lean, full = held
        assert len(lean.states) == 2 and len(full.states) == 401
        assert lean.times.tolist() == [full.times[0], full.times[-1]]
        for kept, state in zip(lean.states, (full.states[0], full.states[-1])):
            assert np.array_equal(kept.values, state.values)

        manifests = {key: json.loads((out / "manifest.json").read_text()) for key, out in outs.items()}
        assert manifests[False]["metrics"] == manifests[True]["metrics"]
        assert manifests[False]["gates"] == manifests[True]["gates"]
        assert (outs[False] / "diagnostics.csv").read_bytes() == (outs[True] / "diagnostics.csv").read_bytes()
        assert sorted(p.name for p in outs[False].iterdir()) == ["diagnostics.csv", "manifest.json"]
        snaps = sorted(p.name for p in outs[True].glob("snapshot_*.torf"))
        assert snaps == [f"snapshot_{step:06d}.torf" for step in range(401)]

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

    def test_constant_datum_keeps_its_mean(self, tmp_path):
        # a constant is steady under a divergence-free b and the heat flow alike
        cfg_path = write_config(tmp_path, "sim.json", small_simulate_config({"kind": "constant", "value": 2.5}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        column = header.split(",").index("mean")
        assert rows
        for row in rows:
            assert float(row.split(",")[column]) == pytest.approx(2.5, rel=1e-12, abs=0.0)

    def test_manifest_records_fixed_tolerances(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tolerances"] == {"e1_slack": 1e-8, "e2_slack": 1e-8, "beta_slack": 1e-8, "mean_drift": 1e-12}

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

    def test_switching_study_norms_do_not_depend_on_node_count(self, tmp_path):
        # At 8, 16 and 32 nodes every switch interval of the period-0.125 shear takes the
        # same number of nodes, so the midpoint rule in time is exact and the norms agree.
        def norms(norm, nodes, **params):
            cfg = {
                "kind": "commutator",
                "seed": 5,
                "grid": {"dim": 2, "points_per_axis": 32},
                "field": {"name": "alternating_shear", "params": {"period": 0.125, **params}},
                "w": {"kind": "random_bandlimited", "max_mode": 4},
                "study": {"delta0": 0.4, "levels": 3, "norm": norm, "t_final": 1.0, "time_samples": nodes},
            }
            out = tmp_path / f"{norm}-{nodes}-{sorted(params)}"
            assert main(["commutator", "--config", write_config(tmp_path, "com.json", cfg), "--out", str(out)]) == EXIT_OK
            return [float(line.split(",")[1]) for line in (out / "decay.csv").read_text().splitlines()[1:]]

        for norm in ("L1_spacetime", "L2_Hminus1"):
            coarse = norms(norm, 8)
            for nodes in (16, 32):
                np.testing.assert_allclose(norms(norm, nodes), coarse, rtol=1e-12, atol=0.0)
        assert len(norms("L2_Hminus1", 4, modulation_exponent=0.5)) == 3

    def test_compact_bump_profile(self, tmp_path):
        cfg_path = write_config(tmp_path, "com.json", dict(small_commutator_config(profile="bump_compact"), expect={}))
        out = tmp_path / "study"
        assert main(["commutator", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        lines = (out / "decay.csv").read_text().splitlines()
        assert lines[0] == "delta,norm,ratio"
        assert len(lines) == 3

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

    def test_deterministic_output_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, "audit.json", audit_config(p_values=[3.0, 5.0], resolutions=[64, 128, 256]))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fields", "audit", "--config", cfg_path, "--out", str(a)]) == EXIT_OK
        assert main(["fields", "audit", "--config", cfg_path, "--out", str(b), "--threads", "3"]) == EXIT_OK
        assert (a / "trends.csv").read_bytes() == (b / "trends.csv").read_bytes()
        assert manifest_without_wall_time(a) == manifest_without_wall_time(b)

    def test_audit_instantiates_once_per_resolution(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "advdiff.library.instantiate")
        cfg = audit_config(p_values=[1.5, 2.0, 3.0, 5.0], resolutions=[64, 128, 256, 512, 1024])
        out = tmp_path / "audit"
        assert main(["fields", "audit", "--config", write_config(tmp_path, "audit.json", cfg), "--out", str(out)]) == EXIT_OK
        assert len(calls) == 5  # one per resolution, shared by the four p; it was one per (p, resolution), 20


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
MODULATED_SHEAR = {"name": "alternating_shear", "params": {"modulation_exponent": 0.3}}

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
    # 0.32 grid cells: the 2/3 mask kept a bump of peak 0.478 where the datum asked for 1
    "width_below_two_cells": (
        ["simulate"],
        dict(small_simulate_config({"kind": "gaussian_bump", "width": 0.02}), field=None),
        "initial_datum.width: must be >= 2 grid cells",
    ),
    # at N=16 the default width of 0.1 is below 2 cells, and the message named it as if the config had set it
    "width_default_below_two_cells": (
        ["simulate"],
        dict(small_simulate_config({"kind": "gaussian_bump"}), field=None),
        "initial_datum.width: must be >= 2 grid cells (0.125) at N=16, got the default 0.1",
    ),
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
    "tolerances_block": (
        ["simulate"],
        dict(small_simulate_config(), tolerances={"e2_slack": 0.1}),
        "config error: config: unknown keys ['tolerances']",
    ),
    "rk_order_three": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "rk_order": 3}),
        "config error: solver.rk_order: must be 4, got 3",
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
    # solve samples b at t = 0, where |b(t)| ~ t^-0.3 is infinite; it failed there, inside compute
    "modulated_shear_simulate": (
        ["simulate"],
        dict(small_simulate_config(), field=MODULATED_SHEAR),
        "config error: field: alternating_shear with modulation_exponent > 0 is singular at t = 0, where simulate starts",
    ),
    # the step count t_final / dt overflowed (OverflowError) or divided by a dt that underflowed to 0 (ZeroDivisionError)
    "dt_subnormal": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 1, "dt": 1e-320}),
        "config error: t_final=1.0 over dt=1e-320 is not a finite step count",
    ),
    "cfl_safety_subnormal": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 1, "cfl_safety": 5e-324}),
        "config error: t_final=1.0 over dt=0.0 is not a finite step count",
    ),
    # the wrapped Gaussian sums about 4 delta periodic shifts: these never returned
    "mollify_b_too_wide": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "mollify_b": 1e300}),
        "config error: delta must be at most 10.0, got 1e+300",
    ),
    "delta0_too_wide": (["commutator"], small_commutator_config(delta0=1e300), "config error: delta must be at most 10.0, got 1e+300"),
    "json_invalid": (["simulate"], "{not json", "not valid JSON"),
    "top_level_list": (["simulate"], [small_simulate_config()], "top level must be an object"),
    "grid_missing": (
        ["simulate"],
        {key: value for key, value in small_simulate_config().items() if key != "grid"},
        "config error: config: missing required key 'grid'",
    ),
    "sine_mode_length": (["simulate"], small_simulate_config({"kind": "sine", "mode": [1]}), "config error: initial_datum: mode must have 2 entries"),
    "center_length": (
        ["simulate"],
        small_simulate_config({"kind": "gaussian_bump", "center": [0.5], "width": 0.2}),
        "config error: initial_datum: center must have 2 entries",
    ),
    "datum_kind_unknown": (["simulate"], small_simulate_config({"kind": "bogus"}), "config error: initial_datum: unknown initial datum kind 'bogus'"),
    "t_final_zero": (["simulate"], small_simulate_config(solver={"t_final": 0, "dt": 0.001}), "config error: t_final must be positive"),
    "dt_and_cfl_safety": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "cfl_safety": 0.5}),
        "config error: set exactly one of dt (fixed step) and cfl_safety (CFL policy)",
    ),
    "neither_dt_nor_cfl_safety": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002}),
        "config error: set exactly one of dt (fixed step) and cfl_safety (CFL policy)",
    ),
    "dt_zero": (["simulate"], small_simulate_config(solver={"t_final": 0.002, "dt": 0}), "config error: dt must be positive"),
    "cfl_safety_above_one": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "cfl_safety": 1.5}),
        "config error: cfl_safety must lie in (0, 1]",
    ),
    "mollify_b_zero": (
        ["simulate"],
        small_simulate_config(solver={"t_final": 0.002, "dt": 0.001, "mollify_b": 0}),
        "config error: delta must be positive, got 0.0",
    ),
    "levels_one": (["commutator"], small_commutator_config(levels=1), "config error: schedule needs at least two levels"),
    "levels_zero": (["commutator"], small_commutator_config(levels=0), "config error: need at least one level"),
    "delta0_zero": (["commutator"], small_commutator_config(delta0=0), "config error: delta0 must be positive"),
    "norm_unknown": (["commutator"], small_commutator_config(norm="L2"), "config error: norm must be one of ('L1_spacetime', 'L2_Hminus1')"),
    "time_samples_zero": (["commutator"], small_commutator_config(time_samples=0), "config error: time_samples must be >= 1"),
    "study_t_final_zero": (["commutator"], small_commutator_config(t_final=0), "config error: t_final must be positive"),
    "field_unknown": (["simulate"], dict(small_simulate_config(), field={"name": "bogus"}), "config error: unknown field 'bogus'"),
    "field_param_unknown": (
        ["simulate"],
        dict(small_simulate_config(), field={"name": "shear", "params": {"bogus": 1}}),
        "config error: field 'shear' does not take parameter 'bogus'",
    ),
    "exponent_two": (
        ["commutator"],
        dict(small_commutator_config(), field={"name": "power_singularity", "params": {"exponent": 2.0}}),
        "config error: power_singularity exponent must lie in (0, 2), got 2.0",
    ),
    "cutoff_radius_above_half": (
        ["commutator"],
        dict(small_commutator_config(), field={"name": "power_singularity", "params": {"cutoff_radius": 0.6}}),
        "config error: cutoff_radius must lie in (0, 0.5]",
    ),
    "cells_fractional": (
        ["simulate"],
        dict(small_simulate_config(), field={"name": "shear", "params": {"cells": 1.5}}),
        "config error: cells must be a positive integer, got 1.5",
    ),
    "period_zero": (
        ["simulate"],
        dict(small_simulate_config(), field={"name": "alternating_shear", "params": {"period": 0}}),
        "config error: period must be positive",
    ),
    "modulation_exponent_negative": (
        ["simulate"],
        dict(small_simulate_config(), field={"name": "alternating_shear", "params": {"modulation_exponent": -1}}),
        "config error: modulation_exponent must be nonnegative",
    ),
    "radius_above_half": (
        ["simulate"],
        dict(small_simulate_config(), field={"name": "rotation_bump", "params": {"radius": 0.6}}),
        "config error: radius must lie in (0, 0.5]",
    ),
    "regime_d_zero": (["regime", "map"], {"kind": "regime-map", "d": 0, "resolution": 16}, "config error: dimension must be >= 1"),
    "regime_d_negative": (["regime", "map"], {"kind": "regime-map", "d": -1, "resolution": 16}, "config error: dimension must be >= 1"),
    "regime_resolution_below_16": (["regime", "map"], {"kind": "regime-map", "d": 3, "resolution": 8}, "config error: resolution must be >= 16, got 8"),
    # at least 61 bytes of CSV and SVG per cell: 6.1e13 bytes, more than any physical memory
    "regime_resolution_beyond_memory": (
        ["regime", "map"],
        {"kind": "regime-map", "d": 3, "resolution": 10**6},
        "config error: resolution 1000000: the CSV and SVG of 1000000^2 cells take at least 61000000000000 bytes",
    ),
}


class TestConfigValidation:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_schema(self, tmp_path, capsys, monkeypatch, case):
        emit = advdiff.regimes.emit_region_map  # a map past 64 cells per side here is a refused resolution that reached compute
        monkeypatch.setattr("advdiff.regimes.emit_region_map", lambda d, a, r: emit(d, a, r) if r <= 64 else pytest.fail(f"emitted {r}^2 cells"))
        sample = advdiff.mollify._sample_kernel  # a kernel past delta 10 here is a refused width that reached compute
        monkeypatch.setattr("advdiff.mollify._sample_kernel", lambda m, g: sample(m, g) if m.delta <= 10 else pytest.fail(f"sampled delta={m.delta}"))
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
        monkeypatch.setattr("advdiff.library.estimate_integrability", lambda *a, **k: pytest.fail("audit computed a trend"))
        command, cfg, _ = BAD_CONFIGS[case]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("case", ["audit_dim_one", "simulate_dim_one", "commutator_dim_one"])
    def test_planar_field_on_dim_one_refused_before_compute(self, tmp_path, monkeypatch, case):
        for target in ("advdiff.solver.solve", "advdiff.library.estimate_integrability", "advdiff.commutators.convergence_study"):
            monkeypatch.setattr(target, lambda *a, **k: pytest.fail("computed before the dim check"))
        command, cfg, _ = BAD_CONFIGS[case]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    @pytest.mark.parametrize("case", ["regime_resolution_below_16", "regime_resolution_beyond_memory"])
    def test_regime_resolution_refused_before_compute(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr("advdiff.regimes.emit_region_map", lambda *a, **k: pytest.fail("emitted a map before the resolution check"))
        command, cfg, _ = BAD_CONFIGS[case]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    def test_simulate_grid_beyond_memory_refused_before_datum(self, tmp_path, monkeypatch, capsys):
        # 25 float64 arrays of 2048^3 values take 1.7e12 bytes; the datum alone would be 6.9e10
        monkeypatch.setattr("advdiff.solver.solve", lambda *a, **k: pytest.fail("solve reached a grid beyond memory"))
        monkeypatch.setattr("advdiff.cli._parse_scalar_datum", lambda *a, **k: pytest.fail("allocated the datum of a grid beyond memory"))
        cfg = simulate_config(grid={"dim": 3, "points_per_axis": 2048}, initial_datum={"kind": "sine", "mode": [0, 1, 0]})
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("config error: grid: 25 state-sized arrays at N=2048 in 3D take about 1717986918400 bytes")
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            # 3 + 10 + 2 (one per level) float64 arrays of 2048^3 values take 1.0e12 bytes
            (
                ["commutator"],
                dict(small_commutator_config(), grid={"dim": 3, "points_per_axis": 2048}),
                "config error: grid: 15 state-sized arrays at N=2048 in 3D take about 1030792151040 bytes",
            ),
            # 3 + 10 arrays at the finest of the resolutions: 8.9e11 bytes
            (
                ["fields", "audit"],
                audit_config(dim=3, resolutions=[16, 64, 2048]),
                "config error: resolutions: 13 state-sized arrays at N=2048 in 3D take about 893353197568 bytes",
            ),
        ],
        ids=["commutator", "fields_audit"],
    )
    def test_study_grid_beyond_memory_refused_while_parsing(self, tmp_path, monkeypatch, capsys, command, cfg, message):
        for target in ("advdiff.commutators.convergence_study", "advdiff.cli._parse_scalar_datum", "advdiff.library.estimate_integrability"):
            monkeypatch.setattr(target, lambda *a, **k: pytest.fail("reached a grid beyond memory"))
        out = tmp_path / "out"
        assert main([*command, "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    def test_modulated_shear_simulate_refused_before_compute(self, tmp_path, monkeypatch):
        monkeypatch.setattr("advdiff.solver.solve", lambda *a, **k: pytest.fail("solve reached a field singular at t = 0"))
        command, cfg, _ = BAD_CONFIGS["modulated_shear_simulate"]
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "command, cfg",
        [
            # the study samples b at the midpoints of its time nodes, never at t = 0
            (["commutator"], dict(small_commutator_config(), field=MODULATED_SHEAR, expect={})),
            # the audit samples b at half a period
            (["fields", "audit"], audit_config(field=MODULATED_SHEAR, p_values=[2.0])),
        ],
        ids=["commutator", "fields_audit"],
    )
    def test_modulated_shear_accepted_outside_simulate(self, tmp_path, command, cfg):
        out = tmp_path / "out"
        assert main([*command, "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "manifest.json").is_file()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "commutator", "regime_map", "fields_audit"])
    def test_threads_below_one_refused_before_compute(self, tmp_path, monkeypatch, capsys, command, threads):
        for target in ("advdiff.solver.solve", "advdiff.commutators.convergence_study", "advdiff.regimes.emit_region_map", "advdiff.library.estimate_integrability"):
            monkeypatch.setattr(target, lambda *a, **k: pytest.fail("computed before the threads check"))
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


# What a warm run's tracemalloc peak leaves out, in state arrays: the caches a
# first run fills (spectral cores, kernel multipliers; up to 1.7 measured) and
# pocketfft's scratch for an inverse transform (about 0.5, by peak RSS).
UNSEEN_ARRAYS = 2.5


class TestMemoryCounts:
    """The counts of ``_check_fits`` cover every catalog field at two grids per dimension."""

    def peak(self, tmp_path, argv, cfg, grid) -> float:
        cfg_path = write_config(tmp_path, "cfg.json", cfg)
        return peak_state_arrays(lambda: main([*argv, "--config", cfg_path, "--out", str(tmp_path / "out")]), grid)

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("dim,n", [(2, 128), (2, 256), (3, 32), (3, 64)])
    def test_simulate_count_is_an_upper_bound(self, tmp_path, name, dim, n):
        cfg = simulate_config(
            grid={"dim": dim, "points_per_axis": n}, field={"name": name},
            initial_datum={"kind": "sine", "mode": [1] + [0] * (dim - 1)},
            solver={"t_final": 1e-4, "dt": 1e-4}, outputs={"diagnostics_csv": True, "snapshots": False},
        )
        peak = self.peak(tmp_path, ["simulate"], cfg, TorusGrid(dim, n))
        assert peak + UNSEEN_ARRAYS <= advdiff.cli._SIMULATE_STATE_ARRAYS

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("dim,n", [(2, 256), (2, 512), (3, 32), (3, 64)])
    def test_audit_count_is_an_upper_bound(self, tmp_path, name, dim, n):
        cfg = audit_config(field={"name": name}, dim=dim, p_values=[2.0, 4.0], resolutions=[n // 4, n // 2, n])
        peak = self.peak(tmp_path, ["fields", "audit"], cfg, TorusGrid(dim, n))
        assert peak + UNSEEN_ARRAYS <= dim + advdiff.cli._AUDIT_STATE_ARRAYS

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("dim,n", [(2, 256), (2, 512), (3, 32), (3, 64)])
    @pytest.mark.parametrize("levels", [2, 8])
    def test_commutator_count_is_an_upper_bound(self, tmp_path, name, dim, n, levels):
        # The finest level sits at the resolvable floor.  The kernel multiplier
        # cache is cleared before each run, so the measured peak holds them.
        study = {"delta0": max(0.5, 1.5 * 2 ** (levels - 1) / n), "levels": levels}
        cfg = dict(small_commutator_config(**study), grid={"dim": dim, "points_per_axis": n}, field={"name": name}, expect={})
        cfg_path = write_config(tmp_path, "cfg.json", cfg)

        def run():
            kernel_multiplier.cache_clear()
            assert main(["commutator", "--config", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK

        peak = peak_state_arrays(run, TorusGrid(dim, n))
        assert peak + UNSEEN_ARRAYS <= dim + advdiff.cli._COMMUTATOR_STATE_ARRAYS + levels


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

    def run_map(self, tmp_path, out, resolution):
        cfg_path = write_config(tmp_path, "map.json", {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": resolution})
        return main(["regime", "map", "--config", cfg_path, "--out", str(out)])

    def test_region_map_is_written_as_it_is_formatted(self, tmp_path):
        # The 256^2 map's map.csv and map.svg take 7 MB; a warm request
        # holds about one row of their text at a time.
        out = tmp_path / "map"
        assert self.run_map(tmp_path, out, 256) == EXIT_OK
        tracemalloc.start()
        try:
            assert self.run_map(tmp_path, out, 256) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out / "map.csv").stat().st_size + (out / "map.svg").stat().st_size > 7_000_000
        assert peak < 1_000_000

    def test_failure_mid_stream_leaves_target_unchanged(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "map"
        assert self.run_map(tmp_path, out, 16) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing_svg(rm):
            yield "<svg>\n"
            raise OSError("disk full")

        monkeypatch.setattr(advdiff.regimes, "region_map_svg", failing_svg)
        assert self.run_map(tmp_path, out, 17) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o failure: disk full")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(tmp_path.glob(".tmp-run-*"))

    def test_out_of_memory_exits_numerical(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the state")

        monkeypatch.setattr("advdiff.solver.solve", exhausted)
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
        monkeypatch.setattr("advdiff.solver.solve", lambda *a, **k: pytest.fail("computed before refusing the target"))
        assert self.run(tmp_path, out) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o failure:") and "Traceback" not in err
        if target == "file":
            assert out.read_text() == "notes"
        else:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert not list(tmp_path.glob(".tmp-run-*"))

    def test_uncreatable_parent_refused_before_compute(self, tmp_path, monkeypatch, capsys):
        # the stage is made before the compute, beside the output directory
        blocker = tmp_path / "notes"
        blocker.write_text("notes")
        monkeypatch.setattr("advdiff.solver.solve", lambda *a, **k: pytest.fail("computed before staging the output"))
        assert self.run(tmp_path, blocker / "run") == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o failure:") and "Traceback" not in err
        assert blocker.read_text() == "notes"
        assert not list(tmp_path.glob(".tmp-run-*"))


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_CONFIGS = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S) if '"kind"' in block]


def readme_ids(configs) -> list[str]:
    """Each config's kind, numbered from the second config of that kind on (the recipes)."""
    ids = []
    for cfg in configs:
        count = sum(cfg["kind"] == other["kind"] for other in configs[: len(ids)])
        ids.append(cfg["kind"] if count == 0 else f"{cfg['kind']}-{count + 1}")
    return ids


KIND_COMMANDS = {"simulate": ["simulate"], "commutator": ["commutator"], "regime-map": ["regime", "map"], "field-audit": ["fields", "audit"]}


class _ReachedCompute(Exception):
    pass


# The first function each command's compute calls, on the module the command reads it from.
COMPUTE_ENTRIES = ("advdiff.solver.solve", "advdiff.commutators.convergence_study", "advdiff.regimes.emit_region_map", "advdiff.library.integrability_card")


@pytest.mark.parametrize("cfg", README_CONFIGS, ids=readme_ids(README_CONFIGS))
def test_readme_config_examples_parse(tmp_path, monkeypatch, cfg):
    def reached(*args, **kwargs):
        raise _ReachedCompute

    for target in COMPUTE_ENTRIES:
        monkeypatch.setattr(target, reached)
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    with pytest.raises(_ReachedCompute):
        main([*KIND_COMMANDS[cfg["kind"]], "--config", cfg_path, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["simulate"], simulate_config()),
        (["commutator"], small_commutator_config()),
        (["fields", "audit"], audit_config()),
        (["regime", "map"], {"kind": "regime-map", "d": 3, "resolution": 16}),
    ],
    ids=["simulate", "commutator", "fields_audit", "regime_map"],
)
def test_manifest_versions_are_the_imported_libraries(tmp_path, argv, cfg):
    # the versions of what the command computes with, read from the loaded modules
    import scipy

    out = tmp_path / "out"
    assert main([*argv, "--config", write_config(tmp_path, "cfg.json", cfg), "--out", str(out)]) == EXIT_OK
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    if argv == ["regime", "map"]:  # numpy and scipy are loaded in this process, but the map uses neither
        assert set(versions) == {"advdiff", "python"}
    else:
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__


@pytest.mark.parametrize(
    "argv, cfg",
    [(["simulate"], simulate_config()), (["commutator"], small_commutator_config()), (["fields", "audit"], audit_config())],
    ids=["simulate", "commutator", "fields_audit"],
)
def test_threads_set_the_workers_of_every_transform(tmp_path, monkeypatch, argv, cfg):
    import types

    import advdiff.spectral

    workers = []
    kernel = advdiff.spectral._pocketfft

    def spied(transform):
        def call(*args):
            workers.append(args[-1])  # the kernel's last argument is its thread count
            return transform(*args)

        return call

    monkeypatch.setattr(advdiff.spectral, "_pocketfft", types.SimpleNamespace(r2c=spied(kernel.r2c), c2r=spied(kernel.c2r)))
    cfg_path = write_config(tmp_path, "cfg.json", cfg)
    assert main([*argv, "--config", cfg_path, "--out", str(tmp_path / "out"), "--threads", "3"]) == EXIT_OK
    assert workers and set(workers) == {3}
    assert advdiff.spectral._workers == 1  # restored when the compute ends


def test_readme_shows_a_config_of_every_kind():
    assert {cfg["kind"] for cfg in README_CONFIGS} == set(KIND_COMMANDS)


# The benchmark's request generator, executed from source (no bytecode is written next to it).
BENCH_WORKLOADS = runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_benchmark_requests_parse(tmp_path, monkeypatch, name):
    def reached(*args, **kwargs):
        raise _ReachedCompute

    for target in COMPUTE_ENTRIES:
        monkeypatch.setattr(target, reached)
    wl = BENCH_WORKLOADS[name]
    cfg_path = pathlib.Path(write_config(tmp_path, "cfg.json", wl.config(0)))
    with pytest.raises(_ReachedCompute):
        main(wl.argv(cfg_path, tmp_path / "out"))


# Small valid configs; the fuzz below replaces or deletes a few of their values.
FUZZ_BASES = {
    "simulate": (
        ["simulate"],
        {
            "kind": "simulate",
            "seed": 1,
            "grid": {"dim": 2, "points_per_axis": 8},
            "field": {"name": "taylor_green", "params": {"amplitude": 1.0}},
            "initial_datum": {"kind": "gaussian_bump", "center": [0.5, 0.5], "width": 0.25, "amplitude": 1.0},
            "solver": {"t_final": 0.004, "dt": 0.001, "record_every": 2, "mollify_u0": 0.5},
            "outputs": {"diagnostics_csv": True, "snapshots": True},
        },
    ),
    "commutator": (["commutator"], small_commutator_config()),
    "regime map": (["regime", "map"], {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": 16}),
    "fields audit": (["fields", "audit"], audit_config()),
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
