"""Command-line entry point: experiment configs, manifests, reproducible runs.

Subcommands: ``simulate``, ``commutator``, ``regime classify|map``,
``fields list|audit``.  Configs are strict JSON documents (unknown keys are
rejected); every run writes its artifacts plus a manifest recording the
config hash, tolerances and per-invariant pass/fail into a temp directory
that is moved into place only on success.  Exit codes: 0 all gates pass,
1 gate failure, 2 schema violation, 3 numerical abort, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .commutators import (
    NORM_TYPES,
    CommutatorStudyConfig,
    convergence_study,
)
from .fieldio import field_bytes
from .grid import ScalarField, TorusGrid, wrapped_displacement
from .library import (
    FieldSpec,
    catalog_entries,
    estimate_integrability,
    integrability_card,
)
from .mollify import PROFILES, dyadic_schedule
from .regimes import classify_exponents, emit_region_map, reciprocal_exponent, region_map_csv, region_map_svg
from .solver import LQ_EXPONENTS, SolverAbort, SolverConfig, Trajectory, solve

__all__ = ["main", "SchemaError", "run_simulate", "run_commutator", "run_regime_map", "run_field_audit"]

EXIT_OK = 0
EXIT_GATES = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_MISSING = object()


class SchemaError(ValueError):
    """Config does not match the strict schema."""


# ----------------------------------------------------------------- schema --


def _take(block: dict, key: str, kinds, default=_MISSING, context: str = "config"):
    if key in block:
        value = block.pop(key)
    elif default is not _MISSING:
        return default
    else:
        raise SchemaError(f"{context}: missing required key {key!r}")
    names = kinds if isinstance(kinds, tuple) else (kinds,)
    # bool subclasses int, so true/false pass isinstance(value, int)
    if kinds is not None and (not isinstance(value, kinds) or (isinstance(value, bool) and bool not in names)):
        raise SchemaError(
            f"{context}.{key}: expected {'/'.join(k.__name__ for k in names)}, got {type(value).__name__}"
        )
    return value


def _done(block: dict, context: str) -> None:
    if block:
        raise SchemaError(f"{context}: unknown keys {sorted(block)}")


def _load_config(path: Path, expected_kind: str) -> dict:
    try:
        raw = json.loads(path.read_text())
    except OSError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    kind = raw.get("kind")
    if kind != expected_kind:
        raise SchemaError(f"{path}: kind must be {expected_kind!r}, got {kind!r}")
    return raw


def _parse_grid(block, context="grid") -> TorusGrid:
    block = dict(block)
    dim = _take(block, "dim", int, context=context)
    n = _take(block, "points_per_axis", int, context=context)
    _done(block, context)
    try:
        return TorusGrid(dim, n)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _parse_field(block, context="field") -> FieldSpec | None:
    if block is None:
        return None
    block = dict(block)
    name = _take(block, "name", str, context=context)
    params = _take(block, "params", dict, default={}, context=context)
    _done(block, context)
    try:
        return FieldSpec(name, params)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _parse_scalar_datum(block, grid: TorusGrid, rng: np.random.Generator, context="initial_datum") -> ScalarField:
    block = dict(block)
    kind = _take(block, "kind", str, context=context)
    amplitude = float(_take(block, "amplitude", (int, float), default=1.0, context=context))
    if kind == "sine":
        mode = _take(block, "mode", list, context=context)
        phase = float(_take(block, "phase", (int, float), default=0.0, context=context))
        _done(block, context)
        if len(mode) != grid.dim:
            raise SchemaError(f"{context}: mode must have {grid.dim} entries")
        coords = grid.coordinate_mesh()
        arg = np.zeros(grid.shape)
        for k, c in zip(mode, coords):
            arg = arg + 2.0 * np.pi * float(k) * c
        return ScalarField(grid, amplitude * np.sin(arg + phase))
    if kind == "constant":
        value = float(_take(block, "value", (int, float), default=1.0, context=context))
        _done(block, context)
        return ScalarField.constant(grid, value)
    if kind == "gaussian_bump":
        center = _take(block, "center", list, default=[0.5] * grid.dim, context=context)
        width = float(_take(block, "width", (int, float), default=0.1, context=context))
        _done(block, context)
        if len(center) != grid.dim:
            raise SchemaError(f"{context}: center must have {grid.dim} entries")
        disp = wrapped_displacement(grid.coordinate_mesh(), [float(c) for c in center])
        r_sq = np.zeros(grid.shape)
        for w in disp:
            r_sq = r_sq + np.broadcast_to(w, grid.shape) ** 2
        return ScalarField(grid, amplitude * np.exp(-r_sq / (2.0 * width**2)))
    if kind == "random_bandlimited":
        max_mode = _take(block, "max_mode", int, default=4, context=context)
        _done(block, context)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        modes = range(-max_mode, max_mode + 1)
        for k in itertools.product(modes, repeat=grid.dim):
            coeffs[k] = rng.normal() + 1j * rng.normal()
        vals = np.fft.ifftn(coeffs).real
        norm = math.sqrt(float(np.mean(vals**2)))
        if norm > 0:
            vals = vals * (amplitude / norm)
        return ScalarField(grid, vals)
    raise SchemaError(f"{context}: unknown initial datum kind {kind!r}")


def _parse_solver(block, context="solver") -> SolverConfig:
    block = dict(block)
    kwargs = {
        "t_final": float(_take(block, "t_final", (int, float), context=context)),
        "rk_order": _take(block, "rk_order", int, default=4, context=context),
        "diffusion": _take(block, "diffusion", str, default="integrating_factor", context=context),
        "mollifier_profile": _take(block, "mollifier_profile", str, default="gaussian_periodized", context=context),
        "no_approximation": _take(block, "no_approximation", bool, default=False, context=context),
        "dealias": _take(block, "dealias", bool, default=True, context=context),
        "record_every": _take(block, "record_every", int, default=1, context=context),
    }
    dt = _take(block, "dt", (int, float), default=None, context=context)
    cfl = _take(block, "cfl_safety", (int, float), default=None, context=context)
    for name in ("mollify_b", "mollify_u0"):
        v = _take(block, name, (int, float), default=None, context=context)
        kwargs[name] = float(v) if v is not None else None
    _done(block, context)
    try:
        return SolverConfig(dt=float(dt) if dt is not None else None, cfl_safety=float(cfl) if cfl is not None else None, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _parse_tolerances(block, context="tolerances") -> dict[str, float]:
    defaults = {"e1_slack": 1e-8, "e2_slack": 1e-8, "beta_slack": 1e-8, "mean_drift": 1e-12}
    if block is None:
        return defaults
    block = dict(block)
    out = {}
    for name, dv in defaults.items():
        out[name] = float(_take(block, name, (int, float), default=dv, context=context))
    _done(block, context)
    return out


# -------------------------------------------------------------- manifests --


def _config_hash(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_atomically(out_dir: Path, files: dict[str, str | bytes]) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-run-", dir=out_dir.parent))
    try:
        for name, payload in files.items():
            target = tmp / name
            if isinstance(payload, bytes):
                target.write_bytes(payload)
            else:
                target.write_text(payload)
        for name in files:
            (tmp / name).replace(out_dir / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _manifest(
    raw_config: dict,
    grid: TorusGrid | None,
    tolerances: dict,
    gates: dict[str, bool],
    wall: float,
    outputs,
    metrics: dict | None = None,
) -> str:
    gates = {name: bool(ok) for name, ok in gates.items()}
    doc = {
        "config": raw_config,
        "config_sha256": _config_hash(raw_config),
        "versions": {
            "advdiff": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "grid": None if grid is None else {"dim": grid.dim, "points_per_axis": grid.points_per_axis},
        "tolerances": tolerances,
        "gates": gates,
        "all_gates_pass": all(gates.values()),
        "metrics": metrics or {},
        "wall_time_s": wall,
        "outputs": sorted(outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- runners --

_DIAG_COLUMNS = ("t", "l1", "l2", "l4", "linf", "grad_l2_sq_cum", "energy_lhs", "mean", "beta_arctan")


def _diagnostics_csv(traj: Trajectory) -> str:
    lines = [",".join(_DIAG_COLUMNS)]
    for rec in traj.diagnostics:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    rec.t,
                    rec.lq_norms[1.0],
                    rec.lq_norms[2.0],
                    rec.lq_norms[4.0],
                    rec.lq_norms[math.inf],
                    rec.grad_l2_sq_cum,
                    rec.energy_lhs,
                    rec.mean,
                    rec.beta_integrals["arctan"],
                )
            )
        )
    return "\n".join(lines) + "\n"


def _simulate_gates(traj: Trajectory, tol: dict[str, float]) -> dict[str, bool]:
    first = traj.diagnostics[0]
    gates: dict[str, bool] = {}
    for q in LQ_EXPONENTS:
        label = "inf" if math.isinf(q) else f"{q:g}"
        sup = max(rec.lq_norms[q] for rec in traj.diagnostics)
        gates[f"e1_l{label}"] = sup <= first.lq_norms[q] + tol["e1_slack"]
    gates["e2_dissipation"] = traj.diagnostics[-1].grad_l2_sq_cum <= 0.5 * first.lq_norms[2.0] ** 2 + tol["e2_slack"]
    for name in ("half_square", "arctan"):
        series = [rec.beta_integrals[name] for rec in traj.diagnostics]
        worst = max(b - a for a, b in zip(series, series[1:]))
        gates[f"beta_{name}"] = worst <= tol["beta_slack"] * max(series[0], 1e-30)
    drift = max(abs(rec.mean - first.mean) for rec in traj.diagnostics)
    gates["mean_conserved"] = drift <= tol["mean_drift"] * max(1.0, abs(first.mean))
    return gates


def _heat_kernel_error(raw: dict, field, grid: TorusGrid, u0: ScalarField, traj: Trajectory) -> float | None:
    """Pointwise error against the exact heat kernel, for pure-diffusion
    single-mode runs where the integrating factor is exact."""
    datum = raw.get("initial_datum", {})
    if field is not None or datum.get("kind") != "sine":
        return None
    mode = datum.get("mode", [])
    k_sq = float(sum(float(k) ** 2 for k in mode))
    decay = math.exp(-4.0 * math.pi**2 * k_sq * traj.t_final)
    exact = decay * u0.values
    return float(np.max(np.abs(traj.final_state.values - exact)))


def run_simulate(raw: dict, out_dir: Path, threads: int = 1, seed: int | None = None) -> tuple[dict[str, bool], Path]:
    cfg = dict(raw)
    _take(cfg, "kind", str)
    cfg_seed = _take(cfg, "seed", int, default=0)
    seed_value = seed if seed is not None else cfg_seed
    out_cfg = _take(cfg, "output_dir", str, default=None)
    grid = _parse_grid(_take(cfg, "grid", dict))
    field = _parse_field(_take(cfg, "field", (dict, type(None)), default=None))
    rng = np.random.default_rng(seed_value)
    u0 = _parse_scalar_datum(_take(cfg, "initial_datum", dict), grid, rng)
    solver_cfg = _parse_solver(_take(cfg, "solver", dict))
    outputs_block = dict(_take(cfg, "outputs", dict, default={}))
    write_diag = _take(outputs_block, "diagnostics_csv", bool, default=True, context="outputs")
    write_snaps = _take(outputs_block, "snapshots", bool, default=False, context="outputs")
    _done(outputs_block, "outputs")
    tol = _parse_tolerances(_take(cfg, "tolerances", (dict, type(None)), default=None))
    _done(cfg, "config")

    out_dir = Path(out_dir or out_cfg or "run")
    start = time.perf_counter()
    traj = solve(field, u0, solver_cfg)
    gates = _simulate_gates(traj, tol)
    heat_error = _heat_kernel_error(raw, field, grid, u0, traj)
    if heat_error is not None:
        gates["heat_kernel_exact"] = heat_error <= 1e-10
    wall = time.perf_counter() - start

    files: dict[str, str | bytes] = {}
    if write_diag:
        files["diagnostics.csv"] = _diagnostics_csv(traj)
    if write_snaps:
        for t, state in zip(traj.times, traj.states):
            step = int(round(t / traj.dt))
            files[f"snapshot_{step:06d}.torf"] = field_bytes(state)
    metrics = {} if heat_error is None else {"heat_kernel_error": heat_error}
    files["manifest.json"] = _manifest(raw, grid, tol, gates, wall, files.keys() | {"manifest.json"}, metrics)
    _write_atomically(out_dir, files)
    return gates, out_dir


def run_commutator(raw: dict, out_dir: Path, threads: int = 1, seed: int | None = None) -> tuple[dict[str, bool], Path]:
    cfg = dict(raw)
    _take(cfg, "kind", str)
    cfg_seed = _take(cfg, "seed", int, default=0)
    seed_value = seed if seed is not None else cfg_seed
    out_cfg = _take(cfg, "output_dir", str, default=None)
    grid = _parse_grid(_take(cfg, "grid", dict))
    field = _parse_field(_take(cfg, "field", dict))
    rng = np.random.default_rng(seed_value)
    w = _parse_scalar_datum(_take(cfg, "w", dict), grid, rng, context="w")
    study = dict(_take(cfg, "study", dict))
    delta0 = float(_take(study, "delta0", (int, float), context="study"))
    levels = _take(study, "levels", int, context="study")
    profile = _take(study, "profile", str, default="gaussian_periodized", context="study")
    norm = _take(study, "norm", str, default="L1_spacetime", context="study")
    t_final = float(_take(study, "t_final", (int, float), default=1.0, context="study"))
    time_samples = _take(study, "time_samples", int, default=1, context="study")
    _done(study, "study")
    expect_block = dict(_take(cfg, "expect", dict, default={}))
    expect_decay = _take(expect_block, "decay", (bool, type(None)), default=None, context="expect")
    _done(expect_block, "expect")
    _done(cfg, "config")
    if profile not in PROFILES:
        raise SchemaError(f"study.profile must be one of {PROFILES}")
    if norm not in NORM_TYPES:
        raise SchemaError(f"study.norm must be one of {NORM_TYPES}")

    out_dir = Path(out_dir or out_cfg or "commutator_run")
    start = time.perf_counter()
    try:
        study_cfg = CommutatorStudyConfig(
            b_source=field,
            w_source=w,
            delta_schedule=dyadic_schedule(delta0, levels),
            mollifier_profile=profile,
            norm=norm,
            t_final=t_final,
            time_samples=time_samples,
        )
        result = convergence_study(study_cfg, threads=threads)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    wall = time.perf_counter() - start

    lines = ["delta,norm,ratio"]
    for i, (d, n) in enumerate(zip(result.deltas, result.norms)):
        ratio = "" if i == 0 else _fmt(result.ratios[i - 1])
        lines.append(f"{_fmt(d)},{_fmt(n)},{ratio}")
    verdict = {
        "decay": result.verdict in ("decay", "exact"),
        "verdict": result.verdict,
        "fitted_rate": result.fitted_rate,
        "norm_type": result.norm_type,
    }
    gates = {"study_completed": True}
    if expect_decay is not None:
        gates["decay_as_expected"] = verdict["decay"] == expect_decay

    files = {
        "decay.csv": "\n".join(lines) + "\n",
        "verdict.json": json.dumps(verdict, sort_keys=True, indent=2) + "\n",
    }
    files["manifest.json"] = _manifest(raw, grid, {}, gates, wall, files.keys() | {"manifest.json"})
    _write_atomically(out_dir, files)
    return gates, out_dir


def run_regime_map(raw: dict, out_dir: Path, threads: int = 1, seed: int | None = None) -> tuple[dict[str, bool], Path]:
    cfg = dict(raw)
    _take(cfg, "kind", str)
    out_cfg = _take(cfg, "output_dir", str, default=None)
    d = _take(cfg, "d", int)
    alpha = _take(cfg, "alpha", (int, float, str), default="inf")
    resolution = _take(cfg, "resolution", int, default=64)
    _done(cfg, "config")

    out_dir = Path(out_dir or out_cfg or "regime_map")
    start = time.perf_counter()
    try:
        rm = emit_region_map(d, reciprocal_exponent(alpha), resolution)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    gates = {"coherent_cells": True}  # coherence is checked on construction of every report
    wall = time.perf_counter() - start
    files = {
        "map.csv": region_map_csv(rm),
        "map.svg": region_map_svg(rm),
    }
    files["manifest.json"] = _manifest(raw, None, {}, gates, wall, files.keys() | {"manifest.json"})
    _write_atomically(out_dir, files)
    return gates, out_dir


def run_field_audit(raw: dict, out_dir: Path, threads: int = 1, seed: int | None = None) -> tuple[dict[str, bool], Path]:
    cfg = dict(raw)
    _take(cfg, "kind", str)
    out_cfg = _take(cfg, "output_dir", str, default=None)
    field = _parse_field(_take(cfg, "field", dict))
    dim = _take(cfg, "dim", int, default=2)
    p_values = _take(cfg, "p_values", list)
    resolutions = _take(cfg, "resolutions", list)
    _done(cfg, "config")
    if field is None:
        raise SchemaError("field-audit requires a field block")

    out_dir = Path(out_dir or out_cfg or "field_audit")
    start = time.perf_counter()
    card = integrability_card(field)
    rows = ["p,slope,verdict,consistent_with_card"]
    gates = {}
    for p in p_values:
        p = float(p)
        try:
            report = estimate_integrability(field, p, resolutions, dim=dim)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        if math.isinf(card.p_finite_below):
            consistent = report.verdict != "diverging"
        elif p < card.p_finite_below:
            consistent = report.verdict != "diverging"
        else:
            consistent = report.verdict != "converging"
        gates[f"card_consistent_p{p:g}"] = consistent
        rows.append(f"{_fmt(p)},{_fmt(report.slope)},{report.verdict},{int(consistent)}")
    wall = time.perf_counter() - start
    files = {"trends.csv": "\n".join(rows) + "\n"}
    files["manifest.json"] = _manifest(raw, None, {}, gates, wall, files.keys() | {"manifest.json"})
    _write_atomically(out_dir, files)
    return gates, out_dir


# -------------------------------------------------------------- commands --


def _fields_list_text() -> str:
    rows = catalog_entries()
    header = f"{'name':20s} {'time':5s} {'p_finite_below':22s} {'alpha_time':12s} description"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row["name"] == "power_singularity":
            a = row["defaults"]["exponent"]
            p_col = f"2/(a-1) = {2.0 / (a - 1.0):g}"
        else:
            p_col = "inf" if math.isinf(row["p_finite_below"]) else f"{row['p_finite_below']:g}"
        alpha_col = "inf" if math.isinf(row["alpha_time"]) else f"1/beta = {row['alpha_time']:g}"
        time_col = "yes" if row["time_dependent"] else "no"
        lines.append(f"{row['name']:20s} {time_col:5s} {p_col:22s} {alpha_col:12s} {row['description']}")
    return "\n".join(lines) + "\n"


def _cmd_config_run(runner, args) -> int:
    path = Path(args.config)
    kind = {"simulate": "simulate", "commutator": "commutator", "audit": "field-audit"}[args._kind]
    try:
        raw = _load_config(path, kind)
        gates, out_dir = runner(raw, Path(args.out) if args.out else None, threads=args.threads, seed=args.seed)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SolverAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    failed = sorted(name for name, ok in gates.items() if not ok)
    print(f"run complete: {out_dir} ({len(gates)} gates, {'all pass' if not failed else 'FAILED: ' + ', '.join(failed)})")
    return EXIT_OK if not failed else EXIT_GATES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="advdiff", description="advection-diffusion laboratory on the torus")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config output_dir)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_sim = sub.add_parser("simulate", help="run the advection-diffusion solver")
    add_run_flags(p_sim)

    p_com = sub.add_parser("commutator", help="run a commutator decay study")
    add_run_flags(p_com)

    p_reg = sub.add_parser("regime", help="well-posedness regime oracle")
    reg_sub = p_reg.add_subparsers(dest="regime_command", required=True)
    p_cls = reg_sub.add_parser("classify", help="classify one exponent point")
    p_cls.add_argument("--d", type=int, required=True)
    p_cls.add_argument("--alpha", default="inf")
    p_cls.add_argument("--p", default="inf")
    p_cls.add_argument("--q", default="inf")
    p_cls.add_argument("--out", default=None, help="also write the JSON report here")
    p_map = reg_sub.add_parser("map", help="rasterize a (1/p, 1/q) region map")
    p_map.add_argument("--config", default=None, help="regime-map config (alternative to the flags)")
    p_map.add_argument("--d", type=int, default=None)
    p_map.add_argument("--alpha", default="inf")
    p_map.add_argument("--resolution", type=int, default=64)
    p_map.add_argument("--out", default=None, help="SVG output path (flags mode) or output directory (config mode)")
    p_map.add_argument("--threads", type=int, default=1)
    p_map.add_argument("--seed", type=int, default=None)

    p_fields = sub.add_parser("fields", help="velocity-field catalog")
    f_sub = p_fields.add_subparsers(dest="fields_command", required=True)
    f_sub.add_parser("list", help="print the catalog with integrability cards")
    p_audit = f_sub.add_parser("audit", help="audit integrability cards by quadrature trends")
    add_run_flags(p_audit)

    args = parser.parse_args(argv)

    if args.command == "simulate":
        args._kind = "simulate"
        return _cmd_config_run(run_simulate, args)
    if args.command == "commutator":
        args._kind = "commutator"
        return _cmd_config_run(run_commutator, args)
    if args.command == "fields":
        if args.fields_command == "list":
            sys.stdout.write(_fields_list_text())
            return EXIT_OK
        args._kind = "audit"
        return _cmd_config_run(run_field_audit, args)
    if args.command == "regime":
        if args.regime_command == "classify":
            try:
                report = classify_exponents(args.d, args.alpha, args.p, args.q)
            except ValueError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_SCHEMA
            payload = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
            sys.stdout.write(payload)
            if args.out:
                try:
                    Path(args.out).write_text(payload)
                except OSError as exc:
                    print(f"i/o failure: {exc}", file=sys.stderr)
                    return EXIT_IO
            return EXIT_OK
        # regime map: config-driven run (manifest + atomic outputs) or direct flags
        if args.config is not None:
            try:
                raw = _load_config(Path(args.config), "regime-map")
                gates, out_dir = run_regime_map(raw, Path(args.out) if args.out else None)
            except SchemaError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_SCHEMA
            except OSError as exc:
                print(f"i/o failure: {exc}", file=sys.stderr)
                return EXIT_IO
            print(f"run complete: {out_dir}")
            return EXIT_OK if all(gates.values()) else EXIT_GATES
        if args.d is None or args.out is None:
            print("config error: regime map needs either --config or both --d and --out", file=sys.stderr)
            return EXIT_SCHEMA
        try:
            svg_path = Path(args.out)
            rm = emit_region_map(args.d, reciprocal_exponent(args.alpha), args.resolution)
            svg_path.parent.mkdir(parents=True, exist_ok=True)
            svg_path.write_text(region_map_svg(rm))
            svg_path.with_suffix(".csv").write_text(region_map_csv(rm))
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"wrote {svg_path} and {svg_path.with_suffix('.csv')}")
        return EXIT_OK
    parser.error(f"unknown command {args.command}")
    return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
