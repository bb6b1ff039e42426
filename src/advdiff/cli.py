"""Command-line entry point: experiment configs, manifests, reproducible runs.

Subcommands: ``simulate``, ``commutator``, ``regime classify|map``,
``fields list|audit``.  ``regime classify`` and ``fields list`` only print;
the others take a strict JSON config (unknown keys are rejected), which alone
decides what is computed, and a required ``--out``, where it is published.
They run through ``run_config``, the one writer of files, which publishes the
artifacts plus a manifest recording the config hash, tolerances and
per-invariant pass/fail.  Exit codes: 0 all gates pass, 1 gate failure,
2 schema violation, 3 numerical abort or out of memory, 4 I/O failure.

Importing this module loads only what parsing the command line needs, and
the ``regime`` commands load no numpy or scipy: each function imports what
else it uses in its own body.  A runner imports, while it parses, every
module its compute and render use, and ``run_config`` hashes the config
before compute, so no module loads after compute starts: the objects an
import creates live for the whole process and would otherwise pin the
memory that compute has freed beneath them.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .errors import SolverAbort

__all__ = ["main", "SchemaError", "run_config", "run_simulate", "run_commutator", "run_regime_map", "run_field_audit"]

EXIT_OK = 0
EXIT_GATES = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_MISSING = object()
_NUMBER = (int, float)


class SchemaError(ValueError):
    """Config does not match the strict schema."""


# ----------------------------------------------------------------- schema --


def _check(value, kinds, where: str):
    """``value`` if it is one of ``kinds``: true/false are not numbers, and a float
    must be finite unless the key also takes text (a regime exponent, e.g. "inf")."""
    names = kinds if isinstance(kinds, tuple) else (kinds,)
    # bool subclasses int, so true/false pass isinstance(value, int)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in names):
        raise SchemaError(f"{where}: expected {'/'.join(k.__name__ for k in names)}, got {type(value).__name__}")
    if isinstance(value, float) and str not in names and not math.isfinite(value):
        raise SchemaError(f"{where}: must be finite, got {value}")
    return value


def _take(block: dict, key: str, kinds, default=_MISSING, context: str = "config"):
    if key in block:
        return _check(block.pop(key), kinds, f"{context}.{key}")
    if default is not _MISSING:
        return default
    raise SchemaError(f"{context}: missing required key {key!r}")


def _take_list(block: dict, key: str, item_kinds, default=_MISSING, context: str = "config") -> list:
    items = _take(block, key, list, default, context)
    return [_check(item, item_kinds, f"{context}.{key}[{i}]") for i, item in enumerate(items)]


def _done(block: dict, context: str) -> None:
    if block:
        raise SchemaError(f"{context}: unknown keys {sorted(block)}")


def _load_config(path: Path, expected_kind: str) -> dict:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    kind = raw.get("kind")
    if kind != expected_kind:
        raise SchemaError(f"{path}: kind must be {expected_kind!r}, got {kind!r}")
    return raw


def _parse_grid(block, context="grid") -> TorusGrid:
    from .grid import TorusGrid

    block = dict(block)
    dim = _take(block, "dim", int, context=context)
    n = _take(block, "points_per_axis", int, context=context)
    _done(block, context)
    return TorusGrid(dim, n)


def _check_fits(grid: TorusGrid, arrays: int, context: str = "grid") -> None:
    """Refuse a grid on which ``arrays`` float64 arrays of its size would not fit in physical memory."""
    need = 8 * arrays * grid.size
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise SchemaError(
            f"{context}: {arrays} state-sized arrays at N={grid.points_per_axis} in {grid.dim}D take about "
            f"{need} bytes, more than the {memory} bytes of physical memory"
        )


def _parse_field(block, dim: int, context="field") -> FieldSpec | None:
    """The catalog field of ``block`` (None stays None), checked for a ``dim``-dimensional grid."""
    from .library import FieldSpec, check_dim

    if block is None:
        return None
    block = dict(block)
    name = _take(block, "name", str, context=context)
    params = _take(block, "params", dict, default={}, context=context)
    _done(block, context)
    for key, value in params.items():
        _check(value, _NUMBER, f"{context}.params.{key}")
    spec = FieldSpec(name, params)
    check_dim(spec, dim)
    return spec


def _rng(cfg: dict) -> np.random.Generator:
    """The random-datum generator, seeded by the config's ``seed``."""
    import numpy as np

    return np.random.default_rng(_take(cfg, "seed", int, default=0))


def _parse_scalar_datum(block, grid: TorusGrid, rng: np.random.Generator, band: int, context="initial_datum") -> ScalarField:
    """The datum of ``block``, refused if a mode has some |k_j| > ``band`` (more than its consumer keeps)."""
    import numpy as np

    from .grid import ScalarField, wrapped_radius_sq

    block = dict(block)
    kind = _take(block, "kind", str, context=context)
    amplitude = float(_take(block, "amplitude", _NUMBER, default=1.0, context=context))
    if kind == "sine":
        mode = _take_list(block, "mode", int, context=context)
        phase = float(_take(block, "phase", _NUMBER, default=0.0, context=context))
        _done(block, context)
        if len(mode) != grid.dim:
            raise SchemaError(f"{context}: mode must have {grid.dim} entries")
        if max(map(abs, mode)) > band:
            raise SchemaError(f"{context}.mode: each |k| must be <= {band} at N={grid.points_per_axis}, got {mode}")
        coords = grid.coordinate_mesh()
        arg = np.zeros(grid.shape)
        for k, c in zip(mode, coords):
            arg = arg + 2.0 * np.pi * float(k) * c
        return ScalarField(grid, amplitude * np.sin(arg + phase))
    if kind == "constant":
        value = float(_take(block, "value", _NUMBER, default=1.0, context=context))
        _done(block, context)
        return ScalarField.constant(grid, value)
    if kind == "gaussian_bump":
        center = _take_list(block, "center", _NUMBER, default=[0.5] * grid.dim, context=context)
        given = "width" in block
        width = float(_take(block, "width", _NUMBER, default=0.1, context=context))
        _done(block, context)
        if len(center) != grid.dim:
            raise SchemaError(f"{context}: center must have {grid.dim} entries")
        if not width > 0.0:
            raise SchemaError(f"{context}.width: must be positive, got {width}")
        if width < 2.0 * grid.spacing:  # narrower bumps lose a visible share of their L^2 to the 2/3 mask
            got = width if given else f"the default {width}; set a wider width"
            raise SchemaError(f"{context}.width: must be >= 2 grid cells ({2.0 * grid.spacing:g}) at N={grid.points_per_axis}, got {got}")
        r_sq = wrapped_radius_sq(grid, [float(c) for c in center])
        return ScalarField(grid, amplitude * np.exp(-r_sq / (2.0 * width**2)))
    if kind == "random_bandlimited":
        max_mode = _take(block, "max_mode", int, default=4, context=context)
        _done(block, context)
        nyquist = grid.points_per_axis // 2
        if not 0 <= max_mode < nyquist:
            raise SchemaError(f"{context}.max_mode: must lie in [0, {nyquist}) at N={grid.points_per_axis}, got {max_mode}")
        if max_mode > band:
            raise SchemaError(f"{context}.max_mode: must be <= {band} at N={grid.points_per_axis}, got {max_mode}")
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


def _parse_solver(block, grid: TorusGrid, context="solver") -> SolverConfig:
    from .mollify import Mollifier, check_resolvable
    from .solver import SolverConfig

    block = dict(block)
    kwargs = {
        "t_final": float(_take(block, "t_final", _NUMBER, context=context)),
        "mollifier_profile": _take(block, "mollifier_profile", str, default="gaussian_periodized", context=context),
        "no_approximation": _take(block, "no_approximation", bool, default=False, context=context),
        "record_every": _take(block, "record_every", int, default=1, context=context),
    }
    for name in ("dt", "cfl_safety", "mollify_b", "mollify_u0"):
        v = _take(block, name, _NUMBER, default=None, context=context)
        kwargs[name] = float(v) if v is not None else None
    rk_order = _take(block, "rk_order", int, default=4, context=context)  # the scheme is RK4; older configs name it
    if rk_order != 4:
        raise SchemaError(f"{context}.rk_order: must be 4, got {rk_order}")
    _done(block, context)
    config = SolverConfig(**kwargs)
    for delta in (config.mollify_b, config.mollify_u0):
        if delta is not None:
            check_resolvable(Mollifier(config.mollifier_profile, delta), grid)
    return config


# -------------------------------------------------------------- manifests --


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _check_target(out_dir: Path) -> None:
    """Refuse an output path that is not absent, an empty directory or a previous run."""
    if out_dir.exists() and not (out_dir.is_dir() and ((out_dir / "manifest.json").is_file() or not any(out_dir.iterdir()))):
        raise FileExistsError(f"{out_dir}: refusing to replace what is neither an empty directory nor a previous run")


@contextlib.contextmanager
def _publish(out_dir: Path):
    """Stage a sibling of ``out_dir``; on a clean exit, write the files put in the yielded dict there and rename them into place.

    A payload is ``bytes``, a ``str``, or an iterable of ``str`` chunks,
    which is written chunk by chunk as it yields, in the text mode of
    ``Path.write_text``, so the whole file is never held in memory.

    The stage is made on entry, before the compute: the first ``mkdtemp``
    creates ``tempfile``'s process-lifetime name generator, which made after
    the compute would sit above the heap the compute freed and pin it.  A
    previous run is moved into the stage and deleted with it; if any step
    fails, ``out_dir`` is left as it was.  The stage is always removed.
    """
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".tmp-run-", dir=out_dir.parent))
    try:
        files: dict[str, str | bytes | Iterable[str]] = {}
        yield files
        _check_target(out_dir)  # again: the directory may have changed during the compute
        new, old = stage / "run", stage / "previous"
        new.mkdir()
        for name, payload in files.items():
            if isinstance(payload, bytes):
                (new / name).write_bytes(payload)
            elif isinstance(payload, str):
                (new / name).write_text(payload)
            else:
                with (new / name).open("w") as f:
                    f.writelines(payload)
        if out_dir.exists():
            out_dir.rename(old)
        try:
            new.rename(out_dir)
        except OSError:
            if old.exists():
                old.rename(out_dir)
            raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _manifest(
    raw_config: dict,
    config_sha256: str,
    versions: dict[str, str],
    grid: TorusGrid | None,
    tolerances: dict,
    gates: dict[str, bool],
    wall: float,
    outputs,
    metrics: dict,
) -> str:
    gates = {name: bool(ok) for name, ok in gates.items()}
    doc = {
        "config": raw_config,
        "config_sha256": config_sha256,
        "versions": versions,
        "grid": None if grid is None else {"dim": grid.dim, "points_per_axis": grid.points_per_axis},
        "tolerances": tolerances,
        "gates": gates,
        "all_gates_pass": all(gates.values()),
        "metrics": metrics,
        "wall_time_s": wall,
        "outputs": sorted(outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- runners --
# ``run_<kind>(cfg)`` pops its keys from ``cfg`` and returns
# (grid, tolerances, compute); ``compute()`` runs the work and the gates and
# returns (gates, metrics, render); ``render()`` returns {file name: payload},
# a payload being what ``_publish`` writes: bytes, a str or an iterable of str chunks.

_DIAG_COLUMNS = ("t", "l1", "l2", "l4", "linf", "grad_l2_sq_cum", "energy_lhs", "mean", "beta_arctan")


def _diagnostics_csv(traj: Trajectory) -> str:
    rows = zip(*(traj.diagnostics[name] for name in _DIAG_COLUMNS))
    lines = [",".join(_DIAG_COLUMNS), *(",".join(map(_fmt, row)) for row in rows)]
    return "\n".join(lines) + "\n"


# Roundoff slack of the a-priori gates, which check exact inequalities; the manifest records it.
_SIMULATE_TOLERANCES = {"e1_slack": 1e-8, "e2_slack": 1e-8, "beta_slack": 1e-8, "mean_drift": 1e-12}


# State-sized arrays that a run holds at once.  Each count is an upper bound:
# the largest warm tracemalloc peak over the catalog (simulate 19.49, audit
# d + 6.36, a 2-level commutator study d + 8.15 with its kernel multipliers)
# plus 2.5 for the caches a first run fills and pocketfft's inverse scratch,
# pinned by ``TestMemoryCounts``.  A commutator study adds one array per level
# for that level's cached kernel multiplier, which takes (N/2 + 1)/N of one.
_SIMULATE_STATE_ARRAYS = 25
_COMMUTATOR_STATE_ARRAYS = 10
_AUDIT_STATE_ARRAYS = 10


def _simulate_gates(traj: Trajectory) -> dict[str, bool]:
    import numpy as np

    from .solver import LQ_COLUMNS, REGISTERED_BETAS, beta_dissipation

    tol = _SIMULATE_TOLERANCES
    diag = traj.diagnostics
    gates: dict[str, bool] = {}
    for name in LQ_COLUMNS:
        gates[f"e1_{name}"] = diag[name].max() <= diag[name][0] + tol["e1_slack"]
    gates["e2_dissipation"] = diag["grad_l2_sq_cum"][-1] <= 0.5 * diag["l2"][0] ** 2 + tol["e2_slack"]
    for beta in REGISTERED_BETAS:
        column = f"beta_{beta}"
        gates[column] = beta_dissipation(traj, beta) <= tol["beta_slack"] * max(diag[column][0], 1e-30)
    mean = diag["mean"]
    gates["mean_conserved"] = np.abs(mean - mean[0]).max() <= tol["mean_drift"] * max(1.0, abs(mean[0]))
    return gates


def _heat_kernel_error(datum: dict, field, traj: Trajectory) -> float | None:
    """Pointwise error against the exact heat kernel, for pure-diffusion
    single-mode runs where the integrating factor is exact.  The reference is
    the solver's own initial state, so a mollified datum is compared with itself."""
    import numpy as np

    if field is not None or datum.get("kind") != "sine":
        return None
    k_sq = float(sum(float(k) ** 2 for k in datum["mode"]))
    decay = math.exp(-4.0 * math.pi**2 * k_sq * traj.t_final)
    exact = decay * traj.states[0].values
    return float(np.max(np.abs(traj.final_state.values - exact)))


def run_simulate(cfg: dict):
    """``simulate``: solve from the initial datum and gate the a-priori bounds."""
    import dataclasses

    from .fieldio import field_bytes
    from .solver import solve
    from .spectral import _dealias_band

    grid = _parse_grid(_take(cfg, "grid", dict))
    _check_fits(grid, _SIMULATE_STATE_ARRAYS)
    field = _parse_field(_take(cfg, "field", (dict, type(None)), default=None), grid.dim)
    if field is not None and field.time_dependent and field.param("modulation_exponent") > 0.0:  # |b(t)| ~ t^-beta
        raise SchemaError(f"field: {field.name} with modulation_exponent > 0 is singular at t = 0, where simulate starts")
    datum = _take(cfg, "initial_datum", dict)
    u0 = _parse_scalar_datum(datum, grid, _rng(cfg), band=_dealias_band(grid.points_per_axis))  # the modes the solver keeps
    solver_cfg = _parse_solver(_take(cfg, "solver", dict), grid)
    outputs_block = dict(_take(cfg, "outputs", dict, default={}))
    write_diag = _take(outputs_block, "diagnostics_csv", bool, default=True, context="outputs")
    write_snaps = _take(outputs_block, "snapshots", bool, default=False, context="outputs")
    _done(outputs_block, "outputs")
    if not write_snaps:  # keep only the first and last state, which _heat_kernel_error reads
        solver_cfg = dataclasses.replace(solver_cfg, record_every=sys.maxsize)

    def compute():
        traj = solve(field, u0, solver_cfg)
        gates = _simulate_gates(traj)
        metrics = {}
        heat_error = _heat_kernel_error(datum, field, traj)
        if heat_error is not None:
            gates["heat_kernel_exact"] = heat_error <= 1e-10
            metrics["heat_kernel_error"] = heat_error

        def render():
            files: dict[str, str | bytes] = {}
            if write_diag:
                files["diagnostics.csv"] = _diagnostics_csv(traj)
            if write_snaps:
                for t, state in zip(traj.times, traj.states):
                    step = int(round(t / traj.dt))
                    files[f"snapshot_{step:06d}.torf"] = field_bytes(state)
            return files

        return gates, metrics, render

    return grid, _SIMULATE_TOLERANCES, compute


def run_commutator(cfg: dict):
    """``commutator``: the kernel-scale decay study of the commutator norm."""
    from .commutators import CommutatorStudyConfig, convergence_study
    from .mollify import dyadic_schedule

    grid = _parse_grid(_take(cfg, "grid", dict))
    field = _parse_field(_take(cfg, "field", dict), grid.dim)
    study = dict(_take(cfg, "study", dict))
    delta0 = float(_take(study, "delta0", _NUMBER, context="study"))
    levels = _take(study, "levels", int, context="study")
    profile = _take(study, "profile", str, default="gaussian_periodized", context="study")
    norm = _take(study, "norm", str, default="L1_spacetime", context="study")
    t_final = float(_take(study, "t_final", _NUMBER, default=1.0, context="study"))
    time_samples = _take(study, "time_samples", int, default=1, context="study")
    _done(study, "study")
    _check_fits(grid, grid.dim + _COMMUTATOR_STATE_ARRAYS + levels)
    w = _parse_scalar_datum(_take(cfg, "w", dict), grid, _rng(cfg), band=grid.points_per_axis // 2 - 1, context="w")  # below Nyquist
    expect_block = dict(_take(cfg, "expect", dict, default={}))
    expect_decay = _take(expect_block, "decay", (bool, type(None)), default=None, context="expect")
    _done(expect_block, "expect")
    study_cfg = CommutatorStudyConfig(
        b_source=field, w_source=w, delta_schedule=dyadic_schedule(delta0, levels), mollifier_profile=profile,
        norm=norm, t_final=t_final, time_samples=time_samples,
    )

    def compute():
        result = convergence_study(study_cfg)
        decay = result.verdict in ("decay", "exact")
        gates = {"study_completed": True}
        if expect_decay is not None:
            gates["decay_as_expected"] = decay == expect_decay

        def render():
            lines = ["delta,norm,ratio"]
            for i, (d, n) in enumerate(zip(result.deltas, result.norms)):
                ratio = "" if i == 0 else _fmt(result.ratios[i - 1])
                lines.append(f"{_fmt(d)},{_fmt(n)},{ratio}")
            verdict = {
                "decay": decay,
                "verdict": result.verdict,
                "fitted_rate": result.fitted_rate,
                "norm_type": result.norm_type,
            }
            return {
                "decay.csv": "\n".join(lines) + "\n",
                "verdict.json": json.dumps(verdict, sort_keys=True, indent=2) + "\n",
            }

        return gates, {}, render

    return grid, {}, compute


def run_regime_map(cfg: dict):
    """``regime map``: rasterize the (1/p, 1/q) region map at one (d, alpha)."""
    from .regimes import check_resolution, emit_region_map, reciprocal_exponent, region_map_csv, region_map_svg

    d = _take(cfg, "d", int)
    inv_alpha = reciprocal_exponent(_take(cfg, "alpha", (int, float, str), default="inf"))
    resolution = _take(cfg, "resolution", int, default=64)
    check_resolution(resolution)

    def compute():
        rm = emit_region_map(d, inv_alpha, resolution)
        gates = {"coherent_cells": True}  # coherence is checked on construction of every report
        return gates, {}, lambda: {"map.csv": region_map_csv(rm), "map.svg": region_map_svg(rm)}

    return None, {}, compute


def run_field_audit(cfg: dict):
    """``fields audit``: gate quadrature trends of the integral of |b|^p against the card."""
    from .library import estimate_integrability, integrability_card, refinement_grids

    dim = _take(cfg, "dim", int, default=2)
    field = _parse_field(_take(cfg, "field", dict), dim)
    p_values = [float(p) for p in _take_list(cfg, "p_values", _NUMBER)]
    if not p_values or min(p_values) < 1.0:
        raise SchemaError(f"config.p_values: need at least one p, each >= 1, got {p_values}")
    if len({f"{p:g}" for p in p_values}) < len(p_values):  # one gate per p, named by p:g
        raise SchemaError(f"config.p_values: repeated p (to 6 significant digits) in {p_values}")
    resolutions = _take_list(cfg, "resolutions", int)
    _check_fits(refinement_grids(resolutions, dim)[-1], dim + _AUDIT_STATE_ARRAYS, context="resolutions")

    def compute():
        card = integrability_card(field)
        rows = ["p,slope,verdict,consistent_with_card"]
        gates = {}
        for p, report in zip(p_values, estimate_integrability(field, p_values, resolutions, dim=dim)):
            if p < card.p_finite_below:  # p is finite, so this holds for every p when the card says inf
                consistent = report.verdict != "diverging"
            else:
                consistent = report.verdict != "converging"
            gates[f"card_consistent_p{p:g}"] = consistent
            rows.append(f"{_fmt(p)},{_fmt(report.slope)},{report.verdict},{int(consistent)}")
        return gates, {}, lambda: {"trends.csv": "\n".join(rows) + "\n"}

    return None, {}, compute


# Config-run commands: (config kind, runner).
_RUNS = {
    "simulate": ("simulate", run_simulate),
    "commutator": ("commutator", run_commutator),
    "regime map": ("regime-map", run_regime_map),
    "fields audit": ("field-audit", run_field_audit),
}


def run_config(command: str, config: str | Path, out: str | Path, threads: int = 1) -> tuple[dict[str, bool], Path]:
    """Run one config command (a key of ``_RUNS``): parse, compute and gate, publish to ``out``.

    ``threads`` sets ``spectral.set_workers``, the pocketfft threads of each
    transform in the compute; no output depends on it.  Returns the gates and
    the output directory.  A bad config raises a ``ValueError``, a numerical
    abort ``SolverAbort`` and an I/O failure ``OSError``; nothing is published then.
    """
    import hashlib

    if threads < 1:
        raise SchemaError(f"threads must be >= 1, got {threads}")
    kind, runner = _RUNS[command]
    raw = _load_config(Path(config), kind)
    config_sha256 = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
    cfg = dict(raw)
    cfg.pop("kind")
    out_dir = Path(out)
    grid, tolerances, compute = runner(cfg)
    _done(cfg, "config")
    _check_target(out_dir)
    # The versions of what the command computes with; the numeric runners have imported numpy and scipy.
    versions = {"advdiff": __version__, "python": sys.version.split()[0]}
    workers = contextlib.nullcontext()  # the regime map has no transforms and loads no scipy
    if kind != "regime-map":
        from .spectral import set_workers

        versions |= {lib: sys.modules[lib].__version__ for lib in ("numpy", "scipy")}
        workers = set_workers(threads)

    with _publish(out_dir) as files:
        start = time.perf_counter()
        with workers:
            gates, metrics, render = compute()
        wall = time.perf_counter() - start

        files |= render()
        files["manifest.json"] = _manifest(raw, config_sha256, versions, grid, tolerances, gates, wall, files.keys() | {"manifest.json"}, metrics)
    return gates, out_dir


# -------------------------------------------------------------- commands --


def _fields_list_text() -> str:
    from .library import catalog_entries

    rows = catalog_entries()
    header = f"{'name':20s} {'time':5s} {'p_finite_below':22s} {'alpha_time':12s} description"
    lines = [header, "-" * len(header)]
    for row in rows:
        p_col = "inf" if math.isinf(row["p_finite_below"]) else f"{row['p_finite_below']:g}"
        if row["name"] == "power_singularity":
            p_col = f"2/(a-1) = {p_col}"
        alpha_col = "inf" if math.isinf(row["alpha_time"]) else f"1/beta = {row['alpha_time']:g}"
        time_col = "yes" if row["time_dependent"] else "no"
        lines.append(f"{row['name']:20s} {time_col:5s} {p_col:22s} {alpha_col:12s} {row['description']}")
    return "\n".join(lines) + "\n"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advdiff", description="advection-diffusion laboratory on the torus")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(subparsers, name, run, help):
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="pocketfft threads per transform (default 1); outputs never depend on it")

    add_run(sub, "simulate", "simulate", "run the advection-diffusion solver")
    add_run(sub, "commutator", "commutator", "run a commutator decay study")

    p_reg = sub.add_parser("regime", help="well-posedness regime oracle")
    reg_sub = p_reg.add_subparsers(dest="regime_command", required=True)
    p_cls = reg_sub.add_parser("classify", help="classify one exponent point")
    p_cls.add_argument("--d", type=int, required=True)
    p_cls.add_argument("--alpha", default="inf")
    p_cls.add_argument("--p", default="inf")
    p_cls.add_argument("--q", default="inf")
    add_run(reg_sub, "map", "regime map", "rasterize a (1/p, 1/q) region map")

    p_fields = sub.add_parser("fields", help="velocity-field catalog")
    f_sub = p_fields.add_subparsers(dest="fields_command", required=True)
    f_sub.add_parser("list", help="print the catalog with integrability cards")
    add_run(f_sub, "audit", "fields audit", "audit integrability cards by quadrature trends")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _command(args)
    except ValueError as exc:  # SchemaError, and any library ValueError a bad config reaches
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SolverAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical abort: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def _command(args) -> int:
    if args.command == "fields" and args.fields_command == "list":
        sys.stdout.write(_fields_list_text())
        return EXIT_OK
    if args.command == "regime" and args.regime_command == "classify":
        from .regimes import classify_exponents

        report = classify_exponents(args.d, args.alpha, args.p, args.q)
        sys.stdout.write(json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n")
        return EXIT_OK
    gates, out_dir = run_config(args.run, args.config, args.out, args.threads)
    failed = sorted(name for name, ok in gates.items() if not ok)
    print(f"run complete: {out_dir} ({len(gates)} gates, {'all pass' if not failed else 'FAILED: ' + ', '.join(failed)})")
    return EXIT_GATES if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
