"""The benchmark's workloads: the configs it generates and the checks it applies.

Each workload turns a variant number into an advdiff config and checks the
output directory of a request against ``reference.json``, which
``make_reference.py`` records from the program.  The benchmark seed picks
the variants; the program sees only the config.  This module imports no
numpy, so the benchmark's own import span covers the package's whole import.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Seeds of the random data recorded in reference.json; request i of a run
# with benchmark seed s uses variant (s + i) mod VARIANTS.
VARIANTS = 32

# Relative tolerance against the recorded reference.  Not bit-equality: a
# different FFT library or a real-to-complex layout changes roundoff.
REL_TOL = 1e-9
ABS_TOL = 1e-12

GRID_N = 256  # points per axis of the simulate and commutator grids
SIM_DT = 1e-4
SIM_STEPS = 60
SIM_RECORD_EVERY = 10
COMMUTATOR_LEVELS = 5
MAP_RESOLUTION = 256


class Workload:
    """One benchmark workload: config generation, argv and output checks."""

    name = ""
    command: tuple[str, ...] = ()
    uses_variants = True
    largest_array_bytes = 0

    def config(self, variant: int) -> dict:
        raise NotImplementedError

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [*self.command, "--config", str(config_path), "--out", str(out_dir), "--threads", "1"]

    def outputs(self, out_dir: Path) -> dict:
        """What the reference records for one request's output directory."""
        raise NotImplementedError

    def check(self, out_dir: Path, variant: int, reference: dict) -> list[str]:
        """Problems with one request's outputs; an empty list means it passed."""
        problems = []
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            if manifest.get("all_gates_pass") is not True:
                failed = sorted(k for k, ok in manifest.get("gates", {}).items() if not ok)
                problems.append(f"gates failed: {failed}")
            problems += self._check(out_dir, self.outputs(out_dir), reference[self.key(variant)])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    def key(self, variant: int) -> str:
        return str(variant) if self.uses_variants else "fixed"

    def _check(self, out_dir: Path, got: dict, want: dict) -> list[str]:
        raise NotImplementedError

    def facts(self, out_dir: Path) -> dict:
        """Exact per-request counts read from the outputs, for the trace metrics."""
        # manifest.json is left out: it records the wall time, so its length varies.
        written = sum(p.stat().st_size for p in out_dir.iterdir() if p.name != "manifest.json")
        return {"steps": 0, "levels": 0, "bytes": written}


def _close(got, want) -> bool:
    return len(got) == len(want) and all(
        math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL) for g, w in zip(got, want)
    )


class Simulate(Workload):
    name = "simulate"
    command = ("simulate",)
    largest_array_bytes = 16 * GRID_N**2  # one complex128 spectrum

    def config(self, variant: int) -> dict:
        return {
            "kind": "simulate",
            "seed": variant,
            "grid": {"dim": 2, "points_per_axis": GRID_N},
            "field": {"name": "taylor_green", "params": {"amplitude": 1.0}},
            "initial_datum": {"kind": "random_bandlimited", "max_mode": 8, "amplitude": 1.0},
            "solver": {"t_final": SIM_DT * SIM_STEPS, "dt": SIM_DT, "rk_order": 4, "record_every": SIM_RECORD_EVERY},
            "outputs": {"diagnostics_csv": True, "snapshots": True},
        }

    def outputs(self, out_dir: Path) -> dict:
        rows = (out_dir / "diagnostics.csv").read_text().splitlines()
        return {"final_row": [float(v) for v in rows[-1].split(",")]}

    def _check(self, out_dir: Path, got: dict, want: dict) -> list[str]:
        problems = []
        snapshots = sorted(out_dir.glob("snapshot_*.torf"))
        if len(snapshots) != SIM_STEPS // SIM_RECORD_EVERY + 1:
            problems.append(f"{len(snapshots)} snapshots")
        size = 32 + 8 * GRID_N**2
        if any(p.stat().st_size != size for p in snapshots):
            problems.append("snapshot of the wrong size")
        if self.facts(out_dir)["steps"] != SIM_STEPS:
            problems.append("wrong number of diagnostics rows")
        if not _close(got["final_row"], want["final_row"]):
            problems.append(f"final diagnostics row {got['final_row']} != reference {want['final_row']}")
        return problems

    def facts(self, out_dir: Path) -> dict:
        rows = (out_dir / "diagnostics.csv").read_text().splitlines()
        return {**super().facts(out_dir), "steps": len(rows) - 2}  # header and t=0 row


class CommutatorRough(Workload):
    name = "commutator-rough"
    command = ("commutator",)
    largest_array_bytes = 16 * GRID_N**2

    def config(self, variant: int) -> dict:
        return {
            "kind": "commutator",
            "seed": variant,
            "grid": {"dim": 2, "points_per_axis": GRID_N},
            "field": {"name": "power_singularity", "params": {"exponent": 1.25}},
            "w": {"kind": "random_bandlimited", "max_mode": 8, "amplitude": 1.0},
            "study": {
                "delta0": 0.1,
                "levels": COMMUTATOR_LEVELS,
                "profile": "gaussian_periodized",
                "norm": "L2_Hminus1",
                "t_final": 1.0,
                "time_samples": 1,
            },
            "expect": {"decay": True},
        }

    def outputs(self, out_dir: Path) -> dict:
        rows = (out_dir / "decay.csv").read_text().splitlines()[1:]
        verdict = json.loads((out_dir / "verdict.json").read_text())
        return {
            "norms": [float(r.split(",")[1]) for r in rows],
            "verdict": verdict["verdict"],
            "fitted_rate": verdict["fitted_rate"],
        }

    def _check(self, out_dir: Path, got: dict, want: dict) -> list[str]:
        problems = []
        if got["verdict"] != "decay":
            problems.append(f"verdict {got['verdict']!r}")
        if not _close(got["norms"], want["norms"]):
            problems.append(f"norms {got['norms']} != reference {want['norms']}")
        if got["fitted_rate"] is None or not _close([got["fitted_rate"]], [want["fitted_rate"]]):
            problems.append(f"fitted rate {got['fitted_rate']} != reference {want['fitted_rate']}")
        return problems

    def facts(self, out_dir: Path) -> dict:
        rows = (out_dir / "decay.csv").read_text().splitlines()
        return {**super().facts(out_dir), "levels": len(rows) - 1}


class RegimeMap(Workload):
    name = "regime-map"
    command = ("regime", "map")
    uses_variants = False  # the oracle is exact logic with no random input

    def config(self, variant: int) -> dict:
        return {"kind": "regime-map", "d": 3, "alpha": "inf", "resolution": MAP_RESOLUTION}

    def outputs(self, out_dir: Path) -> dict:
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("map.csv", "map.svg")}

    def _check(self, out_dir: Path, got: dict, want: dict) -> list[str]:
        return [f"{name} sha256 {got[name]} != reference" for name in want if got.get(name) != want[name]]


WORKLOADS = {w.name: w for w in (Simulate(), CommutatorRough(), RegimeMap())}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
