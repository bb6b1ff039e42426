"""advdiff benchmark: drives the real CLI on one named workload and checks every output.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``; there
is nothing to build.  Requests run one at a time in a closed loop with
``--threads 1`` for ``--seconds``, interleaving two kinds with equal time:
in-process calls of ``advdiff.cli.main`` (``run_s``) and fresh ``advdiff``
interpreters (``cli_wall_s``).  ``setup_s`` is the median of several fresh
interpreters that only ``import advdiff.cli``.  With ``--trace 1`` the two
kinds are untraced and traced in-process calls; the per-layer metrics come
from the traced ones (``tracer.py``), whose spans are written to
``.bench_work/trace-<workload>.csv``.  ``--workload all`` runs every
workload in turn, each in its own process.

Every request's outputs are checked against ``reference.json``; a request
that exits non-zero or fails a check counts in ``failed``.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit, the
sample counts and the machine.  Metric names and units are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

# Single-threaded numerics in this process and every child, so one request
# uses one core and the loop starts no threads beyond nproc.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import FFT_PREFIX, Tracer, self_times  # noqa: E402
from workloads import VARIANTS, WORKLOADS, Workload, load_reference  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5  # timed fresh imports per run, after one untimed one
MIN_REQUESTS = 5  # requests of each kind per run, however long they take
CHILD_TIMEOUT_S = 120
CLI_SNIPPET = "import sys; from advdiff.cli import main; sys.exit(main())"

# Median time of one Calibration() call on the reference machine (2-core
# Xeon, numpy 2.4).  Scaled times are "seconds at that machine speed".
CALIBRATION_REF_S = 0.020


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _scaled(wall: float, before: float, after: float) -> float:
    """Wall seconds rescaled by the calibrations timed just before and after."""
    return wall * 2.0 * CALIBRATION_REF_S / (before + after)


class Calibration:
    """Fixed work, timed between requests, that measures the machine's current speed.

    On the shared 2-core VM this benchmark was written on, the CPU speed
    changes by +-20% in phases lasting seconds (CPU time moves with wall
    time, so it is not steal time).  Every request time is therefore also
    reported scaled by CALIBRATION_REF_S / (mean of the calibrations just
    before and after it).  The work mixes the three kinds the workloads
    do: FFTs, array arithmetic and Python bytecode.  It keeps its own
    references to the numpy functions, so the tracer never sees it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((256, 256)), rng.random((256, 256))
        self.fftn, self.ifftn = np.fft.fftn, np.fft.ifftn

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self.ifftn(self.fftn(self.a))
        for _ in range(20):
            self.a * self.b + self.a
        x, d = 0, {}
        for i in range(60000):
            x += i % 7
            d[i & 1023] = x
        return time.perf_counter() - start


class Session:
    """Issues checked requests of one workload and counts their failures."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = load_reference()[workload.name]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def request(self, main=None, tracer: Tracer | None = None) -> tuple[float, dict]:
        """One request; in-process through ``main`` if given, else a fresh interpreter.

        Returns its wall seconds and the counts read from its outputs.
        """
        index = self.attempted
        self.attempted += 1
        variant = (self.seed + index) % VARIANTS
        config_path = self.dir / f"config-{index}.json"
        config_path.write_text(json.dumps(self.workload.config(variant)))
        out_dir = self.dir / f"out-{index}"
        argv = self.workload.argv(config_path, out_dir)
        if main is not None:
            gc.collect()
            with tracer.request() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(argv)
                except (Exception, SystemExit) as exc:  # a crash is a failed request
                    code = repr(exc)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", CLI_SNIPPET, *argv],
                    env=_child_env(),
                    capture_output=True,
                    timeout=CHILD_TIMEOUT_S,
                )
                code = proc.returncode if proc.returncode == 0 else f"{proc.returncode}: {proc.stderr[-300:]!r}"
            except subprocess.TimeoutExpired:
                code = "timeout"
            elapsed = time.perf_counter() - start
        problems = [f"exit {code}"] if code != 0 else self.workload.check(out_dir, variant, self.reference)
        facts = {} if problems else self.workload.facts(out_dir)
        if problems:
            self.failed += 1
            self.problems.append(f"request {index} (variant {variant}): {'; '.join(problems)}")
        shutil.rmtree(out_dir, ignore_errors=True)
        config_path.unlink()
        return elapsed, facts

    def loop(self, seconds: float, calibrate: Calibration, kinds: dict[str, dict]) -> dict[str, list]:
        """Closed loop: the next request starts when the previous one is done.

        ``kinds`` maps a label to the keyword arguments of ``request``.  The
        kinds are interleaved, each time running the one with the least wall
        time so far, so every kind samples the whole run.  Returns, per
        label, (wall seconds, scaled seconds, counts) of every request.
        """
        deadline = time.perf_counter() + seconds
        out: dict[str, list] = {label: [] for label in kinds}
        spent = dict.fromkeys(kinds, 0.0)
        before = calibrate()
        while True:
            late = time.perf_counter() >= deadline
            pending = [k for k in kinds if not late or len(out[k]) < MIN_REQUESTS]
            if not pending:
                return out
            label = min(pending, key=spent.get)
            wall, facts = self.request(**kinds[label])
            after = calibrate()
            out[label].append((wall, _scaled(wall, before, after), facts))
            spent[label] += wall
            before = after


def setup_seconds(calibrate: Calibration) -> list[tuple[float, float]]:
    """(wall, scaled) seconds of fresh interpreters running ``import advdiff.cli``."""
    cmd = [sys.executable, "-c", "import advdiff.cli"]
    subprocess.run(cmd, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)  # may compile bytecode
    out = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        after = calibrate()
        out.append((wall, _scaled(wall, before, after)))
        before = after
    return out


def layer_metrics(spans, wall: float, facts: dict) -> dict:
    """Per-layer metrics of one traced request."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    for name, start, end, _, _ in spans:
        calls[name] += 1
        busy[name] += end - start
    fft = [s for s in spans if s[0].startswith(FFT_PREFIX)]
    fft_s = sum(end - start for _, start, end, _, _ in fft)
    solves = {i for i, s in enumerate(spans) if s[0] == "solver.solve"}
    steps, levels = facts["steps"], facts["levels"]
    own = self_times(spans)
    return {
        "spectral.fft_calls": len(fft),
        # transforms issued by solve itself (its stepping loop), per RK step
        "spectral.fft_calls_per_step": sum(1 for s in fft if s[3] in solves) / steps if steps else 0.0,
        "spectral.fft_s": fft_s,
        "spectral.fft_share": fft_s / wall,
        "spectral.fft_bytes": sum(s[4] for s in fft),
        "solver.solve_s": busy["solver.solve"],
        "solver.steps": steps,
        "solver.step_ms": 1e3 * busy["solver.solve"] / steps if steps else 0.0,
        "library.instantiate_calls": calls["library.instantiate"],
        "library.instantiate_s": busy["library.instantiate"],
        "spectral.leray_project_s": busy["spectral.leray_project"],
        "spectral.divergence_defect_s": busy["spectral.divergence_defect"],
        "spectral.gradient_s": busy["spectral.gradient"],
        "mollify.calls": calls["mollify.mollify"],
        "mollify.s": busy["mollify.mollify"],
        "commutators.commutator_calls": calls["commutators.commutator"],
        "commutators.commutator_s": busy["commutators.commutator"],
        "commutators.level_s": busy["commutators.convergence_study"] / levels if levels else 0.0,
        "grid.h_norm_s": busy["grid.h_norm"],
        "grid.lp_norm_s": busy["grid.lp_norm"],
        "regimes.classify_calls": calls["regimes.classify"],
        "regimes.emit_region_map_s": busy["regimes.emit_region_map"],
        "regimes.region_map_csv_s": busy["regimes.region_map_csv"],
        "regimes.region_map_svg_s": busy["regimes.region_map_svg"],
        "fieldio.field_bytes_calls": calls["fieldio.field_bytes"],
        "fieldio.field_bytes_s": busy["fieldio.field_bytes"],
        "cli.self_s": sum(t for s, t in zip(spans, own) if s[0].startswith("cli.run_")),
        "cli.bytes_written": facts["bytes"],
    }


def environment(workload: Workload) -> dict:
    """Machine and library facts, read-only from /proc and /sys."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_pinned": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload_largest_array_bytes": workload.largest_array_bytes,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            env[f"cache_L{level}_{kind.lower()}"] = size
    return env


def describe(label: str, samples) -> str:
    """Wall and scaled seconds of a list of (wall, scaled, ...) samples."""
    wall = sorted(s[0] for s in samples)
    scaled = sorted(s[1] for s in samples)
    return (
        f"# {label}: n={len(wall)}; wall median {median(wall):.6g} s (min {wall[0]:.6g}, max {wall[-1]:.6g});"
        f" scaled median {median(scaled):.6g} s (min {scaled[0]:.6g}, max {scaled[-1]:.6g})"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    start = time.perf_counter()
    import advdiff.cli  # noqa: F401  (timed: the in-process import span)

    import_s = time.perf_counter() - start
    main = advdiff.cli.main
    calibrate = Calibration()
    session = Session(workload, seed)
    session.request(main=main)  # warm-up: caches and lazy set-up fill
    lines = [f"# environment {json.dumps(environment(workload), sort_keys=True)}"]

    if not trace:
        setup = setup_seconds(calibrate)
        runs = session.loop(seconds, calibrate, {"warm": {"main": main}, "cli": {}})
        warm, cli = runs["warm"], runs["cli"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": median(s[1] for s in warm),
            "cli_wall_s": median(s[1] for s in cli),
            "setup_s": median(s[1] for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        lines += [
            describe("run_s (warm in-process requests)", warm),
            describe("cli_wall_s (fresh advdiff processes)", cli),
            describe("setup_s (fresh import advdiff.cli)", setup),
        ]
        wanted = spec["end_to_end"]
    else:
        tracer = Tracer()
        runs = session.loop(seconds, calibrate, {"plain": {"main": main}, "traced": {"main": main, "tracer": tracer}})
        plain, traced = runs["plain"], runs["traced"]
        per_request = [
            layer_metrics(spans, wall, facts)
            for spans, (wall, _, facts) in zip(tracer.requests, traced)
            if facts  # a failed request has no counts to read
        ]
        if not per_request:
            per_request = [dict.fromkeys(layer_metrics([], 1.0, {"steps": 0, "levels": 0, "bytes": 0}), 0.0)]
        metrics = {key: median(r[key] for r in per_request) for key in per_request[0]}
        metrics["import.s"] = import_s
        metrics["trace.overhead_ratio"] = median(s[1] for s in traced) / median(s[1] for s in plain)
        tracer.write(WORK / f"trace-{name}.csv")
        lines += [
            describe("untraced run_s", plain),
            describe("traced run_s", traced),
            f"# spans: {sum(map(len, tracer.requests))} in {len(tracer.requests)} requests,"
            f" written to {(WORK / f'trace-{name}.csv').relative_to(ROOT)}",
        ]
        wanted = spec["per_layer"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"] for m in wanted}
    failed_ratio = session.failed / session.attempted
    lines += [f"{key} {metrics[key]!r} {units[key]}" for key in names]
    lines.append(f"failed_ratio {failed_ratio!r} ratio ({session.failed}/{session.attempted} requests)")
    lines += [f"# FAILED {p}" for p in session.problems[:10]]
    shutil.rmtree(session.dir, ignore_errors=True)
    return {
        "lines": lines,
        "result": {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in names},
        },
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own import and memory peak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = proc.stdout.strip().splitlines()
        print(f"## {name}")
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "advdiff" / "cli.py").is_file() or not SPEC.is_file():
        print(f"benchmark: no advdiff sources under {SRC} (or no {SPEC.name}); run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every process it starts, so the
    # calibration measures the core the requests run on.
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload == "all":
        result = run_all(args)
    else:
        done = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print("\n".join(done["lines"]))
        result = done["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
