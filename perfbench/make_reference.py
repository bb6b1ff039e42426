"""Record reference.json: the outputs the benchmark's checks compare against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It runs every variant of every workload once through ``advdiff.cli.main``
and refuses to record a request that exits non-zero or fails a gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCE_PATH, VARIANTS, WORKLOADS  # noqa: E402


def main() -> int:
    from advdiff.cli import main as advdiff_main

    work = ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {}
    try:
        for workload in WORKLOADS.values():
            table = reference[workload.name] = {}
            for variant in range(VARIANTS if workload.uses_variants else 1):
                config_path = work / "config.json"
                config_path.write_text(json.dumps(workload.config(variant)))
                out_dir = work / f"{workload.name}-{variant}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = advdiff_main(workload.argv(config_path, out_dir))
                manifest = json.loads((out_dir / "manifest.json").read_text())
                if code != 0 or not manifest["all_gates_pass"]:
                    print(f"{workload.name} variant {variant}: exit {code}", file=sys.stderr)
                    return 1
                table[workload.key(variant)] = workload.outputs(out_dir)
                shutil.rmtree(out_dir)
            print(f"{workload.name}: {len(table)} reference outputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
