"""Smoke test: every script in ``scripts/`` runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "commutator_rates": ["--n", "32", "--levels", "2", "--delta0", "0.2", "--out", "{tmp}"],
    "energy_budget_demo": ["--n", "16", "--t-final", "0.01", "--dt", "1e-3", "--out", "{tmp}"],
    "regime_figures": ["--resolution", "16", "--out", "{tmp}"],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_exits_zero(tmp_path, name):
    args = [a.format(tmp=tmp_path / "out") for a in SCRIPTS[name]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
