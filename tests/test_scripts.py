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


def run_script(tmp_path, name, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_exits_zero(tmp_path, name):
    proc = run_script(tmp_path, name, [a.format(tmp=tmp_path / "out") for a in SCRIPTS[name]])
    assert proc.returncode == 0, proc.stderr


def test_commutator_rates_refuses_zero_threads(tmp_path):
    proc = run_script(tmp_path, "commutator_rates", ["--n", "16", "--levels", "2", "--delta0", "0.5", "--threads", "0"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "usage:" in proc.stderr


def test_regime_figures_requires_out(tmp_path):
    proc = run_script(tmp_path, "regime_figures", ["--resolution", "16"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "usage:" in proc.stderr and "--out" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_regime_figures_refuses_small_resolution(tmp_path):
    # refused while parsing the flags, before --out is made
    proc = run_script(tmp_path, "regime_figures", ["--resolution", "8", "--out", str(tmp_path / "out")])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "usage:" in proc.stderr and "resolution must be >= 16" in proc.stderr
    assert list(tmp_path.iterdir()) == []
