"""The package surface: each public name has one import path, its owner module's."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import advdiff

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "advdiff").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def loaded_modules(statement: str) -> set[str]:
    """The keys of ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"{statement}; import sys; print('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_regimes_imports_no_numeric_stack():
    loaded = {name.split(".")[0] for name in loaded_modules("import advdiff.regimes")}
    assert not loaded & {"numpy", "scipy"}


def test_cli_imports_every_module():
    package = {"advdiff"} | {f"advdiff.{m.name}" for m in pkgutil.iter_modules(advdiff.__path__)}
    loaded = {name for name in loaded_modules("import advdiff.cli") if name.split(".")[0] == "advdiff"}
    assert loaded == package


def advdiff_imports(path: Path):
    """(owner module, imported name) of every ``from <advdiff module> import name`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # only package modules import relatively, one level up
            owner = "advdiff" + (f".{node.module}" if node.module else "")
        elif node.module and node.module.split(".")[0] == "advdiff":
            owner = node.module
        else:
            continue
        for alias in node.names:
            yield owner, alias.name


def test_imported_names_are_public_in_their_owner():
    stray = []
    for path in SOURCES:
        for owner, name in advdiff_imports(path):
            if not name.startswith("_") and name not in getattr(importlib.import_module(owner), "__all__", ()):
                stray.append(f"{path.name}: {owner}.{name}")
    assert stray == []


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(advdiff.__path__):
        module = importlib.import_module(f"advdiff.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], info.name
