"""The package surface: each public name has one import path, its owner module's,
and a caller in the package or its scripts; and one function, ``cli._publish``,
writes to the file system."""

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


# The public names nothing in src/ or scripts/ reads: library entry points,
# each kept for the test it serves.  Any other unread ``__all__`` name is dead.
LIBRARY_ONLY = {
    "commutators.commutator": "test_acceptance.py::test_criterion_07_divergence_form_identities",
    "commutators.commutator_divform": "test_acceptance.py::test_criterion_07_divergence_form_identities",
    "commutators.commutator_divb_correction": "test_acceptance.py::test_criterion_07_divergence_form_identities",
    "commutators.mollified_energy_coupling": "test_acceptance.py::test_criterion_08_energy_commutator_coupling",
    "solver.weak_residual": "test_solver.py::TestWeakResidual",
    "library.estimate_time_integrability": "test_library.py::test_modulated_shear_alpha_beta_criterion",
    "library.CATALOG": "test_library.py::test_catalog_listing",
    "fieldio.read_field": "test_fieldio.py::test_roundtrip_exact",
}


def read_names(path: Path) -> set[str]:
    """Every name ``path`` loads, imports or reads as an attribute.

    The strings of an ``__all__`` list are not reads, so exporting a name
    does not count as calling it.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_has_a_caller():
    read = set().union(*(read_names(path) for path in SOURCES))
    unread = set()
    for info in pkgutil.iter_modules(advdiff.__path__):
        module = importlib.import_module(f"advdiff.{info.name}")
        unread |= {f"{info.name}.{name}" for name in module.__all__ if name not in read}
    assert unread == set(LIBRARY_ONLY)
    for served in LIBRARY_ONLY.values():
        file, test = served.split("::")
        defined = {n.name for n in ast.walk(ast.parse((ROOT / "tests" / file).read_text())) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert test in defined, served


# Calls that change the file system: these methods, and ``open`` with a writing mode.
WRITE_CALLS = {"write_text", "write_bytes", "mkdir", "mkdtemp", "rename", "replace", "unlink", "touch", "rmtree"}


def opens_for_writing(call: ast.Call) -> bool:
    """True for ``open(f, mode)`` or ``path.open(mode)`` whose mode is not a read-only literal."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        positional = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        positional = call.args[:1]
    else:
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + positional
    if not modes:  # the default mode, "r"
        return False
    return not isinstance(modes[0], ast.Constant) or any(c in str(modes[0].value) for c in "wax+")


def file_writes(path: Path):
    """(top-level function, line) of every call in ``path`` that writes to the file system."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr in WRITE_CALLS) or opens_for_writing(child):
                    yield owner, child.lineno
            yield from walk(child, owner)

    yield from walk(ast.parse(path.read_text()), None)


def test_publish_is_the_only_writer():
    strays = [
        f"{path.name}:{line} in {owner}"
        for path in sorted((ROOT / "src" / "advdiff").glob("*.py"))
        for owner, line in file_writes(path)
        if (path.name, owner) != ("cli.py", "_publish")
    ]
    assert strays == []
