"""The package surface: each public name has one import path, its owner module's,
and a caller in the package; each public class member a reader in the package,
and no class overloads an operator; every global name a module reads is bound in it;
each command loads only the modules it uses, none after its compute starts;
and one function, ``cli._publish``, writes to the file system, in the package
and in every other program file outside ``tests/`` and ``perfbench/``."""

import ast
import builtins
import functools
import importlib
import json
import os
import pkgutil
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import advdiff

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "advdiff").glob("*.py"))


def fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports the package from ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def loaded_modules(statement: str) -> set[str]:
    """The keys of ``sys.modules`` after ``statement`` runs, its stdout discarded, in a fresh interpreter."""
    code = f"import contextlib, io, sys\nwith contextlib.redirect_stdout(io.StringIO()):\n    {statement}\nprint('\\n'.join(sys.modules))"
    return set(fresh_stdout(code).split())


def test_regimes_imports_no_numeric_stack():
    loaded = {name.split(".")[0] for name in loaded_modules("import advdiff.regimes")}
    assert not loaded & {"numpy", "scipy"}


@pytest.mark.parametrize(
    "statement",
    [
        "import advdiff.cli",
        "from advdiff.cli import main; assert main(['regime', 'classify', '--d', '3', '--p', '2', '--q', '4']) == 0",
        "from advdiff.cli import main; assert main(['regime', 'map', '--config', {config!r}, '--out', {out!r}, '--threads', '2']) == 0",
    ],
    ids=["import", "regime_classify", "regime_map"],
)
def test_cli_regime_paths_load_no_numeric_stack(tmp_path, statement):
    config = tmp_path / "map.json"
    config.write_text('{"kind": "regime-map", "d": 3, "resolution": 16}')
    loaded = loaded_modules(statement.format(config=str(config), out=str(tmp_path / "out")))
    assert {name.split(".")[0] for name in loaded} & {"numpy", "scipy"} == set()
    assert "importlib.metadata" not in loaded  # the regime map manifest names advdiff and python only
    assert "advdiff.cli" in loaded


# Each numeric command's modules, and its count of random.Random instances,
# at the moment its compute starts and at exit, in a fresh interpreter.
COMPUTE_MODULES = """
import contextlib, gc, io, json, random, sys
import advdiff.cli as cli

at_compute = []
randoms_at_compute = []

def randoms():
    return sum(isinstance(obj, random.Random) for obj in gc.get_objects())

def observed(runner):
    def run(cfg):
        grid, tolerances, compute = runner(cfg)

        def compute_observed():
            at_compute.append(sorted(sys.modules))
            randoms_at_compute.append(randoms())
            return compute()

        return grid, tolerances, compute_observed
    return run

cli._RUNS = {{command: (kind, observed(runner)) for command, (kind, runner) in cli._RUNS.items()}}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{
    "code": code, "at_compute": at_compute, "at_exit": sorted(sys.modules),
    "randoms_at_compute": randoms_at_compute, "randoms_at_exit": randoms(),
}}))
"""

NUMERIC_RUNS = {
    "simulate": (
        ["simulate"],
        {
            "kind": "simulate", "grid": {"dim": 2, "points_per_axis": 16}, "field": {"name": "taylor_green"},
            "initial_datum": {"kind": "sine", "mode": [1, 0]}, "solver": {"t_final": 0.01, "dt": 0.005},
            "outputs": {"snapshots": True},
        },
    ),
    "commutator": (
        ["commutator"],
        {
            "kind": "commutator", "grid": {"dim": 2, "points_per_axis": 16}, "field": {"name": "taylor_green"},
            "w": {"kind": "sine", "mode": [1, 0]}, "study": {"delta0": 0.2, "levels": 2},
        },
    ),
    "fields_audit": (
        ["fields", "audit"],
        {"kind": "field-audit", "field": {"name": "shear"}, "p_values": [2.0], "resolutions": [16, 32, 64]},
    ),
}


@pytest.fixture(scope="module")
def observe(tmp_path_factory):
    """What ``COMPUTE_MODULES`` reports for a run of ``NUMERIC_RUNS``, one fresh interpreter per run."""

    @functools.cache
    def observe(run: str) -> dict:
        argv, cfg = NUMERIC_RUNS[run]
        tmp = tmp_path_factory.mktemp(run)
        config = tmp / "cfg.json"
        config.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(config), "--out", str(tmp / "out")]
        return json.loads(fresh_stdout(COMPUTE_MODULES.format(argv=argv)))

    return observe


@pytest.mark.parametrize("run", sorted(NUMERIC_RUNS))
def test_numeric_commands_load_nothing_after_compute_starts(observe, run):
    # a module loaded after compute pins the heap that compute freed beneath it
    seen = observe(run)
    assert seen["code"] == 0
    assert len(seen["at_compute"]) == 1
    assert set(seen["at_exit"]) - set(seen["at_compute"][0]) == set()
    if run != "commutator":  # only the study uses advdiff.commutators
        assert "advdiff.commutators" not in seen["at_exit"]
    # the package ports the one Simpson rule a command runs; its library-only callers import scipy's
    assert "scipy.integrate" not in seen["at_exit"]


@pytest.mark.parametrize("run", sorted(NUMERIC_RUNS))
def test_numeric_commands_create_no_random_after_compute_starts(observe, run):
    # tempfile's name generator, made by the first mkdtemp, is a process-lifetime
    # random.Random: made after compute, it pinned the heap compute freed beneath it
    seen = observe(run)
    assert seen["code"] == 0
    assert seen["randoms_at_compute"] == [seen["randoms_at_exit"]]


@pytest.mark.parametrize(
    "module, unwanted",
    [
        # scipy.integrate brings scipy.optimize, scipy.linalg and scipy.sparse; advdiff.solver ports the
        # cumulative Simpson rule simulate runs, and the library-only callers of simpson import scipy's in their bodies
        ("advdiff.cli", {"scipy.integrate", "scipy.optimize", "scipy.sparse"}),
        ("advdiff.solver", {"scipy.integrate"}),
        ("advdiff.commutators", {"scipy.integrate"}),
        # xml.sax.saxutils brought urllib.request; html.escape does not
        ("advdiff.regimes", {"urllib.request"}),
    ],
)
def test_import_leaves_out(module, unwanted):
    assert not loaded_modules(f"import {module}") & unwanted


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


def unbound_globals(source: str, filename: str) -> set[str]:
    """The global names ``source`` reads that no import, ``def``, ``class`` or assignment in it binds, builtins apart."""
    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported() or s.is_namespace()}
    read = set()

    def walk(table):
        for s in table.get_symbols():
            if s.is_referenced() and (table is top or s.is_global()):
                read.add(s.get_name())
            if s.is_declared_global() and s.is_assigned():
                bound.add(s.get_name())
        for child in table.get_children():
            walk(child)

    walk(top)
    return read - bound - set(dir(builtins))


@pytest.mark.parametrize(
    "source, unbound",
    [
        ("import numpy as np\nx = np.pi", set()),
        ("def f():\n    return np.pi", {"np"}),
        ("def f():\n    import numpy as np\n    return np.pi", set()),
        ("def f():\n    global n\n    n = 1\ndef g():\n    return n + len([])", set()),
        ("class C:\n    x = y", {"y"}),
    ],
)
def test_unbound_globals_guard(source, unbound):
    assert unbound_globals(source, "<guard>") == unbound


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_global_name_is_bound(path):
    # a name bound only at run time (through globals() or a module __getattr__) is one no reader can follow
    assert unbound_globals(path.read_text(), str(path)) == set()


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(advdiff.__path__):
        module = importlib.import_module(f"advdiff.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], info.name


# The public names nothing in src/ reads: library entry points and their class
# members ("module.Class.member"), each kept for the test it serves.  Any other
# unread ``__all__`` name or public class member is dead.
LIBRARY_ONLY = {
    "commutators.commutator": "test_acceptance.py::test_criterion_07_divergence_form_identities",
    "commutators.commutator_divform": "test_acceptance.py::test_criterion_07_divergence_form_identities",
    "commutators.commutator_divb_correction": "test_acceptance.py::test_criterion_07_divergence_form_identities",
    "commutators.mollified_energy_coupling": "test_acceptance.py::test_criterion_08_energy_commutator_coupling",
    "solver.weak_residual": "test_solver.py::TestWeakResidual",
    "library.estimate_time_integrability": "test_library.py::test_modulated_shear_alpha_beta_criterion",
    "library.CATALOG": "test_library.py::test_catalog_listing",
    "fieldio.read_field": "test_fieldio.py::test_roundtrip_exact",
    "commutators.CouplingRecord.gap": "test_acceptance.py::test_criterion_08_energy_commutator_coupling",
    "solver.TestFunction.separable": "test_solver.py::TestWeakResidual",
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
    assert unread == {name for name in LIBRARY_ONLY if name.count(".") == 1}
    for served in LIBRARY_ONLY.values():
        file, test = served.split("::")
        defined = {n.name for n in ast.walk(ast.parse((ROOT / "tests" / file).read_text())) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert test in defined, served


def class_members(source: str):
    """(class, member) for every method, property, classmethod, dataclass field and class attribute ``source`` defines."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield cls.name, item.target.id
            elif isinstance(item, ast.Assign):
                yield from ((cls.name, t.id) for t in item.targets if isinstance(t, ast.Name))


def member_reads(source: str) -> set[str]:
    """Every attribute ``source`` reads, and every string constant in it.

    Strings count because code reads members by name too: ``RegimeReport``'s
    flags through ``getattr`` over ``FLAG_NAMES``.  A keyword argument or an
    assignment to an attribute writes a member and does not count.
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_members(sources: dict[str, str]) -> set[str]:
    """"module.Class.member" for each public class member that no text in ``sources`` (module name to source) reads."""
    read = set().union(*(member_reads(source) for source in sources.values()))
    return {
        f"{module}.{cls}.{name}"
        for module, source in sources.items()
        for cls, name in class_members(source)
        if not name.startswith("_") and name not in read
    }


@pytest.mark.parametrize(
    "source, unread",
    [
        ("class A:\n    x: int\n    def f(self):\n        return self.x", {"m.A.f"}),
        ("class A:\n    x: int\nA(x=1)", {"m.A.x"}),
        ("class A:\n    @property\n    def p(self):\n        return 1\ngetattr(A(), 'p')", set()),
        ("class A:\n    @classmethod\n    def make(cls):\n        return cls()\n    def _helper(self):\n        pass", {"m.A.make"}),
    ],
)
def test_member_reads_guard(source, unread):
    assert unread_members({"m": source}) == unread


def test_every_public_member_has_a_reader():
    # a field, method or property that only tests read is a second API beside the one the commands use
    unread = unread_members({path.stem: path.read_text() for path in SOURCES})
    assert unread == {name for name in LIBRARY_ONLY if name.count(".") == 2}


BINARY_OPERATORS = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow", "lshift", "rshift", "and", "xor", "or")
OPERATOR_DUNDERS = {f"__{side}{op}__" for op in BINARY_OPERATORS for side in ("", "r", "i")} | {"__neg__", "__pos__", "__abs__", "__invert__"}


def test_no_class_overloads_an_operator():
    # ``a + b`` reads no member by name, so the reader guard cannot see an operator's callers
    overloads = [
        f"{path.stem}.{cls}.{name}"
        for path in SOURCES
        for cls, name in class_members(path.read_text())
        if name in OPERATOR_DUNDERS
    ]
    assert overloads == []


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


def file_writes(source: str):
    """(top-level function, line) of every call in ``source`` that writes to the file system.

    ``dataclasses.replace`` copies a dataclass; every other ``replace`` attribute call counts.
    """
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                copies = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "dataclasses"
                if (isinstance(func, ast.Attribute) and func.attr in WRITE_CALLS and not copies) or opens_for_writing(child):
                    yield owner, child.lineno
            yield from walk(child, owner)

    yield from walk(ast.parse(source), None)


@pytest.mark.parametrize(
    "call, writes",
    [
        ("path.replace(target)", True),
        ("os.replace(a, b)", True),
        ("path.with_suffix('.tmp').replace(path)", True),
        ("dataclasses.replace(cfg, x=1)", False),
        ("open(path)", False),
        ("open(path, 'a')", True),
    ],
)
def test_file_writes_guard(call, writes):
    assert list(file_writes(f"def f():\n    {call}\n")) == ([("f", 2)] if writes else [])


def imports_of(source: str) -> set[str]:
    """The absolute module names that ``source`` imports, ``from`` imports included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_imports_of_guard():
    source = "import importlib\nimport importlib.metadata as md\nfrom importlib import metadata\nfrom . import grid\n"
    assert imports_of(source) == {"importlib", "importlib.metadata"}


def test_no_module_reads_distribution_metadata():
    # the manifest reads __version__ from loaded modules; scipy.fft loads importlib.metadata anyway,
    # so only the source shows a numeric command starting to scan sys.path for versions again
    strays = [path.name for path in sorted((ROOT / "src" / "advdiff").glob("*.py")) if "importlib.metadata" in imports_of(path.read_text())]
    assert strays == []


def program_files() -> list[str]:
    """Every ``*.py`` of the repository outside ``tests/``, ``perfbench/`` and hidden directories, relative to it."""
    paths = (path.relative_to(ROOT) for path in ROOT.rglob("*.py"))
    return sorted(
        path.as_posix() for path in paths
        if path.parts[0] not in ("tests", "perfbench") and not any(part.startswith(".") for part in path.parts)
    )


def test_publish_is_the_only_writer():
    files = program_files()
    assert "src/advdiff/cli.py" in files
    strays = [
        f"{name}:{line} in {owner}"
        for name in files
        for owner, line in file_writes((ROOT / name).read_text())
        if (name, owner) != ("src/advdiff/cli.py", "_publish")
    ]
    assert strays == []
