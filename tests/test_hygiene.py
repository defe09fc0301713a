"""Static hygiene of the package sources, checked with the stdlib ast module.

Two rules keep dead code from piling up: every import is used in its own
module, and every top-level function or class, and every method of a
package class other than a dunder, is referenced somewhere in the package
(a name only its own tests call is reached by no pipeline).  A third keeps
the benchmark tracer's targets in step with the package.  A fourth keeps
scipy off the import path: it may be imported only inside a function, and
importing the command-line module must leave it unloaded.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import dbarlab

PACKAGE = Path(dbarlab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree) -> list:
    """(bound name, line) for every import that binds a name in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((alias.asname or alias.name, node.lineno))
    return bound


def test_sources_found():
    assert PACKAGE.joinpath("cli.py") in SOURCES


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        tree = _parse(path)
        used = _referenced(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree)
                   if name not in used]
    assert unused == []


def _package_names():
    """Every parsed source with its tree, and every name referenced in the package."""
    trees = [_parse(path) for path in SOURCES]
    return zip(SOURCES, trees), set().union(*(_referenced(tree) for tree in trees))


def test_every_top_level_name_is_referenced():
    sources, used = _package_names()
    unreferenced = [
        f"{path.name}: {node.name}"
        for path, tree in sources
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unreferenced == []


def test_every_method_is_referenced():
    sources, used = _package_names()
    unreferenced = [
        f"{path.name}: {cls.name}.{node.name}"
        for path, tree in sources
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert unreferenced == []


def _tracer_targets() -> dict:
    """TARGETS of the tracer, read from its source: span name -> (module, attr, class)."""
    for node in _parse(TRACER).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                ast.literal_eval(key): tuple(ast.literal_eval(e) for e in value.elts[:3])
                for key, value in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert "dbar.rescaled_solution_record" in targets
    missing = []
    for span, (module, attr, cls) in targets.items():
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{span}: {exc}")
    assert missing == []


def _module_level_imports(tree) -> list:
    """(module, line) for every import that runs when the module itself is imported."""
    deferred = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if id(node) in deferred:
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
    return found


def test_no_module_level_scipy_import():
    eager = [f"{path.name}:{line} {module}"
             for path in SOURCES for module, line in _module_level_imports(_parse(path))
             if module.split(".")[0] == "scipy"]
    assert eager == []


def test_cli_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dbarlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
