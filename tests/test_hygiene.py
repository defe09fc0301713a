"""Static hygiene of the package sources, checked with the stdlib ast module.

Two rules keep dead code from piling up: every import is used in its own
module, and every top-level function or class, and every method of a
package class other than a dunder, is referenced somewhere in the package
(a name only its own tests call is reached by no pipeline).  A third keeps
the benchmark tracer's targets in step with the package.  A fourth keeps
the runtime dependencies honest: no module imports scipy (the tests use it
only as an oracle), a certify run leaves it unloaded, and the dependencies
pyproject.toml declares are exactly the third-party packages the sources
import.  A fifth pins the number of settable values (config keys,
defaulted parameters and fields, and the fields of the input types), so
a new knob shows up in the diff that adds it.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dbarlab

PACKAGE = Path(dbarlab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# COMMAND_DEFAULTS keys + defaulted parameters + the fields of the input
# types + the defaulted fields of every other dataclass; the required fields
# of a result type are filled by the package, not set.  A change that adds a
# knob raises this in its own diff and says why.  25 = 10 config keys + 1
# defaulted parameter (cli.main's argv) + 14 input fields (GridSpec 2,
# DbarProblem 2, ComplexField 4, RealField 4, DiscMap 2)
SETTABLE_VALUES = 25
INPUT_TYPES = {"GridSpec", "DbarProblem", "ComplexField", "RealField", "DiscMap"}


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


def _absolute_imports(tree) -> list:
    """(module, line) for every absolute import, deferred ones inside functions included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
    return found


def _third_party_imports() -> set:
    return {module.split(".")[0]
            for path in SOURCES for module, _ in _absolute_imports(_parse(path))
            if module.split(".")[0] not in sys.stdlib_module_names | {"dbarlab"}}


def test_no_module_imports_scipy():
    found = [f"{path.name}:{line} {module}"
             for path in SOURCES for module, line in _absolute_imports(_parse(path))
             if module.split(".")[0] == "scipy"]
    assert found == []


def test_runtime_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in project["dependencies"]}
    assert declared == _third_party_imports() == {"numpy"}


def test_cli_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dbarlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_certify_run_loads_no_scipy(tmp_path):
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); out = sys.argv[2]\n"
        "from dbarlab import cli\n"
        "from dbarlab.dbar import profile_exact\n"
        "from dbarlab.grid import make_grid, save_field\n"
        "save_field(profile_exact(-0.25, make_grid(1.0, 33)), out + '/p.f64')\n"
        "with open(out + '/cfg.json', 'w') as fh: json.dump({'input': out + '/p.f64'}, fh)\n"
        "code = cli.main(['certify', '--config', out + '/cfg.json', '--out', out + '/run'])\n"
        "with open(out + '/run/certificates.json') as fh: certs = json.load(fh)['certificates']\n"
        "print(code, certs['identity_chain']['available'],\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent), str(tmp_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "0 True []"


def _is_dataclass(cls) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _settable_values() -> dict:
    """Counts of the values a caller can set, read from the sources with ast."""
    counts = {"config_keys": 0, "parameters": 0, "fields": 0}
    dicts = {}
    inputs = set()
    for path in SOURCES:
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                counts["parameters"] += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                is_input = node.name in INPUT_TYPES
                if is_input:
                    inputs.add(node.name)
                counts["fields"] += sum(isinstance(n, ast.AnnAssign)
                                        and (is_input or n.value is not None)
                                        for n in node.body)
        dicts.update((target.id, node.value) for node in tree.body
                     if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                     for target in node.targets if isinstance(target, ast.Name))
    assert inputs == INPUT_TYPES, "an input type was renamed or is no dataclass"
    counts["config_keys"] = sum(len(dicts[name.id].keys)
                                for name in dicts["COMMAND_DEFAULTS"].values)
    return counts


def test_settable_values_pinned():
    from dbarlab.cli import COMMAND_DEFAULTS

    counts = _settable_values()
    assert counts["config_keys"] == sum(map(len, COMMAND_DEFAULTS.values())) == 10
    assert sum(counts.values()) == SETTABLE_VALUES, counts
