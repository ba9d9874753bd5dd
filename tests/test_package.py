"""The package is its modules.

``spinlock/__init__`` binds ``__version__`` and nothing else, so each public
name is imported from the module that defines it, and importing one layer
loads only the layers it imports.  ``pyproject.toml`` reads its version
from ``spinlock.__version__``, the one copy.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_src_surface import quick_start

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinlock"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def test_init_binds_only_the_version():
    docstring, *rest = ast.parse((SRC / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    # one statement, __version__ = "<literal>": no import, no __all__
    assert len(rest) == 1, "import a name from its module, not from spinlock"
    (node,) = rest
    assert isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
    assert [target.id for target in node.targets] == ["__version__"]


def test_pyproject_reads_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "spinlock.__version__"}


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md", "exec"), {})
    estimate, stderr = map(float, capsys.readouterr().out.split())
    assert -1.0 <= estimate <= 1.0 and stderr > 0.0


def relative_imports(module: str) -> set[str]:
    """The package's modules that module imports by a relative import."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module)
            else:  # from . import a, b: a submodule, or a name of __init__
                found.update(a.name for a in node.names if a.name in MODULES)
    return found


def import_closure(module: str) -> set[str]:
    """module and every package module it imports, directly or through its
    imports."""
    closure, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            todo.extend(relative_imports(name))
    return closure


def test_each_import_loads_only_its_closure():
    # one fresh interpreter; each import starts with no spinlock module loaded
    code = (
        "import importlib, json, sys\n"
        "loaded = {}\n"
        f"for name in ['spinlock'] + ['spinlock.' + m for m in {MODULES!r}]:\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'spinlock']:\n"
        "        del sys.modules[m]\n"
        "    importlib.import_module(name)\n"
        "    loaded[name] = sorted(m for m in sys.modules if m.split('.')[0] == 'spinlock')\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded.pop("spinlock") == ["spinlock"]
    for module in MODULES:
        want = sorted(["spinlock"] + [f"spinlock.{m}" for m in import_closure(module)])
        assert loaded[f"spinlock.{module}"] == want, module
    # the CLI is every layer
    assert len(loaded["spinlock.cli"]) == len(MODULES) + 1
