"""The benchmark scripts' calls into spinlock must resolve.

benchmarks/*.py and perfbench/workloads.py import spinlock inside their
functions, so a renamed or deleted name would otherwise surface only when a
benchmark runs.  This reads their syntax trees and the benchmark's configs;
it runs and imports none of them.
"""
import ast
import importlib
import json
from pathlib import Path

import pytest

from spinlock import cli

ROOT = Path(__file__).resolve().parent.parent
# ab.py imports no spinlock name: it only starts perfbench/worker.py processes
SCRIPTS = sorted(p for p in ROOT.glob("benchmarks/*.py") if p.name != "ab.py") + [
    ROOT / "perfbench" / "workloads.py"
]
BENCHMARK_CONFIGS = sorted((ROOT / "perfbench" / "configs").glob("*.json"))


def resolve(dotted: str):
    """The object at a dotted path below spinlock, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[: i + 1]))
        obj = getattr(obj, part)
    return obj


def dotted_name(node: ast.AST) -> str | None:
    """The path "a.b.c" of a chain of attributes on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def spinlock_bindings(tree: ast.AST) -> dict[str, str]:
    """Local name -> dotted spinlock path, for every name the imports bind."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinlock":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spinlock":
                    # "import a.b" binds a; "import a.b as c" binds c to a.b
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
    return bound


def spinlock_references(tree: ast.AST) -> set[str]:
    """Dotted spinlock paths that the module's imports and attribute uses name."""
    bound = spinlock_bindings(tree)
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "spinlock")
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            dotted = dotted_name(node)
            root, _, rest = (dotted or "").partition(".")
            if root in bound:
                names.add(f"{bound[root]}.{rest}")
    return names


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_benchmark_references_resolve(script):
    references = spinlock_references(ast.parse(script.read_text(), str(script)))
    assert references, "no spinlock reference found: the walker no longer sees the imports"
    missing = []
    for dotted in sorted(references):
        try:
            resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert not missing, f"{script.name} uses names spinlock no longer has: {missing}"


def test_walker_flags_a_deleted_name():
    tree = ast.parse(
        "def f():\n"
        "    from spinlock.montecarlo import McConfig, gone_sampler\n"
        "    from spinlock import dicke\n"
        "    from spinlock import kernels, montecarlo as mc\n"
        "    import spinlock.cli as entry\n"
        "    return (dicke.schedule_expectations, dicke.gone_accessor, kernels.gone_fn,\n"
        "            kernels._cos, mc._stream, mc.gone_draw, entry.main, entry.gone_main)\n"
    )
    references = spinlock_references(tree)
    assert references == {
        "spinlock.montecarlo.McConfig",
        "spinlock.montecarlo.gone_sampler",
        "spinlock.dicke",
        "spinlock.dicke.schedule_expectations",
        "spinlock.dicke.gone_accessor",
        "spinlock.kernels",
        "spinlock.kernels.gone_fn",
        "spinlock.kernels._cos",
        "spinlock.montecarlo",
        "spinlock.montecarlo._stream",
        "spinlock.montecarlo.gone_draw",
        "spinlock.cli",
        "spinlock.cli.main",
        "spinlock.cli.gone_main",
    }
    for dotted, exists in (
        ("spinlock.montecarlo.McConfig", True),
        ("spinlock.montecarlo.gone_sampler", False),
        ("spinlock.dicke.gone_accessor", False),
        ("spinlock.kernels._cos", True),
        ("spinlock.kernels.gone_fn", False),
        ("spinlock.montecarlo.gone_draw", False),
        ("spinlock.cli.gone_main", False),
    ):
        try:
            resolve(dotted)
            found = True
        except (ImportError, AttributeError):
            found = False
        assert found == exists, dotted


@pytest.mark.parametrize("config", BENCHMARK_CONFIGS, ids=lambda p: p.name)
def test_benchmark_argv_parses(config):
    # the argv shape of perfbench's Workload.run_configs
    experiment = json.loads(config.read_text())["experiment"]
    args = cli.build_parser().parse_args([experiment, "--config", str(config), "--threads", "2"])
    assert (args.command, args.config, args.threads) == (experiment, str(config), 2)
