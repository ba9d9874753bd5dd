"""Every public name in src/spinlock is something a run calls.

A public top-level function or class, or a public method, must be named
by code somewhere in ``src/``, in the benchmark's
``perfbench/workloads.py`` or in the README Quick-start block.  A
docstring, an import or ``__all__`` does not count; a string that is an
identifier does, since ``getattr`` reads attributes by such names (the
config schema's fields).  A name that only tests use is a reference and
belongs in the tests.  Names are matched bare, so a method counts as used
when any attribute of that name is read, and the guard can miss a
leftover that shares its name with a used one.

Integer, finite and range rules are worded in one place, the shared checks
of ``errors.py``: no other module raises a ConfigError with that wording.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinlock"


def public_definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """Qualified name -> bare name of the module's public functions,
    classes and methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def code_names(tree: ast.AST) -> set[str]:
    """Every name, attribute and identifier string the code reads, leaving
    out docstrings and ``__all__``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.update(id(n) for n in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            names.add(node.value)
    return names


def quick_start() -> str:
    """The python block of the README's Quick start section."""
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def unused_public_names(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Public definitions of the modules in sources that no code in the
    modules or the callers reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*(code_names(t) for t in trees.values()))
    used |= set().union(*(code_names(ast.parse(text)) for text in callers))
    defined = {}
    for module, tree in trees.items():
        defined.update(public_definitions(tree, module))
    return sorted(q for q, bare in defined.items() if bare not in used)


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [(ROOT / "perfbench" / "workloads.py").read_text(), quick_start()]
    leftovers = unused_public_names(sources, callers)
    assert not leftovers, f"public names that only tests or docs use: {leftovers}"


def test_guard_flags_a_name_only_a_docstring_or_import_names():
    sources = {
        "a": (
            "def used():\n    return helper()\n"
            "def helper():\n    '''not spare()'''\n"
            "def spare():\n    pass\n"
            "class Box:\n"
            "    def read(self):\n        return self.size\n"
            "    def size(self):\n        return getattr(self, 'width')\n"
            "    def width(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
        ),
        "b": "from .a import spare\n__all__ = ['spare']\nprint(used)\n",
    }
    assert unused_public_names(sources, ["Box().read()"]) == ["a.spare"]
    assert unused_public_names(sources, []) == ["a.Box", "a.Box.read", "a.spare"]


# the wordings of errors._check_integer and errors._check_real
RANGE_WORDINGS = (
    "must be >", "must be >=", "must be finite", "must be an integer", "must be in", "outside [",
)


def own_range_checks(sources: dict[str, str]) -> list[str]:
    """module:line of each ``raise ConfigError(...)`` whose literal text
    words an integer, finite or range rule."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if getattr(func, "id", getattr(func, "attr", None)) != "ConfigError":
                continue
            words = "".join(
                part.value
                for part in ast.walk(call)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if any(wording in words for wording in RANGE_WORDINGS):
                found.append(f"{module}:{node.lineno}")
    return found


def test_only_the_shared_checks_word_range_rules():
    sources = {
        path.stem: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
    }
    copies = own_range_checks(sources)
    assert not copies, f"use errors._check_integer or errors._check_real instead: {copies}"


def test_range_guard_flags_each_wording():
    flagged = [
        "raise ConfigError(f'{name} must be >= 0, got {value!r}')",
        "raise errors.ConfigError('n must be an integer')",
        "raise ConfigError(f'x must be in (0, 1), got {x}')",
        "raise ConfigError(f'{n}={v} outside [1, 4]')",
        "raise ConfigError('phase ' + 'must be finite')",
    ]
    passed = [
        "raise ConfigError('physics.n_atoms must not repeat')",
        "raise ConfigError(f'{key} must be one of {options}, got {value!r}')",
        "raise SpinlockError(f'thread count must be >= 1, got {n}')",
        "message = 'x must be > 0'",
    ]
    sources = {f"f{i}": code for i, code in enumerate(flagged + passed)}
    assert own_range_checks(sources) == [f"f{i}:1" for i in range(len(flagged))]
