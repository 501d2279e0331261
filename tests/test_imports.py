"""Every name a package or test module imports is used in that module.

A deletion that leaves an import behind is caught here: each
``src/sasaki_lab/*.py`` and ``tests/*.py`` is parsed with `ast`, and every
imported name must be read somewhere in its module, in code or in a quoted
annotation.  The only exception is the package's ``__version__`` re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sasaki_lab"
RE_EXPORTS = {PACKAGE / "__init__.py": {"__version__"}}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} of every import, ``from __future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names read in the module, those of quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [
        a.annotation for a in ast.walk(tree)
        if isinstance(a, (ast.arg, ast.AnnAssign)) and a.annotation is not None
    ] + [
        f.returns for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.returns
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS],
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree) | RE_EXPORTS.get(path, set())
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\nimport e as f\nb()\n")
    assert set(imported_names(tree)) - used_names(tree) == {"a", "c", "f"}
