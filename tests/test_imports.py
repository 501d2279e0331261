"""Every name a package or test module imports is used in that module,
and every top-level definition of the package is read somewhere.

A deletion that leaves an import behind is caught here: each
``src/sasaki_lab/*.py`` and ``tests/*.py`` is parsed with `ast`, and every
imported name must be read somewhere in its module, in code or in a quoted
annotation.  The only exception is the package's ``__version__`` re-export.
A deletion that leaves a definition behind is caught too: each function,
class and assigned name at the top of a ``src/sasaki_lab/*.py`` module
must be read by a file of ``src/``, ``tests/`` or ``perfbench/``, outside
its own statement (`numkernel.solve_linear_info` is read by the
benchmark's tracer, `corpus.write_golden_files` by the tests).  The
definitions that only tests read are pinned, each with its reason, so
that a helper left alive by its own tests alone fails here.  Last, a
gallery run must not import ``numpy.ma``, which no report needs.
"""

import ast
import os
import subprocess
import sys
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


# -- top-level definitions nothing reads ----------------------------------

READERS = sorted(
    path
    for folder in ("src", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def read_names(tree: ast.AST) -> set[str]:
    """Names `tree` reads: loaded names, attributes, imported names, and
    strings that are one identifier (``monkeypatch.setattr(mod, "name")``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out | used_names(tree)


def top_level_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each function, class and assigned name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return out


def unread_definitions(modules, readers) -> list[str]:
    """``module.name`` of each top-level definition of `modules` that no
    file of `readers` reads, its own statement aside; dunders are exempt."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in readers}
    elsewhere = {path: read_names(tree) for path, tree in trees.items()}
    unread = []
    for path in modules:
        others = set().union(*(names for p, names in elsewhere.items() if p != path))
        body = trees[path].body
        statements = [read_names(node) for node in body]
        for name, node in top_level_definitions(trees[path]):
            if name.startswith("__") or name in others:
                continue
            if not any(name in names for n, names in zip(body, statements) if n is not node):
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_top_level_definition_is_read():
    """A definition of the package that nothing in `src/`, `tests/` or
    `perfbench/` reads is dead code: delete it."""
    assert unread_definitions(MODULES, READERS) == []


# the definitions of the package that only `tests/` read, and why each stays
TEST_ONLY = {
    "bundle.decompose_homogeneous_metric": "acceptance 05: the metric splits "
                                           "along a calibration and back",
    "corpus.parse_example_text": "the definition files parse back to their entries",
    "corpus.write_golden_files": "writes golden/, which the tests compare",
    "sasaki.pin_battery": "acceptance 04: the four compatibility flags agree",
}


def test_definitions_only_tests_read_are_pinned():
    """A definition that nothing in `src/` or `perfbench/` reads, but a
    test does, is library surface kept alive by its tests: each one is in
    `TEST_ONLY` with its reason, and nothing else is."""
    readers = [path for path in READERS if "tests" not in path.relative_to(ROOT).parts]
    assert sorted(unread_definitions(MODULES, readers)) == sorted(TEST_ONLY)


def test_the_guard_sees_an_unread_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "X = 1\n\n\ndef f():\n    return f()\n\n\ndef g():\n    return X\n\n\n"
        "class K:\n    pass\n"
    )
    (tmp_path / "user.py").write_text("import mod\n\nmod.g()\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_definitions(paths[:1], paths) == ["mod.f", "mod.K"]


# -- what a run imports ---------------------------------------------------

VERIFY_IMPORTS = """
import contextlib, io, sys
from sasaki_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "all", "--samples", "4"])
print(code, "numpy.ma" in sys.modules)
"""


def test_verify_all_does_not_import_numpy_ma():
    """numpy's masked arrays cost import time and resident memory that no
    report needs.  A 1-d ``np.unique`` imports them, so the solver collects
    a batch's pivot rows in a set."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_IMPORTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
