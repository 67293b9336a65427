"""Static checks over the package source: no unused top-level import, and
no more bare `assert` statements than the known ones, since python -O
strips them and a cross-check must raise instead."""

import ast
from pathlib import Path

import chaingeom

SOURCES = sorted(Path(chaingeom.__file__).resolve().parent.glob("*.py"))

# bare asserts still in src/: 8 in compat.py, 2 in isomorph.py, 1 in rings.py
MAX_BARE_ASSERTS = 11


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads;
    `from __future__` imports are exempt."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom typing import Optional, Any\n"
                     "def f(x: Optional[int]) -> int:\n    return x\n")
    assert unused_imports(tree) == ["os", "Any"]


def test_no_unused_top_level_imports():
    found = {path.name: names for path in SOURCES if path.name != "__init__.py"
             for names in [unused_imports(_parse(path))] if names}
    assert found == {}


def test_bare_assert_count():
    counts = {path.name: sum(isinstance(n, ast.Assert) for n in ast.walk(_parse(path)))
              for path in SOURCES}
    assert sum(counts.values()) <= MAX_BARE_ASSERTS, counts
