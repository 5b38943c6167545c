"""Checks on the package source itself."""

import ast
from pathlib import Path

import qfock

PACKAGE = Path(qfock.__file__).parent


def test_no_bare_assert_in_package():
    """Checks must survive python -O, so the package raises AssertionError."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert statements: {found}"


def test_no_module_level_empty_dict():
    """Memos are lru_cache'd functions, not hand-written module dicts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Dict) and not value.keys:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level empty dicts: {found}"
