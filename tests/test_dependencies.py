"""The package imports nothing but the standard library and ``requests``."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ontodecode").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"requests", "ontodecode"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import (level >= 1) names the package itself.
            roots.add("ontodecode" if node.level else node.module.split(".")[0])
    return roots


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_requests(path):
    assert sorted(_imported_roots(path) - ALLOWED) == []
