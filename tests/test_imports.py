"""The package imports only the standard library and its declared
dependencies: a module that is merely installed locally (scipy, say) would
pass here and fail on a clean `pip install ".[test]"`."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kgbench"
DECLARED = {"numpy", "jsonschema"}  # pyproject.toml [project] dependencies


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every non-relative import in `source`, nested ones included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_declared(path):
    allowed = set(sys.stdlib_module_names) | DECLARED
    imports = absolute_imports(path.read_text(encoding="utf-8"))
    bad = [(line, name) for line, name in imports if name.split(".")[0] not in allowed]
    assert not bad, f"{path.name}: undeclared imports {bad}"


def test_scan_finds_nested_and_skips_relative_imports():
    source = "from . import graphs\ndef f():\n    from scipy import sparse\n    import numpy.linalg, json\n"
    assert absolute_imports(source) == [(3, "scipy"), (4, "numpy.linalg"), (4, "json")]
    assert len(list(PACKAGE.glob("*.py"))) >= 10
