"""No check in the package depends on `assert`, which `python -O` strips."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "primestrings"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
