"""The package builds its one process pool in search, nowhere else."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "primestrings"


def _callee(call):
    """Name of the called function: f for f(...) and m.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr",
                                                              None)


def test_process_pool_is_built_only_in_search():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and _callee(node) == "ProcessPoolExecutor"]
    assert [site.split(":")[0] for site in found] == ["search.py"], found
