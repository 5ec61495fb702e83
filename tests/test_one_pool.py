"""One place for each shared resource: the package builds its one process
pool in search, and lists base primes only through sieve._base_primes."""

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


def test_base_primes_are_listed_only_by_the_array():
    # no sieve_range(0, isqrt(...) ...) listing of base primes is left
    # in the package: each process keeps one array in sieve._base_primes
    def lists_base_primes(node):
        return (isinstance(node, ast.Call) and _callee(node) == "sieve_range"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
                and any(isinstance(sub, ast.Call) and _callee(sub) == "isqrt"
                        for sub in ast.walk(node.args[1])))

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if lists_base_primes(node)]
    assert found == []
