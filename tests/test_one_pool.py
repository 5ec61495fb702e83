"""One place for each shared resource: the package builds its one worker
pool in search, and lists base primes only through sieve._base_primes,
which scan threads extend one at a time under the package's one lock.
Floor-product floors use no state that threads share: the package
never sets mpmath's global precision."""

import ast
import contextlib
import pathlib
import sys
import threading
import time

import mpmath
import numpy as np

import _oracles
from primestrings import GFamily, sieve, special

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "primestrings"


def _name(expr):
    """f for the expression f or m.f; None for any other."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr",
                                                              None)


def _callee(call):
    """Name of the called function: f for f(...) and m.f(...)."""
    return _name(call.func)


def _sites(found):
    """file:line of every node of the package's sources that found
    accepts, in file order."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return [f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if found(node)]


# what starts workers: both executor classes, the bare thread and
# process classes, and os.fork
_POOL_BUILDERS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread",
                  "Process", "Pool", "fork"}


def test_process_pool_is_built_only_in_search():
    # thread pools and forks alike: maier calls search._forked_results
    # and builds nothing itself; search builds ThreadPoolExecutor once,
    # in _ordered_results, and calls os.fork once, in _forked_results
    found = _sites(lambda node: isinstance(node, ast.Call)
                   and _callee(node) in _POOL_BUILDERS)
    assert [site.split(":")[0] for site in found] == ["search.py"] * 2, found


# what makes a synchronisation object, in threading and multiprocessing
_SYNC_BUILDERS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore",
                  "Condition", "Event", "Barrier"}


def test_src_makes_one_lock_in_sieve():
    # the base-prime array's lock is the package's one synchronisation
    # object: the pools settle results through futures, and the floors
    # use a private mpmath context
    found = _sites(lambda node: isinstance(node, ast.Call)
                   and _callee(node) in _SYNC_BUILDERS)
    assert [site.split(":")[0] for site in found] == ["sieve.py"], found


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

    assert _sites(lists_base_primes) == []


class _Occupancy:
    """Counts the threads inside a guarded region; each sleeps there, so
    threads that are let in together overlap."""

    def __init__(self):
        self.inside = self.most = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def enter(self):
        with self._lock:
            self.inside += 1
            self.most = max(self.most, self.inside)
        try:
            time.sleep(0.02)
            yield
        finally:
            with self._lock:
                self.inside -= 1


def _in_threads(fn, args):
    """fn(arg) for each arg, started together on one thread each (more
    threads than cores), switching threads as often as the interpreter
    allows."""
    results = [None] * len(args)
    start = threading.Barrier(len(args))

    def run(i):
        start.wait(timeout=10)
        results[i] = fn(args[i])

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(args))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def _cold_base(monkeypatch):
    monkeypatch.setattr(sieve, "_base", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(sieve, "_base_hi", 2)


def test_cold_base_primes_are_extended_by_one_thread_at_a_time(monkeypatch):
    bound = 10 ** 6
    _cold_base(monkeypatch)
    want = sieve._base_primes(bound)
    _cold_base(monkeypatch)
    occupancy, real = _Occupancy(), sieve._primes_in

    def spy(*args):
        with occupancy.enter():
            return real(*args)

    monkeypatch.setattr(sieve, "_primes_in", spy)
    got = _in_threads(sieve._base_primes, [bound] * 4)
    assert occupancy.most == 1
    for primes in got:
        np.testing.assert_array_equal(primes, want)
    np.testing.assert_array_equal(sieve._base, want)


def test_cold_base_primes_equal_a_plain_sieve(monkeypatch):
    # grown from empty in steps, each sieved by the array's own primes
    _cold_base(monkeypatch)
    np.testing.assert_array_equal(sieve._base_primes(10 ** 6),
                                  _oracles.simple_sieve(10 ** 6))


def test_floorprod_floors_from_threads_leave_mpmath_precision_alone(
        monkeypatch):
    # a fresh private context, so a first use that set the global
    # precision would show here
    special._mp_context.cache_clear()
    prec = mpmath.mp.prec
    g = GFamily.loglog()
    ns = [10 ** 6 + 7 * i for i in range(4)]
    want = [special._floorprod_floor(g, n) for n in ns]

    def no_workdps(*args, **kwargs):
        raise AssertionError("mpmath.workdps entered")

    monkeypatch.setattr(mpmath, "workdps", no_workdps)
    got = _in_threads(lambda n: special._floorprod_floor(g, n), ns)
    assert got == want
    assert mpmath.mp.prec == prec


def test_a_global_precision_set_during_a_floor_does_not_reach_it(
        monkeypatch):
    n = 10 ** 12 + 5
    with mpmath.workdps(60):
        v = n * mpmath.log(mpmath.log(n))
        floor = int(mpmath.floor(v))
        want = floor, float(v - floor)
    calls, real = [], GFamily.at

    def lowering(self, x, log):
        # another thread could do this at any moment
        calls.append(x)
        mpmath.mp.dps = 15
        return real(self, x, log)

    monkeypatch.setattr(GFamily, "at", lowering)
    dps = mpmath.mp.dps
    try:
        got = special._floorprod_floor(GFamily.loglog(), n)
    finally:
        mpmath.mp.dps = dps
    assert calls == [n]
    assert got == want


# what changes mpmath's global precision, for a while or for good
_PRECISION_SETTERS = {"workdps", "workprec", "extradps", "extraprec"}


def _sets_global_precision(node):
    """A call to a precision context manager, or an assignment to
    mp.dps or mp.prec (mpmath.mp.dps too)."""
    if isinstance(node, ast.Call):
        return _callee(node) in _PRECISION_SETTERS
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign)
               else [])
    return any(isinstance(t, ast.Attribute) and t.attr in ("dps", "prec")
               and _name(t.value) == "mp"
               for t in targets)


def test_src_never_sets_mpmath_global_precision():
    # special's floors run in a private context whose precision is set
    # once; a global one is shared with every thread in the process
    assert _sites(_sets_global_precision) == []
