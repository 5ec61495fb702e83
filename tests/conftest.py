import os
import threading

import pytest

import primestrings as ps

import _oracles
from _acceptance_log import RESULTS


@pytest.fixture(scope="session")
def b_pi():
    return ps.SpecialSetSpec.beatty(ps.named_constant("pi"))


@pytest.fixture(scope="session")
def primes_100k():
    return _oracles.simple_sieve(100_000)


@pytest.fixture(scope="session")
def spf_100k():
    return _oracles.spf_sieve(100_000)


# a test that forks a child, or watches one through os.waitid, runs
# only where the platform has both
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "waitid")),
    reason="needs os.fork and os.waitid")


def has_child():
    """Whether this process has a child, running or exited and not yet
    reaped. os.waitid with WNOWAIT reaps nothing, and sees children
    started by os.fork, which multiprocessing.active_children() does
    not list. Where os.waitid is missing (macOS, Windows), False: there
    the leftover check sees threads only."""
    if not hasattr(os, "waitid"):
        return False
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def check_none_left(had_child, threads):
    """Fail if a child process, or a thread not among threads, is left
    after a test that started with had_child = False."""
    assert had_child or not has_child(), \
        "a child process is still running or not reaped"
    left = [t for t in threading.enumerate() if t not in threads]
    assert not left, f"threads still running: {left}"


@pytest.fixture
def forked_pids(monkeypatch):
    """The pids of the children os.fork makes while the test runs; a
    test that takes it is marked needs_fork."""
    pids, real = [], os.fork

    def recorded():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture(autouse=True)
def no_process_or_thread_left_running():
    """Fail a test that leaves a child process, or a thread that was not
    running before it, still running after it ends."""
    before = has_child(), set(threading.enumerate())
    yield
    check_none_left(*before)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        label, status = RESULTS[num]
        terminalreporter.write_line(f"criterion {num:2d}  {status:4s}  {label}")
