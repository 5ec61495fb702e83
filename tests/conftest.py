import multiprocessing
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


@pytest.fixture(autouse=True)
def no_process_or_thread_left_running():
    """Fail a test that leaves a child process, or a thread that was not
    running before it, still running after it ends."""
    before = set(threading.enumerate())
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"
    threads = [t for t in threading.enumerate() if t not in before]
    assert not threads, f"threads still running: {threads}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        label, status = RESULTS[num]
        terminalreporter.write_line(f"criterion {num:2d}  {status:4s}  {label}")
