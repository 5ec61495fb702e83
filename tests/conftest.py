import multiprocessing

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
def no_process_left_running():
    """Fail a test that leaves a child process running after it ends."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        label, status = RESULTS[num]
        terminalreporter.write_line(f"criterion {num:2d}  {status:4s}  {label}")
