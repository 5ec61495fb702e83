"""Segmented prime sieve, AP counting, and primality testing.

The sieve works on a bitmap over odd integers >= 3 (2 is handled
implicitly). Bit j covers the odd number 2j + 3 and is set when that
number is composite. Segment size only controls working-set memory;
the primes produced are identical for any segmentation and any worker
count.
"""

from __future__ import annotations

import logging
import math
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModulus, InvalidRange, RangeExceeded, RangeTooLarge

log = logging.getLogger("primestrings.sieve")

DEFAULT_SEGMENT_BYTES = 262144  # odds per working segment (1 byte each)
MAX_SCAN_HI = 1 << 48           # upper end of the supported scan range
MAX_SCAN_SPAN = 1 << 31         # widest single [lo, hi) window
PROGRESS_EVERY = 10 ** 7        # candidates between progress log lines

# Deterministic Miller-Rabin witnesses, valid for every n < 2^64.
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_DETERMINISTIC_LIMIT = 1 << 64
_MR_PROBABILISTIC_ROUNDS = 48
_MR_MAX_CANDIDATE = 1 << 256

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _n_odds(limit):
    # number of odd integers m with 3 <= m < limit
    return max(0, (limit - 2) // 2)


def _dense_primes(n):
    """All primes <= n via a plain dense sieve (used for base primes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    comp = np.zeros(n + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not comp[p]:
            comp[p * p:: p] = True
    return np.flatnonzero(~comp).astype(np.int64)


def _sieve_segment(args):
    """Composite flags for odd-index window [j_lo, j_hi). Picklable task."""
    j_lo, j_hi, base_odd = args
    comp = np.zeros(j_hi - j_lo, dtype=bool)
    m_lo = 2 * j_lo + 3
    m_hi = 2 * j_hi + 3
    for p in base_odd:
        p = int(p)
        if p * p >= m_hi:
            break
        start = max(p * p, ((m_lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= m_hi:
            continue
        comp[(start - 3) // 2 - j_lo:: p] = True
    return comp


def _segment_bounds(lo, hi, size):
    """Consecutive windows [a, b) covering [lo, hi), each at most size wide."""
    if size < 1:
        raise InvalidRange(f"segment_size must be >= 1, got {size}")
    return [(a, min(a + size, hi)) for a in range(lo, hi, size)]


def _ordered_results(task, jobs, workers):
    """Yield task(job) in job order, optionally via a process pool.

    Submission happens in waves so an early consumer break does not
    leave the whole range queued.
    """
    if workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield task(job)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque()
        try:
            for job in jobs:
                window.append(pool.submit(task, job))
                if len(window) >= 2 * workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for fut in window:
                fut.cancel()


def sieve_range(lo, hi, segment_size=DEFAULT_SEGMENT_BYTES, workers=1):
    """Ascending primes in [lo, hi) as an int64 array.

    Works for hi up to MAX_SCAN_HI and window width up to MAX_SCAN_SPAN.
    """
    if not 0 <= lo <= hi:
        raise InvalidRange(f"bad range [{lo}, {hi})")
    if hi > MAX_SCAN_HI:
        raise RangeTooLarge(f"hi {hi} > {MAX_SCAN_HI}")
    if hi - lo > MAX_SCAN_SPAN:
        raise RangeTooLarge(f"window {hi - lo} wider than {MAX_SCAN_SPAN}")
    if hi <= 3:
        return np.array([2], dtype=np.int64) if lo <= 2 < hi else \
            np.empty(0, dtype=np.int64)
    base_odd = _dense_primes(math.isqrt(hi - 1))[1:]
    j_lo = max(0, (lo - 2) // 2) if lo > 3 else 0
    j_hi = _n_odds(hi)
    bounds = _segment_bounds(j_lo, j_hi, segment_size)
    tasks = [(a, b, base_odd) for a, b in bounds]
    chunks = []
    done = 0
    for (a, b), comp in zip(bounds,
                            _ordered_results(_sieve_segment, tasks, workers)):
        chunks.append(2 * (np.flatnonzero(~comp) + a) + 3)
        done += 2 * (b - a)
        if done // PROGRESS_EVERY != (done - 2 * (b - a)) // PROGRESS_EVERY:
            log.info("sieved %d candidates up to %d", done, 2 * b + 3)
    odd = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    if lo <= 2 < hi:
        return np.concatenate(([2], odd)).astype(np.int64)
    return odd.astype(np.int64)


@dataclass
class APCount:
    """Exact prime counts per residue class mod q, over primes <= X."""

    X: int
    q: int
    counts: dict

    def total(self):
        return sum(self.counts.values())


def count_primes_ap(X, q):
    """Count primes p <= X in each residue class mod q."""
    if q < 1:
        raise InvalidModulus(f"q must be >= 1, got {q}")
    if X < 0:
        raise InvalidRange(f"X must be >= 0, got {X}")
    primes = sieve_range(0, X + 1)
    binned = np.bincount(primes % q, minlength=q)
    return APCount(X=X, q=q, counts={r: int(binned[r]) for r in range(q)})


def _mr_witness(n, a, d, s):
    """True when a witnesses the compositeness of n."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n):
    """Primality of any integer: trial division, then Miller-Rabin.

    Deterministic below 2^64 (fixed witness set). Above that the test
    is probabilistic Miller-Rabin with 48 rounds, with witnesses drawn
    from a PRNG seeded by n so repeat calls agree.
    """
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n > _MR_MAX_CANDIDATE:
        raise RangeExceeded(f"{n.bit_length()}-bit candidate exceeds "
                            f"the supported primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_LIMIT:
        bases = _MR_BASES_64
    else:
        # drawn lazily: most composites fail at the first witness
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1)
                 for _ in range(_MR_PROBABILISTIC_ROUNDS))
    for a in bases:
        if a % n and _mr_witness(n, a % n, d, s):
            return False
    return True


def primality_is_deterministic(n):
    """Whether is_prime(n) is exact rather than probabilistic."""
    return n < _MR_DETERMINISTIC_LIMIT
