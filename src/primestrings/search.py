"""Scanning special-prime sequences for strings of congruent primes.

A string of length k is k consecutive members of the special-prime
sequence, all congruent to a mod q. Scans are segmented: each segment
reports its runs of good primes plus enough boundary state to splice
runs across segment edges, and segments merge in ascending order. The
merge is a pure function of the segment summaries, so results are
identical for any worker count and any segment size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi
from .errors import InvalidQuery, InvalidRange, RangeTooLarge
from .sieve import (MAX_CENSUS_Q, MAX_SCAN_HI, PROGRESS_EVERY,
                    _ordered_results, _segment_bounds)
from .special import member, special_primes

log = logging.getLogger("primestrings.search")

DEFAULT_SCAN_SEGMENT = 1 << 21


@dataclass(frozen=True)
class StringQuery:
    """Look for k consecutive special primes = a (mod q), all below limit."""

    spec: object
    k: int
    q: int
    a: int
    limit: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidQuery(f"k must be >= 1, got {self.k}")
        if self.q < 1:
            raise InvalidQuery(f"q must be >= 1, got {self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise InvalidQuery(
                f"need gcd(a, q) = 1, got gcd({self.a}, {self.q})")
        if self.limit < 2:
            raise InvalidQuery(f"limit must be >= 2, got {self.limit}")
        if self.limit > MAX_SCAN_HI:
            raise RangeTooLarge(f"limit {self.limit} exceeds "
                                f"sieve.MAX_SCAN_HI = 2^48 = {MAX_SCAN_HI}")


@dataclass
class StringHit:
    """A found string. start_index counts set-primes before the string."""

    primes: list
    start_index: int
    first_occurrence: bool = True


@dataclass
class NotFound:
    """Normal completion without a hit; the scan covered [2, limit)."""

    limit: int


def _segment_runs(args):
    """Set-prime count and runs of good primes of one segment.

    A run is (start_prime, length, ordinal within the segment).
    Picklable worker task.
    """
    spec, q, a, lo, hi = args
    sp = special_primes(spec, lo, hi)
    idx = np.flatnonzero(sp % q == a % q)
    if not idx.size:
        return sp.size, []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    first = idx[np.concatenate(([0], breaks + 1))]
    last = idx[np.concatenate((breaks, [idx.size - 1]))]
    return sp.size, list(zip(sp[first].tolist(), (last - first + 1).tolist(),
                             first.tolist()))


def _segment_census(args):
    """Residue counts mod q of one segment's set-primes. Picklable task."""
    spec, q, lo, hi = args
    return np.bincount(special_primes(spec, lo, hi) % q, minlength=q)


def _runs(query, workers, segment_size):
    """Runs of good set-primes below the limit, spliced across segments.

    Yields (start_prime, length, ordinal) in ascending start order,
    where ordinal counts the set-primes before the run. A run still
    open at the end of a segment is yielded there with its length so
    far, and again wherever it grows, so a consumer can stop as soon
    as a run is long enough. The last yield for each start is the
    maximal run.
    """
    spec, q, a, limit = query.spec, query.q, query.a, query.limit
    bounds = _segment_bounds(1, limit, segment_size)
    jobs = [(spec, q, a, lo, hi) for lo, hi in bounds]
    tail = None           # the run that reaches the last set-prime so far
    n_set = 0             # set-primes in the segments before this one
    for (_lo, hi), (count, runs) in zip(
            bounds, _ordered_results(_segment_runs, jobs, workers)):
        if count:         # else no set-prime here, adjacency is preserved
            touching, tail = tail, None
            for start, length, ordinal in runs:
                if ordinal == 0 and touching is not None:
                    run = (touching[0], touching[1] + length, touching[2])
                else:
                    run = (start, length, n_set + ordinal)
                yield run
                if ordinal + length == count:
                    tail = run
            n_set += count
        if (hi - 1) % PROGRESS_EVERY < segment_size:
            log.info("scanned %d candidates, %d set-primes", hi - 1, n_set)


def _collect_run_primes(spec, start, k, limit):
    """First k set-primes at/after start (they belong to one run)."""
    out = []
    lo = start
    block = 1 << 16
    while len(out) < k and lo < limit:
        hi = min(lo + block, limit)
        out.extend(int(p) for p in special_primes(spec, lo, hi))
        lo = hi
        block *= 2
    return out[:k]


def find_first_string(query, workers=1,
                      segment_size=DEFAULT_SCAN_SEGMENT):
    """First string of k consecutive good special primes below limit.

    Ties and overlaps resolve to the smallest starting prime. Returns
    NotFound (a normal result, not an error) when the scan completes
    without a hit.
    """
    for start, length, ordinal in _runs(query, workers, segment_size):
        if length >= query.k:
            primes = _collect_run_primes(query.spec, start, query.k,
                                         query.limit)
            return StringHit(primes=primes, start_index=ordinal)
    return NotFound(limit=query.limit)


def scan_all_strings(query, workers=1,
                     segment_size=DEFAULT_SCAN_SEGMENT):
    """Every maximal run of good special primes below limit.

    Returns (start_prime, length) pairs in increasing start order;
    lengths >= 1 are all included.
    """
    runs = {start: length for start, length, _ordinal
            in _runs(query, workers, segment_size)}
    return list(runs.items())


@dataclass
class SetCensus:
    """Exact residue counts of set-primes <= X, with distribution stats."""

    set_descriptor: str
    X: int
    q: int
    counts: dict
    phi: int
    coprime_mean: float
    max_ratio: float
    min_ratio: float

    def to_csv(self):
        lines = ["residue,count"]
        lines += [f"{r},{self.counts[r]}" for r in sorted(self.counts)]
        return "\n".join(lines) + "\n"


def residue_census(spec, X, q, workers=1,
                   segment_size=DEFAULT_SCAN_SEGMENT):
    """Count set-primes <= X in every residue class mod q <= MAX_CENSUS_Q."""
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    if q > MAX_CENSUS_Q:
        raise InvalidQuery(f"q = {q} exceeds the census modulus cap "
                           f"{MAX_CENSUS_Q} (one count per residue)")
    if X < 0:
        raise InvalidRange(f"X must be >= 0, got {X}")
    if X + 1 > MAX_SCAN_HI:
        raise RangeTooLarge(f"X = {X} must be below "
                            f"sieve.MAX_SCAN_HI = 2^48 = {MAX_SCAN_HI}")
    bounds = _segment_bounds(1, X + 1, segment_size)
    jobs = [(spec, q, lo, hi) for lo, hi in bounds]
    total = np.zeros(q, dtype=np.int64)
    for counts in _ordered_results(_segment_census, jobs, workers):
        total += counts
    counts = {r: int(total[r]) for r in range(q)}
    coprime = [counts[r] for r in range(q) if math.gcd(r, q) == 1]
    mean = sum(coprime) / len(coprime) if coprime else 0.0
    if mean > 0:
        max_ratio = max(coprime) / mean
        min_ratio = min(coprime) / mean
    else:
        max_ratio = min_ratio = 0.0
    return SetCensus(set_descriptor=spec.descriptor(), X=X, q=q,
                     counts=counts, phi=euler_phi(q), coprime_mean=mean,
                     max_ratio=max_ratio, min_ratio=min_ratio)


def _trial_prime(n):
    """Trial-division primality, independent of the sieve and BPSW paths."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def verify_hit(query, hit, check_index=False):
    """Re-verify a hit with independent arithmetic.

    Checks primality by trial division, set membership by the exact
    scalar criterion, congruences, and that no set-prime falls strictly
    between consecutive members of the string.
    """
    ps = hit.primes
    if len(ps) != query.k or any(p >= query.limit for p in ps):
        return False
    if any(p % query.q != query.a % query.q for p in ps):
        return False
    if any(not _trial_prime(p) for p in ps):
        return False
    if any(not member(query.spec, p) for p in ps):
        return False
    for p, nxt in zip(ps, ps[1:]):
        if nxt <= p:
            return False
        for m in range(p + 1, nxt):
            if member(query.spec, m) and _trial_prime(m):
                return False
    if check_index:
        before = special_primes(query.spec, 1, ps[0])
        if int(before.size) != hit.start_index:
            return False
    return True


def hit_record(query, result, elapsed_ms=0):
    """JSON-ready dict for a scan result."""
    base = {
        "set": query.spec.descriptor(),
        "k": query.k,
        "q": query.q,
        "a": query.a,
        "limit": query.limit,
        "elapsed_ms": elapsed_ms,
    }
    if isinstance(result, StringHit):
        base["start_index"] = result.start_index
        base["primes"] = list(result.primes)
        base["first_occurrence"] = result.first_occurrence
    else:
        base["found"] = False
    return base
