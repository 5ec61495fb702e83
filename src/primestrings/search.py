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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arith import euler_phi
from .errors import InvalidQuery
from .sieve import _segment_bounds
from .special import member, special_primes

log = logging.getLogger("primestrings.search")

DEFAULT_SCAN_SEGMENT = 1 << 21
PROGRESS_EVERY = 10 ** 7


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


@dataclass
class _SegmentRuns:
    lo: int
    hi: int
    n_set: int
    # (start_prime, last_prime, length, start_ordinal_in_segment)
    runs: list = field(default_factory=list)


def _segment_runs(args):
    """Runs of good primes inside one segment. Picklable worker task."""
    spec, q, a, lo, hi = args
    sp = special_primes(spec, lo, hi)
    out = _SegmentRuns(lo=lo, hi=hi, n_set=int(sp.size))
    if sp.size:
        idx = np.flatnonzero(sp % q == a % q)
        if idx.size:
            gaps = np.flatnonzero(np.diff(idx) > 1)
            starts = np.concatenate(([0], gaps + 1))
            ends = np.concatenate((gaps, [idx.size - 1]))
            for s, e in zip(starts, ends):
                i0, i1 = int(idx[s]), int(idx[e])
                out.runs.append((int(sp[i0]), int(sp[i1]), i1 - i0 + 1, i0))
    return out


def _segment_census(args):
    """Residue counts mod q of one segment's set-primes. Picklable task."""
    spec, q, lo, hi = args
    sp = special_primes(spec, lo, hi)
    counts = np.bincount(sp % q, minlength=q) if sp.size else \
        np.zeros(q, dtype=np.int64)
    return counts


class _RunMerger:
    """Splices per-segment runs in ascending segment order."""

    def __init__(self):
        self.completed = []   # (start_prime, last_prime, length, start_ord)
        self.open = None
        self.n_set = 0        # set-primes merged so far

    def push(self, seg):
        if seg.n_set == 0:
            return            # no set-prime here, adjacency is preserved
        runs = deque(seg.runs)
        if self.open is not None:
            if runs and runs[0][3] == 0:
                s, last, ln, so = runs.popleft()
                merged = (self.open[0], last, self.open[2] + ln, self.open[3])
                if so + ln == seg.n_set:
                    self.open = merged
                else:
                    self.completed.append(merged)
                    self.open = None
            else:
                self.completed.append(self.open)
                self.open = None
        for s, last, ln, so in runs:
            item = (s, last, ln, self.n_set + so)
            if so + ln == seg.n_set:
                self.open = item      # may continue into the next segment
            else:
                self.completed.append(item)
        self.n_set += seg.n_set

    def finish(self):
        if self.open is not None:
            self.completed.append(self.open)
            self.open = None
        return self.completed

    def first_at_least(self, k):
        """Earliest run (closed or still open) with length >= k, if any."""
        for run in self.completed:
            if run[2] >= k:
                return run
        if self.open is not None and self.open[2] >= k:
            return self.open
        return None


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
        it = iter(jobs)
        try:
            while True:
                while len(window) < 2 * workers:
                    job = next(it, None)
                    if job is None:
                        break
                    window.append(pool.submit(task, job))
                if not window:
                    break
                yield window.popleft().result()
        finally:
            for fut in window:
                fut.cancel()


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
    spec, k, q, a, limit = (query.spec, query.k, query.q, query.a,
                            query.limit)
    merger = _RunMerger()
    bounds = _segment_bounds(1, limit, segment_size)
    jobs = [(spec, q, a, lo, hi) for lo, hi in bounds]
    covered = 0
    for seg in _ordered_results(_segment_runs, jobs, workers):
        merger.push(seg)
        covered += seg.hi - seg.lo
        if covered % PROGRESS_EVERY < segment_size:
            log.info("scanned %d candidates, %d set-primes",
                     covered, merger.n_set)
        run = merger.first_at_least(k)
        if run is not None:
            start, _last, _ln, start_ord = run
            primes = _collect_run_primes(spec, start, k, limit)
            return StringHit(primes=primes, start_index=start_ord)
    return NotFound(limit=limit)


def scan_all_strings(query, workers=1,
                     segment_size=DEFAULT_SCAN_SEGMENT):
    """Every maximal run of good special primes below limit.

    Returns (start_prime, length) pairs in increasing start order;
    lengths >= 1 are all included.
    """
    spec, q, a, limit = query.spec, query.q, query.a, query.limit
    merger = _RunMerger()
    bounds = _segment_bounds(1, limit, segment_size)
    jobs = [(spec, q, a, lo, hi) for lo, hi in bounds]
    for seg in _ordered_results(_segment_runs, jobs, workers):
        merger.push(seg)
    return [(start, length) for start, _last, length, _ord
            in merger.finish()]


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
    """Count set-primes <= X in every residue class mod q."""
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
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
    """Trial-division primality, independent of the sieve and MR paths."""
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
