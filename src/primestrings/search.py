"""Scanning special-prime sequences for strings of congruent primes.

A string of length k is k consecutive members of the special-prime
sequence, all congruent to a mod q. Scans are segmented: each segment
reports its runs of good primes as arrays plus its set-prime count,
enough to splice runs across segment edges, and segments merge in
ascending order. The merge is a pure function of the segment summaries,
so results are identical for any worker count and any segment size. A
first-hit scan walks its first segment in pieces. Workers run here in
two forms, the caller one of them in each, and check_workers bounds
both. Scan segments run on _ordered_results' thread pool: the sieve and
the set masks are numpy work that releases the GIL, so threads cost no
fork (though the sieve's short strided fills scale poorly, see sieve);
the one lock they meet is the sieve's, on its base-prime array.
Maier row blocks, one per worker, hold the GIL in their BPSW tests on
Python ints, so _forked_results forks a child for each block but the
caller's first: no process outlives the call, and the package never
loads multiprocessing. A census of all primes within _prime_census's
bounds is no scan: the caller counts it by Lucy's programme.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .arith import euler_phi, prime_factors
from .errors import (InvalidModulus, InvalidQuery, InvalidRange,
                     PrimestringsError, RangeTooLarge)
from .sieve import (DEFAULT_SEGMENT_BYTES, MAX_SCAN_HI, PROGRESS_EVERY,
                    _segment_bounds, _strike, sieve_range)
from .special import SpecialSetSpec, member, special_primes

log = logging.getLogger("primestrings.search")

DEFAULT_SCAN_SEGMENT = 2 * DEFAULT_SEGMENT_BYTES  # spans one sieve segment
MAX_CENSUS_Q = 10 ** 6          # largest modulus of a residue count
# _prime_census's table cap: at q = 1 and X = 2^38 - 1 it took 2.5 s
_CENSUS_CELLS = 1 << 20         # and peaked at 107 MB RSS (29 MB before)
MAX_WORKERS = 64                # threads of a scan, children of a Maier census
RUN_DTYPE = np.dtype([("start", np.int64), ("length", np.int64)])
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def _good_runs(good):
    """First index and length of each maximal run of True in a bool array:
    runs start and end where the array, padded with False, changes."""
    edges = np.flatnonzero(np.diff(good, prepend=False, append=False))
    return edges[::2], edges[1::2] - edges[::2]


def _segment_runs(args):
    """Set-prime count and runs of good primes of one segment.

    The runs are three arrays: first prime, length, and ordinal of the
    first prime within the segment. Worker task.
    """
    spec, q, a, lo, hi = args
    sp = special_primes(spec, lo, hi)
    first, length = _good_runs(sp - sp // q * q == a % q)
    return sp.size, sp[first], length, first


def _segment_census(args):
    """Residue counts mod q of one segment's set-primes. Worker task."""
    spec, q, lo, hi = args
    sp = special_primes(spec, lo, hi)
    return np.bincount(sp - sp // q * q, minlength=q)


def _run_into(task, fut, job):
    """Run task(job) in the calling thread and settle fut with its result, or
    with its exception, which fut.result() raises in the job's turn."""
    try:
        fut.set_result(task(job))
    except Exception as exc:
        fut.set_exception(exc)


def check_workers(workers):
    """Refuse a worker count outside 1..MAX_WORKERS, before any job runs."""
    if not 1 <= workers <= MAX_WORKERS:
        raise InvalidQuery(f"need 1 to {MAX_WORKERS} workers, got {workers}")


def _forked_results(task, jobs):
    """Yield task(job) for each of a list of jobs, in job order, for
    tasks that hold the GIL; results and exceptions must pickle.

    A child forked for each job after the first runs it, and then the
    caller runs the first; where os.fork is missing, the caller runs
    every job. In its turn the caller reads a child's result and reaps
    it, then yields the result or raises the task's exception; a child
    that exits nonzero or sends nothing raises PrimestringsError with
    its exit status (negative: the signal that ended it) and whether it
    sent its result. Leaving the generator kills and reaps every child
    whose result was not read.
    """
    own = jobs[:1] if hasattr(os, "fork") else jobs
    children = deque()               # (pid, pipe) of each child not reaped
    try:
        for job in jobs[len(own):]:
            fd, child_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(child_fd)
                raise
            if pid == 0:
                # the child pickles (True, result) or (False, exception)
                # into the pipe and leaves by os._exit, which runs no
                # atexit handler and flushes no stdio buffer copied from
                # the parent; status 1 if it sent nothing (say, a result
                # that won't pickle)
                status = 1
                try:
                    os.close(fd)
                    try:
                        out = True, task(job)
                    except BaseException as exc:
                        out = False, exc
                    with open(child_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(out))
                    status = 0
                finally:
                    os._exit(status)
            os.close(child_fd)
            children.append((pid, open(fd, "rb")))
        for job in own:
            yield task(job)
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.popleft()
            pipe.close()
            if status or not data:
                sent = "after sending its result" if data else "and no result"
                raise PrimestringsError(f"a forked worker ended with exit "
                                        f"status {status} {sent}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _ordered_results(task, jobs, workers):
    """Yield (job, task(job)) in job order, on workers workers of which
    the calling thread is one.

    The caller runs job 1 and every workers-th job after it (1, 1 + w,
    1 + 2w, ...), which at one worker is every job. The other jobs go
    to a pool of at most workers - 1 threads, and no more than the
    pool's jobs among those first drawn, so one worker builds no pool.
    The pool's jobs are submitted before the caller runs job 1, and
    before it blocks on a pool result the caller runs its own jobs
    drawn so far, each through _run_into. Jobs are drawn lazily, at
    most 2 * workers ahead of the consumer, so an early break leaves
    nothing queued; a job's exception is raised in its turn, wherever
    the job ran.
    """
    check_workers(workers)
    # the caller's jobs are those drawn at index 0 (mod workers)
    jobs = enumerate(jobs)
    head = list(islice(jobs, 2 * workers))
    n_pool = sum(i % workers > 0 for i, _ in head)
    with (ThreadPoolExecutor(max_workers=min(workers - 1, n_pool))
          if n_pool else nullcontext()) as pool:
        own = deque()                # the caller's jobs not yet run

        def draw(i, job):
            if i % workers:
                return job, pool.submit(task, job)
            fut = Future()
            own.append((fut, job))
            return job, fut

        window = deque(draw(i, job) for i, job in head)
        try:
            while window:
                job, fut = window.popleft()
                window.extend(draw(i, nxt) for i, nxt in islice(jobs, 1))
                while own and (own[0][0] is fut or not fut.done()):
                    _run_into(task, *own.popleft())
                yield job, fut.result()
        finally:
            for _job, fut in window:
                fut.cancel()


def _progress(lo, hi, end, n_set):
    """Log n_set set-primes < hi at each PROGRESS_EVERY and at end."""
    if (lo - 1) // PROGRESS_EVERY < (hi - 1) // PROGRESS_EVERY or hi == end:
        log.info("scanned %d candidates, %d set-primes", hi - 1, n_set)


def _growing_bounds(lo, hi):
    """Windows covering [lo, hi): 2^16 long, then each twice the last."""
    size = 1 << 16
    while lo < hi:
        yield lo, min(lo + size, hi)
        lo, size = lo + size, 2 * size


def _runs(query, workers, pieces, segments):
    """Runs of good set-primes below the limit, spliced across windows.

    The windows run from 1 to the limit: pieces, which the caller walks
    one by one, then segments, on _ordered_results' workers. Yields
    (starts, lengths, ordinals, spliced) arrays for each window that
    holds set-primes, in ascending start order; ordinal counts the
    set-primes before a run. Only a window's first run can continue the
    run open at the end of the windows before: it then takes that run's
    start and ordinal and its length so far, and spliced is True, as it
    supersedes the last run yielded.
    """
    check_workers(workers)          # before the first piece
    args = (query.spec, query.q, query.a)
    walked = ((job, _segment_runs(job)) for job in (args + w for w in pieces))
    pooled = _ordered_results(_segment_runs, (args + w for w in segments),
                              workers)
    tail = None           # the run that reaches the last set-prime so far
    n_set = 0             # set-primes in the windows before this one
    for (*_, lo, hi), (count, starts, lengths, ordinals) in chain(
            walked, pooled):
        if count:         # else no set-prime here, adjacency is preserved
            has_runs = lengths.size > 0
            spliced = has_runs and tail is not None and ordinals[0] == 0
            open_end = has_runs and ordinals[-1] + lengths[-1] == count
            ordinals += n_set
            if spliced:
                starts[0], ordinals[0] = tail[0], tail[2]
                lengths[0] += tail[1]
            tail = (starts[-1], lengths[-1], ordinals[-1]) if open_end \
                else None
            n_set += count
            yield starts, lengths, ordinals, spliced
        _progress(lo, hi, query.limit, n_set)


def _collect_run_primes(spec, start, k, limit):
    """First k set-primes at/after start (they belong to one run)."""
    blocks = (special_primes(spec, lo, hi).tolist()
              for lo, hi in _growing_bounds(start, limit))
    return list(islice(chain.from_iterable(blocks), k))


def find_first_string(query, workers=1,
                      segment_size=DEFAULT_SCAN_SEGMENT):
    """First string of k consecutive good special primes below limit.

    Ties and overlaps resolve to the smallest starting prime. Returns
    NotFound (a normal result, not an error) when the scan completes
    without a hit. The first segment runs in _growing_bounds pieces: a
    hit whose last prime p lies there sieves < 2 p + 2^16 integers.
    """
    first_end = min(query.limit, 1 + segment_size)
    segments = _segment_bounds(first_end, query.limit, segment_size)
    for starts, lengths, ordinals, _ in _runs(
            query, workers, _growing_bounds(1, first_end), segments):
        hits = np.flatnonzero(lengths >= query.k)
        if hits.size:
            primes = _collect_run_primes(query.spec, int(starts[hits[0]]),
                                         query.k, query.limit)
            return StringHit(primes=primes,
                             start_index=int(ordinals[hits[0]]))
    return NotFound(limit=query.limit)


def scan_all_strings(query, workers=1,
                     segment_size=DEFAULT_SCAN_SEGMENT):
    """Every maximal run of good special primes below limit.

    Returns a structured array with int64 fields start and length, in
    increasing start order; lengths >= 1 are all included, and
    .tolist() gives the (start_prime, length) pairs.
    """
    parts = [np.empty(0, RUN_DTYPE)]
    segments = _segment_bounds(1, query.limit, segment_size)
    for starts, lengths, _, spliced in _runs(query, workers, (), segments):
        if spliced:       # the run's last report was shorter
            parts[-1] = parts[-1][:-1]
        part = np.empty(starts.size, RUN_DTYPE)
        part["start"], part["length"] = starts, lengths
        parts.append(part)
    return np.concatenate(parts)


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


def _prime_census(X, q):
    """Counts of the primes <= X in each class mod q, as an int64 array.

    Lucy's programme (Lagarias, Miller and Odlyzko, Math. Comp. 44,
    1985): in a class-major table, row c, column v (v = 0..isqrt(X) and
    v = X // i) counts the n = c (mod q) in [2, v] that are prime or
    have no prime factor below p, as p runs over the primes <= y =
    floor(X^(1/3)), so each p moves whole rows. Left beside the primes
    are the products p p' <= X of primes y < p <= p' (Deleglise and
    Rivat, Math. Comp. 65, 1996), counted from one sieve to X // (y + 1).
    """
    r = math.isqrt(X)
    y = round(X ** (1 / 3))
    y -= y ** 3 > X                     # the float cube root, floored
    vals = np.concatenate([np.arange(r + 1), X // np.arange(r, 0, -1)])
    cls = np.arange(q)
    table = (vals + q - np.where(cls, cls, q)[:, None]) // q
    table[1 % q, 1:] -= 1               # n = 1, in every column but v = 0
    big = X // (y + 1) + 1
    primes = sieve_range(0, big)
    top = 2 * r + 1                     # column v = X // i is top - i
    for p in primes[:np.searchsorted(primes, y, "right")].tolist():
        # n = p m, m in [p, v // p] free of primes below p, leave columns
        # v >= p^2, the table's last (v = p^2..r, then X // i, i = n..1):
        # v loses column v // p less column p - 1, class c' as class p c'
        n = min(r, X // (p * p))
        m = min(n, r // p)              # the columns X // i with i p <= r
        src = np.concatenate([np.arange(p * p, r + 1) // p,
                              X // (np.arange(n, m, -1) * p),
                              np.arange(top - p * m, top, p)])
        d = table.take(src, axis=1)     # faster here than table[:, src]
        d -= table[:, p - 1, None]
        if q % p:
            table[:, top - src.size:] -= d[cls * pow(p, -1, q) % q]
        else:
            table[::p, top - src.size:] -= d.reshape(p, q // p, -1).sum(0)
    lo, hi = np.searchsorted(primes, [y, r], "right")
    ps = primes[lo:hi]
    keys = np.sort(primes % q * big + primes)
    c = cls * big
    n_pp = (np.searchsorted(keys, c + (X // ps)[:, None], "right")
            - np.searchsorted(keys, c + ps[:, None], "left"))
    pp = np.bincount((ps[:, None] * cls % q).ravel(), n_pp.ravel(), q)
    return table[:, -1] - pp.astype(np.int64)


def _coprime_classes(q):
    """Mask of the classes mod q prime to q: q's primes strike theirs."""
    struck = np.zeros(q, dtype=bool)
    ps = np.array(prime_factors(q), dtype=np.int64)
    _strike(struck, np.zeros_like(ps), ps)
    return ~struck


def residue_census(spec, X, q, workers=1,
                   segment_size=DEFAULT_SCAN_SEGMENT):
    """Count set-primes <= X in every residue class mod q <= MAX_CENSUS_Q.

    _prime_census counts the set all in the caller where its table fits
    in _CENSUS_CELLS and (3 q)^4 <= X (its work grows as q X^(3/4); the
    sieve at 2 workers was faster from q of about 16 at X = 1e6, 60 at
    1e9). Every other census sieves its segments on workers workers.
    """
    if q < 1:
        raise InvalidModulus(f"q must be >= 1, got {q}")
    if q > MAX_CENSUS_Q:
        raise InvalidModulus(f"q = {q} exceeds the census modulus cap "
                             f"{MAX_CENSUS_Q} (one count per residue)")
    if X < 0:
        raise InvalidRange(f"X must be >= 0, got {X}")
    if X + 1 > MAX_SCAN_HI:
        raise RangeTooLarge(f"X = {X} must be below "
                            f"sieve.MAX_SCAN_HI = 2^48 = {MAX_SCAN_HI}")
    check_workers(workers)
    segments = _segment_bounds(1, X + 1, segment_size)  # refuses a bad size
    if (spec.kind == "all" and (3 * q) ** 4 <= X
            and q * (2 * math.isqrt(X) + 1) <= _CENSUS_CELLS):
        t0 = time.perf_counter()
        total = _prime_census(X, q)
        log.info("counted primes <= %d mod %d by Lucy's programme and "
                 "P2 in %.3f s", X, q, time.perf_counter() - t0)
    else:
        jobs = ((spec, q, lo, hi) for lo, hi in segments)
        total = np.zeros(q, dtype=np.int64)
        for (*_, lo, hi), counts in _ordered_results(
                _segment_census, jobs, workers):
            total += counts
            _progress(lo, hi, X + 1, int(total.sum()))
    coprime = total[_coprime_classes(q)]
    mean = int(coprime.sum()) / coprime.size    # Python ints: one rounding
    if mean > 0:
        max_ratio = int(coprime.max()) / mean
        min_ratio = int(coprime.min()) / mean
    else:
        max_ratio = min_ratio = 0.0
    return SetCensus(set_descriptor=spec.descriptor(), X=X, q=q,
                     counts=dict(enumerate(total.tolist())),
                     phi=euler_phi(q), coprime_mean=mean,
                     max_ratio=max_ratio, min_ratio=min_ratio)


def count_primes_ap(X, q):
    """Count primes p <= X in each residue class mod q <= MAX_CENSUS_Q,
    by _prime_census wherever residue_census takes it."""
    return residue_census(SpecialSetSpec.all_primes(), X, q)


def _mr12_is_prime(n):
    """Miller-Rabin on the first 12 prime bases, for verify_hit.

    Exact for n < psi_12 = 318665857834031151167461, about 3.18e23, the
    least strong pseudoprime to all 12 bases (Sorenson and Webster,
    "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017),
    so for every n below MAX_SCAN_HI. It shares no code with
    sieve.is_prime, which runs BPSW.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def verify_hit(query, hit, check_index=False):
    """Re-verify a hit with independent arithmetic.

    Checks primality by Miller-Rabin on 12 fixed bases (_mr12_is_prime,
    exact below 2^48), set membership by the exact scalar criterion,
    congruences, and that no set-prime falls strictly between
    consecutive members of the string. check_index recounts the
    set-primes below the string with residue_census.
    """
    ps = hit.primes
    if len(ps) != query.k or any(p >= query.limit for p in ps):
        return False
    if any(p % query.q != query.a % query.q for p in ps):
        return False
    if not all(map(_mr12_is_prime, ps)):
        return False
    if any(not member(query.spec, p) for p in ps):
        return False
    for p, nxt in zip(ps, ps[1:]):
        if nxt <= p:
            return False
        for m in range(p + 1, nxt):
            if member(query.spec, m) and _mr12_is_prime(m):
                return False
    if check_index:
        before = residue_census(query.spec, ps[0] - 1, 1).counts[0]
        if before != hit.start_index:
            return False
    return True


def hit_record(query, result):
    """JSON-ready dict for a scan result."""
    base = {
        "set": query.spec.descriptor(),
        "k": query.k,
        "q": query.q,
        "a": query.a,
        "limit": query.limit,
    }
    if isinstance(result, StringHit):
        base["start_index"] = result.start_index
        base["primes"] = list(result.primes)
        base["first_occurrence"] = result.first_occurrence
    else:
        base["found"] = False
    return base
