"""Scanning special-prime sequences for strings of congruent primes.

A string of length k is k consecutive members of the special-prime
sequence, all congruent to a mod q. Scans are segmented: each segment
reports its runs of good primes as arrays plus its set-prime count,
enough to splice runs across segment edges, and segments merge in
ascending order. The merge is a pure function of the segment
summaries, so results are identical for any worker count and any
segment size. _ordered_results is the package's one worker pool, for
scan segments and Maier row blocks alike. The calling thread is one of
the workers: it runs the first job and every workers-th job after it,
and the others go to a pool of at most workers - 1 workers, never more
than the jobs they hold, so at one worker the caller runs every job
and no pool starts. Scan segments run on threads: the sieve and the
set masks are numpy work that releases the GIL, so a pool costs no
fork. Maier row blocks, one per worker, run in processes, since their
BPSW tests on Python ints hold it: _ForkPool forks one child per block
(POSIX os.fork), so no process outlives the call and the package never
loads multiprocessing. The one lock the threads meet is
the sieve's, on its base-prime array. A first-hit scan runs its first
segment before any pool starts; the calls that read every job
(scan_all_strings, residue_census and the Maier row census) start the
pool first, so its start overlaps the caller's first job.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import select
import signal
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .arith import euler_phi
from .errors import (InvalidModulus, InvalidQuery, InvalidRange,
                     PrimestringsError, RangeTooLarge)
from .sieve import (DEFAULT_SEGMENT_BYTES, MAX_SCAN_HI, PROGRESS_EVERY,
                    _segment_bounds)
from .special import SpecialSetSpec, member, special_primes

log = logging.getLogger("primestrings.search")

DEFAULT_SCAN_SEGMENT = 2 * DEFAULT_SEGMENT_BYTES  # spans one sieve segment
MAX_CENSUS_Q = 10 ** 6          # largest modulus of a residue count
MAX_WORKERS = 64                # a process pool starts all its workers at once
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
    first, length = _good_runs(sp % q == a % q)
    return sp.size, sp[first], length, first


def _segment_census(args):
    """Residue counts mod q of one segment's set-primes. Worker task."""
    spec, q, lo, hi = args
    return np.bincount(special_primes(spec, lo, hi) % q, minlength=q)


def _run_into(task, fut, job):
    """Run task(job) in the calling thread and settle fut with its result, or
    with its exception, which fut.result() raises in the job's turn."""
    try:
        fut.set_result(task(job))
    except Exception as exc:
        fut.set_exception(exc)


class _Forked:
    """The future of one forked job: its child's pid and the read end of
    its result pipe, both released by result() or cancel()."""

    def __init__(self, pid, fd):
        self._pid, self._pipe = pid, open(fd, "rb")

    def done(self):
        """Whether result() would not block: the child has written its
        result, or closed the pipe without one."""
        poll = select.poll()
        poll.register(self._pipe, select.POLLIN)
        return bool(poll.poll(0))

    def result(self):
        """Read the child's result and reap the child, then return the
        result or raise the task's exception. A child that ends with no
        result raises PrimestringsError with its exit status (negative:
        the signal that ended it)."""
        data = self._pipe.read()
        status = self._reap()
        if status or not data:
            raise PrimestringsError(f"a forked worker ended with exit status "
                                    f"{status} and no result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    def cancel(self):
        """Kill and reap the child, unless result() has reaped it."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        self._pipe.close()
        status = os.waitpid(self._pid, 0)[1]
        self._pid = None
        return os.waitstatus_to_exitcode(status)


class _ForkPool:
    """An executor that runs each job in a child forked for it, for
    tasks that hold the GIL. Job and task need not pickle; the result
    and any exception must.

    No child is reused and none waits for work, so the pool needs no
    queue and no thread; max_workers is the executor signature's, and
    submit forks at once. So it suits a plan of one job per worker, as
    the Maier census is: _ordered_results then submits workers - 1
    jobs. Leaving the pool kills and reaps every child whose result
    was not read, so no process outlives it.
    """

    def __init__(self, max_workers):
        self._children = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for child in self._children:
            child.cancel()

    def submit(self, task, job):
        fd, child_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # the child pickles (True, result) or (False, exception) into
            # the pipe and leaves by os._exit, which runs no atexit
            # handler and flushes no stdio buffer copied from the parent;
            # status 1 if it sent nothing (say, a result that won't pickle)
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
        self._children.append(_Forked(pid, fd))
        return self._children[-1]


def _ordered_results(task, jobs, workers, fork_first=False, *,
                     executor=ThreadPoolExecutor):
    """Yield (job, task(job)) in job order, on workers workers of which
    the calling thread is one.

    The caller runs job 1 and every workers-th job after it (1, 1 + w,
    1 + 2w, ...), which at one worker is every job. The other jobs go
    to a pool of at most workers - 1 workers, and no more than the
    pool's jobs among those first drawn, so one worker builds no pool.
    The pool is an executor class, by default ThreadPoolExecutor: a
    task that holds the GIL, such as the Maier row blocks, passes
    _ForkPool, and its results must pickle. Before it blocks on
    a pool result, the caller runs its own jobs drawn so far. Jobs are
    drawn lazily, at most 2 * workers ahead of the consumer, so an
    early break leaves nothing queued; a job's exception is raised in
    its turn, wherever the job ran.

    By default job 1 runs before any later job is drawn, so a scan
    settled by its first segment starts no pool. fork_first, for the
    callers that read every job, submits the pool's jobs before the
    caller runs job 1, so the pool's start overlaps that job.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise InvalidQuery(f"need 1 to {MAX_WORKERS} workers, got {workers}")
    jobs = iter(jobs)
    if not fork_first:
        for job in islice(jobs, 1):
            yield job, task(job)
    # the caller's jobs are those drawn at index 0 (mod workers)
    jobs = enumerate(jobs, 0 if fork_first else 1)
    head = list(islice(jobs, 2 * workers - (not fork_first)))
    n_pool = sum(i % workers > 0 for i, _ in head)
    if not n_pool:                   # one worker, or a one-job plan
        for _, job in chain(head, jobs):
            yield job, task(job)
        return
    with executor(max_workers=min(workers - 1, n_pool)) as pool:
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


def _progress(hi, segment_size, n_set):
    """Log about every PROGRESS_EVERY candidates: n_set set-primes < hi."""
    if (hi - 1) % PROGRESS_EVERY < segment_size:
        log.info("scanned %d candidates, %d set-primes", hi - 1, n_set)


def _runs(query, workers, segment_size, fork_first=False):
    """Runs of good set-primes below the limit, spliced across segments.

    Yields (starts, lengths, ordinals, spliced) arrays for each segment
    that holds set-primes, in ascending start order; ordinal counts the
    set-primes before a run. Only a segment's first run can continue
    the run open at the end of the segments before: it then takes that
    run's start and ordinal and its length so far, and spliced is True,
    as it supersedes the last run yielded. fork_first goes to
    _ordered_results.
    """
    spec, q, a, limit = query.spec, query.q, query.a, query.limit
    jobs = ((spec, q, a, lo, hi)
            for lo, hi in _segment_bounds(1, limit, segment_size))
    tail = None           # the run that reaches the last set-prime so far
    n_set = 0             # set-primes in the segments before this one
    for (*_, hi), (count, starts, lengths, ordinals) in _ordered_results(
            _segment_runs, jobs, workers, fork_first):
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
        _progress(hi, segment_size, n_set)


def _collect_run_primes(spec, start, k, limit):
    """First k set-primes at/after start (they belong to one run)."""
    out = []
    lo = start
    block = 1 << 16
    while len(out) < k and lo < limit:
        hi = min(lo + block, limit)
        out += special_primes(spec, lo, hi)[:k - len(out)].tolist()
        lo = hi
        block *= 2
    return out


def find_first_string(query, workers=1,
                      segment_size=DEFAULT_SCAN_SEGMENT):
    """First string of k consecutive good special primes below limit.

    Ties and overlaps resolve to the smallest starting prime. Returns
    NotFound (a normal result, not an error) when the scan completes
    without a hit.
    """
    for starts, lengths, ordinals, _ in _runs(query, workers, segment_size):
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
    for starts, lengths, _, spliced in _runs(query, workers, segment_size,
                                            fork_first=True):
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

    def to_csv(self):
        lines = ["residue,count"]
        lines += [f"{r},{self.counts[r]}" for r in sorted(self.counts)]
        return "\n".join(lines) + "\n"


def residue_census(spec, X, q, workers=1,
                   segment_size=DEFAULT_SCAN_SEGMENT):
    """Count set-primes <= X in every residue class mod q <= MAX_CENSUS_Q."""
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
    jobs = ((spec, q, lo, hi)
            for lo, hi in _segment_bounds(1, X + 1, segment_size))
    total = np.zeros(q, dtype=np.int64)
    for (*_, hi), counts in _ordered_results(_segment_census, jobs, workers,
                                             fork_first=True):
        total += counts
        _progress(hi, segment_size, int(total.sum()))
    counts = {r: int(total[r]) for r in range(q)}
    coprime = [counts[r] for r in range(q) if math.gcd(r, q) == 1]
    mean = sum(coprime) / len(coprime)
    if mean > 0:
        max_ratio = max(coprime) / mean
        min_ratio = min(coprime) / mean
    else:
        max_ratio = min_ratio = 0.0
    return SetCensus(set_descriptor=spec.descriptor(), X=X, q=q,
                     counts=counts, phi=euler_phi(q), coprime_mean=mean,
                     max_ratio=max_ratio, min_ratio=min_ratio)


def count_primes_ap(X, q):
    """Count primes p <= X in each residue class mod q <= MAX_CENSUS_Q."""
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
