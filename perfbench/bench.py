"""Workloads, checks and metrics of the primestrings benchmark.

Two workloads, each a list of ops generated from a seed:

- scan: CLI ``strings``, ``strings --all-runs`` and ``census`` scans
  from 1, run through ``primestrings.cli.main(argv)`` in process, on a
  pool of 2 workers.
- high: single-process work on large numbers: library
  ``special_primes`` over 10^6-wide windows with lo spread over
  [10^12, 2^47), and CLI ``maier`` constructions (two of them over
  ``beatty:pi``, so spec membership is tested) plus ``counts sq|psi``.

Each op has a fixed slot in its workload (the set, the op kind and the
scale of its inputs); the seed draws residues, k and the exact limits
inside narrow ranges. That keeps the cost of a pass nearly the same for
every seed while the inputs themselves change. The package only ever
sees the generated argv lists and call arguments.

A run measures a fixed number of passes over the op list, derived from
``--seconds`` and the nominal pass time on the 2-core baseline machine,
so both sides of a comparison do the same work. Op times are scaled to
the host's speed, probed just before and after each op (see
``end_to_end``). Every op is checked after it ran, outside its timed
region; an op fails if it raises, exits 2 or 4, or fails its check.
Exit 3 (no string found) is a normal result of a first-hit query,
checked by a scan of its own; the golden query must be found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("scan", "high")

# Worker count passed to the package (the CLI default is os.cpu_count()).
# Windows always run at workers=1; ``maier`` ignores --threads today.
WORKERS = {"scan": 2, "high": 2}

# Nominal seconds of one pass on the 2-core baseline; --seconds / this
# gives the number of passes a run measures.
PASS_SECONDS = {"scan": 10.5, "high": 7.5}

DEFAULT_SEED = 1                # expected.json holds its digests

GOLDEN_ARGV = ["strings", "--set", "beatty:pi", "--k", "6", "--q", "7",
               "--a", "5", "--limit", "30000000"]
GOLDEN_PRIMES = [26402437, 26402507, 26402591, 26402843, 26402899,
                 26402927]
GOLDEN_ORDINAL = 523253

WINDOW = 10 ** 6
WINDOW_LO = 10 ** 12
WINDOW_HI = 1 << 47
WINDOW_SETS = ("all", "beatty:pi", "beatty:sqrt2", "beatty:e")
WINDOWS_PER_PASS = 4
WINDOW_SAMPLE = 256            # listed primes checked per window
WINDOW_OTHERS = 1024           # other integers checked per window
WINDOW_STRETCH = 20000         # integers of one window checked in full

SETS = {"scan": ("all", "beatty:pi", "beatty:sqrt2", "beatty:e",
                 "floorprod:loglog"),
        "high": WINDOW_SETS}

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass
class Op:
    """One call into the package, with what its check needs."""

    id: str                 # text of the inputs; keys expected digests
    kind: str               # strings|all_runs|census|window|maier|counts
    argv: list = None       # CLI argv, for CLI ops
    window: tuple = None    # (set descriptor, lo, hi), for window ops
    candidates: int = 0     # integers (or matrix cells) the op covers
    group: str = None       # census and all-runs ops sharing a scan
    params: dict = field(default_factory=dict)


def _cli_op(kind, argv, threads, candidates=0, group=None, **params):
    # results do not depend on the worker count, so the id leaves it out
    return Op(id=" ".join(argv), kind=kind,
              argv=argv + ["--threads", str(threads)],
              candidates=candidates, group=group, params=params)


def _coprime_residues(q):
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


def _even(x):
    return int(x) // 2 * 2


def scan_ops(rng, workers):
    """The scan op list: about 9 s per pass at 2 workers."""
    ops = [_cli_op("strings", GOLDEN_ARGV, workers)]
    # Short first-hit queries (k <= 4, so the hit lands in the first
    # segments): pool start-up plus a short scan, whatever the seed.
    # Half the ops are these, so op_p50_s is a short query's latency.
    for desc in ("all", "beatty:pi", "beatty:e") * 4:
        q = rng.choice((7, 9))
        a = rng.choice(_coprime_residues(q))
        k = rng.choice((3, 4))
        limit = _even(10 ** rng.uniform(7, 8))
        ops.append(_cli_op(
            "strings", ["strings", "--set", desc, "--k", str(k),
                        "--q", str(q), "--a", str(a),
                        "--limit", str(limit)], workers,
            set=desc, k=k, q=q, a=a, limit=limit))
    # Groups of ops over one (set, limit): a census and two --all-runs
    # scans with different residues, so shared sieve work can show.
    groups = (("beatty:pi", 7, 1.45e7, 1.5e7),
              ("all", 7, 1.0e7, 1.03e7),
              ("beatty:e", 5, 1.0e7, 1.03e7))
    for desc, q, lo, hi in groups:
        limit = _even(rng.uniform(lo, hi))
        group = f"{desc}@{limit}"
        ops.append(_cli_op(
            "census", ["census", "--set", desc, "--q", str(q),
                       "--limit", str(limit)], workers,
            candidates=limit, group=group, set=desc, q=q, limit=limit))
        for a in rng.sample(_coprime_residues(q), 2):
            ops.append(_cli_op(
                "all_runs", ["strings", "--set", desc, "--k", "1",
                             "--q", str(q), "--a", str(a),
                             "--limit", str(limit), "--all-runs"], workers,
                candidates=limit, group=group, set=desc, q=q, a=a,
                limit=limit))
    # Single large censuses; the floor-product one is about a quarter of
    # the pass, so that Beatty changes still show in total_s.
    for desc, qs, lo, hi in (("beatty:sqrt2", (7, 9), 3.0e7, 3.1e7),
                             ("all", (7, 9), 9.7e7, 1e8),
                             ("floorprod:loglog", (3, 4), 1.0e7, 1.03e7)):
        q = rng.choice(qs)
        limit = _even(rng.uniform(lo, hi))
        ops.append(_cli_op(
            "census", ["census", "--set", desc, "--q", str(q),
                       "--limit", str(limit)], workers,
            candidates=limit, set=desc, q=q, limit=limit))
    return ops


def window_ops(rng):
    """The windows of one pass: 4, one per set.

    lo sits near the middle of each of 4 equal slices of log lo over
    [10^12, 2^47), moved by a seeded jitter of up to 5% of a slice, so
    windows are new in every pass and seed while a slot's cost (which
    grows 5-fold over the range) stays put. The set at each slot is
    fixed too, as set costs differ up to 2-fold.
    """
    span = math.log(WINDOW_HI - WINDOW) - math.log(WINDOW_LO)
    ops = []
    for i in range(WINDOWS_PER_PASS):
        offset = 0.5 + rng.uniform(-0.05, 0.05)
        lo = int(math.exp(math.log(WINDOW_LO)
                          + span * (i + offset) / WINDOWS_PER_PASS))
        desc = WINDOW_SETS[i % len(WINDOW_SETS)]
        hi = lo + WINDOW
        ops.append(Op(id=f"special_primes {desc} {lo} {hi}", kind="window",
                      window=(desc, lo, hi), candidates=WINDOW))
    return ops


def maier_ops(rng, workers):
    """The Maier and counting ops: about 5 s per pass."""
    ops = []

    def construction(q, residues, y, yz, rows, regime, desc=None):
        a = rng.choice(residues)
        y = rng.randint(*y)
        yz = rng.randint(*yz)
        argv = ["maier", "--q", str(q), "--a", str(a), "--y", str(y),
                "--yz", str(yz), "--rows", str(rows)]
        if desc is not None:
            argv += ["--set", desc]
        ops.append(_cli_op("maier", argv, workers, candidates=rows * yz,
                           q=q, a=a, y=y, yz=yz, rows=rows, regime=regime))

    # Wide Q (probabilistic 48-round Miller-Rabin above 2^64).
    construction(5, (1, 4), (196, 204), (1950, 2050), 8, "wide")
    construction(7, (1, 6), (147, 153), (1450, 1550), 8, "wide", "beatty:pi")
    construction(3, (1, 2), (178, 184), (1760, 1840), 6, "wide")
    # Narrow Q (Q * rows < 2^64, deterministic 7-base Miller-Rabin).
    construction(5, (1, 4), (54, 58), (1950, 2050), 60, "narrow")
    construction(4, (1, 3), (45, 48), (1450, 1550), 80, "narrow", "beatty:pi")
    # Outside A+-: a is neither 1 nor -1 mod the prime dividing q.
    construction(5, (2, 3), (30, 31), (590, 610), 30, "wide")
    for q, lo, hi in ((3, 5.4e6, 5.5e6), (5, 5.4e6, 5.5e6)):
        z = int(rng.uniform(lo, hi))
        ops.append(_cli_op("counts", ["counts", "sq", "--q", str(q),
                                      "--z", str(z)], workers))
    for lo, hi, tlo, thi in ((5.4e6, 5.5e6, 95, 105),
                             (1.5e6, 1.55e6, 240, 260)):
        x = int(rng.uniform(lo, hi))
        t = rng.randint(tlo, thi)
        ops.append(_cli_op("counts", ["counts", "psi", "--x", str(x),
                                      "--t", str(t)], workers))
    return ops


def generate(workload, seed, passes, workers):
    """Op lists, one per pass. Same seed and arguments, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        ops = scan_ops(rng, workers)
        return [ops] * passes
    if workload == "high":
        ops = maier_ops(rng, workers)
        # every pass draws fresh windows: no window is measured twice
        return [window_ops(rng) + ops for _ in range(passes)]
    raise ValueError(f"unknown workload {workload!r}")


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


# ---------------------------------------------------------------------------
# running ops


class Package:
    """The imported package plus the set specs a workload uses."""

    def __init__(self, workload):
        import primestrings
        import primestrings.cli

        self.ps = primestrings
        self.cli = primestrings.cli
        self.specs = {desc: primestrings.cli.parse_set(desc)
                      for desc in SETS[workload]}


def execute(pkg, op):
    """Run one op; returns (exit code, output). Only this is timed."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pkg.cli.main(list(op.argv))
        return rc, out.getvalue(), err.getvalue()
    desc, lo, hi = op.window
    primes = pkg.ps.special.special_primes(pkg.specs[desc], lo, hi,
                                           workers=1)
    return 0, primes, ""


def digest(op, output):
    """Digest of an op's result fields (timings and layout excluded)."""
    if op.kind == "window":
        data = np.ascontiguousarray(output, dtype="<i8").tobytes()
    else:
        doc = json.loads(output)
        doc.pop("elapsed_ms", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def load_expected():
    """Recorded digests of the default seed's results, by op id."""
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["digests"]


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Checks op results; state is shared by the ops of one pass."""

    def __init__(self, pkg, seed, expected=None):
        self.pkg = pkg
        self.rng = random.Random(f"check:{seed}")
        self.expected = {} if expected is None else expected
        self.first_digest = {}      # op id -> digest of its first run
        self.census = {}            # group -> census counts
        self.full_window_done = False

    def check(self, op, rc, output):
        """(ok, reason) for one op result."""
        if rc not in (0, 3) or (rc == 3 and op.kind != "strings"):
            return False, f"exit code {rc}"
        if rc == 3 and is_golden(op):
            return False, "golden string not found"
        dig = digest(op, output)
        want = self.expected.get(op.id)
        if want is not None and want != dig:
            return False, "result digest differs from the recorded one"
        first = self.first_digest.get(op.id)
        if first is not None:
            if first != dig:
                return False, "result differs from an earlier run of this op"
            return True, ""         # same result as an already checked run
        self.first_digest[op.id] = dig
        if rc == 3:
            return self._check_not_found(op)
        return getattr(self, f"_check_{op.kind}")(op, output)

    def _check_not_found(self, op):
        """No k consecutive set-primes = a (mod q) below the limit.

        Walks the set-primes below the limit in growing blocks and
        stops at the first string, so a wrong "not found" is caught
        early; a true one costs a scan of the whole range.
        """
        p = op.params
        spec, k, q, a, limit = (self.pkg.specs[p["set"]], p["k"], p["q"],
                                p["a"], p["limit"])
        special_primes = self.pkg.ps.special.special_primes
        lo, block, run = 1, 1 << 16, 0
        while lo < limit:
            hi = min(lo + block, limit)
            for prime in special_primes(spec, lo, hi).tolist():
                run = run + 1 if prime % q == a % q else 0
                if run >= k:
                    return False, f"not found, but a string ends at {prime}"
            lo, block = hi, min(block * 2, 1 << 22)
        return True, ""

    def _check_strings(self, op, output):
        doc = json.loads(output)
        primes, ordinal = doc["primes"], doc["start_index"]
        if is_golden(op):
            if primes != GOLDEN_PRIMES or ordinal != GOLDEN_ORDINAL:
                return False, "golden string or ordinal changed"
            return True, ""
        search = self.pkg.ps.search
        p = op.params
        query = search.StringQuery(spec=self.pkg.specs[p["set"]], k=p["k"],
                                   q=p["q"], a=p["a"], limit=p["limit"])
        hit = search.StringHit(primes=primes, start_index=ordinal)
        if not search.verify_hit(query, hit):
            return False, "verify_hit rejected the hit"
        return True, ""

    def _check_census(self, op, output):
        doc = json.loads(output)
        counts = {int(r): c for r, c in doc["counts"].items()}
        if sorted(counts) != list(range(op.params["q"])):
            return False, "census residues incomplete"
        if op.group is not None:
            self.census[op.group] = counts
        return True, ""

    def _check_all_runs(self, op, output):
        doc = json.loads(output)
        runs = doc["runs"]
        p = op.params
        starts = [r["start"] for r in runs]
        if starts != sorted(starts) or any(r["length"] < 1 for r in runs):
            return False, "runs not ascending or empty"
        if any(s % p["q"] != p["a"] for s in starts):
            return False, "run start in the wrong residue class"
        counts = self.census.get(op.group)
        if counts is None:
            return False, "no census for this set and limit"
        if sum(r["length"] for r in runs) != counts[p["a"]]:
            return False, "run lengths do not sum to the census count"
        return True, ""

    def _check_window(self, op, primes):
        desc, lo, hi = op.window
        spec = self.pkg.specs[desc]
        is_prime, member = self.pkg.ps.sieve.is_prime, self.pkg.ps.member
        if primes.size and (primes[0] < lo or primes[-1] >= hi
                            or np.any(np.diff(primes) <= 0)):
            return False, "window primes out of range or not ascending"
        values = [int(p) for p in primes]
        listed = set(values)
        if self.full_window_done:
            values = self.rng.sample(values, min(WINDOW_SAMPLE, len(values)))
        else:
            # one window per run in full: every listed prime, and every
            # integer of a seeded stretch of it
            self.full_window_done = True
            start = self.rng.randrange(lo, hi - WINDOW_STRETCH)
            for m in range(start, start + WINDOW_STRETCH):
                if (m in listed) != (is_prime(m) and member(spec, m)):
                    return False, f"{m} is listed wrongly or missing"
        if not all(is_prime(p) and member(spec, p) for p in values):
            return False, "a listed prime fails is_prime or member"
        for _ in range(WINDOW_OTHERS):
            m = self.rng.randrange(lo, hi)
            if m not in listed and is_prime(m) and member(spec, m):
                return False, f"{m} is a set prime missing from the window"
        return True, ""

    def _check_maier(self, op, output):
        doc = json.loads(output)
        p = op.params
        per_row = doc["per_row"]
        if doc["rows"] != p["rows"] or len(per_row) != p["rows"]:
            return False, "row count"
        if (doc["good"] != sum(r["good"] for r in per_row)
                or doc["bad"] != sum(r["bad"] for r in per_row)
                or doc["rows_with_bad"] != sum(1 for r in per_row
                                               if r["bad"])
                or doc["max_good_run"] != max(r["longest_good_run"]
                                              for r in per_row)):
            return False, "row totals disagree with per-row counts"
        if doc["S"] + doc["T"] > doc["interval_length"]:
            return False, "S + T exceeds the interval"
        if int(doc["Q"]) != expected_Q(doc):
            return False, "Q differs from the independently built product"
        top = p["rows"] * int(doc["Q"]) + int(doc["interval_start"]) \
            + doc["interval_length"]
        want = "deterministic" if top < 1 << 64 else "probabilistic"
        if doc["primality"] != want or (want == "deterministic") != \
                (p["regime"] == "narrow"):
            return False, f"primality label {doc['primality']!r}"
        return True, ""

    def _check_counts(self, op, output):
        if json.loads(output)["count"] < 1:
            return False, "count below 1 (1 always counts)"
        return True, ""


def is_golden(op):
    return op.argv is not None and op.argv[:len(GOLDEN_ARGV)] == GOLDEN_ARGV


def _small_primes(n):
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if flags[p]]


def expected_Q(doc):
    """Q rebuilt from the construction's reported y, p0, t and yz."""
    q, a, y, p0 = doc["q"], doc["a"], doc["y"], doc["p0"]
    qf = {p for p in _small_primes(q) if q % p == 0}
    plus = all(a % p == 1 % p for p in qf)
    minus = all(a % p == (p - 1) % p for p in qf)
    small = _small_primes(y)
    if plus or minus:
        support = [p for p in small if p % q != 1 % q]
    else:
        wide_max = math.floor(doc["interval_length"] / doc["t"])
        support = [p for p in small if p % q not in (1 % q, a % q)]
        support += [p for p in small if p >= doc["t"] and p % q == 1 % q]
        support += [p for p in _small_primes(wide_max) if p % q == a % q]
    Q = q
    for p in sorted(set(support)):
        if p != p0 and q % p:
            Q *= p
    return Q


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, op, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"op": op.id, "reason": reason})


def covered(op, rc, output):
    """Integers (matrix cells for maier) an op covered; 0 for counts."""
    if op.kind == "strings":
        return json.loads(output)["primes"][-1] if rc == 0 \
            else op.params["limit"]
    return op.candidates


# Ops beyond op_tail_s: the tail is the slowest op run but this many.
TAIL_OPS = 10

# Least seconds of each host_probe kernel on the 2-vCPU baseline machine
# (Intel Xeon VM): the host speed every time is scaled to.
PROBE_REFERENCE = (1.45e-3, 0.67e-3, 0.85e-3)
# CPUs host_probe times its kernels on (4 ms each, twice per op)
PROBE_CPUS = 8


def _probe_kernels():
    times = []
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    t1 = time.perf_counter()
    times.append(t1 - t0)
    x, m = 3, (1 << 256) - 189
    for _ in range(150):
        x = pow(x, m - 1, m)
    t2 = time.perf_counter()
    times.append(t2 - t1)
    flags = np.ones(300_000, dtype=bool)
    for p in range(3, 400, 2):
        flags[p * p::p] = False
    times.append(time.perf_counter() - t2)
    return times


def _current_cpu():
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    return int(stat[stat.rindex(")") + 2:].split()[36])


def host_probe():
    """Seconds of three fixed kernels that use no package code, per CPU.

    A Python integer loop, modular powers of a 256-bit number and a
    numpy strided sieve: the kinds of work the ops do. On a shared host
    their times rise and fall with the host's speed, not the program's,
    and each vCPU has phases of its own. This process is moved onto
    each CPU it may use in turn (at most PROBE_CPUS), the one it was on
    last, so that the op to follow starts where the last kernels ran.
    """
    allowed = os.sched_getaffinity(0)
    here = _current_cpu()
    cpus = sorted(allowed - {here})[:PROBE_CPUS - 1] + [here]
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_kernels())
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def cpu_seconds():
    """CPU seconds of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


@dataclass
class OpRun:
    """One timed run of an op."""

    seconds: float
    covered: int            # integers (or matrix cells); 0 if it failed
    before: list            # host_probe() just before and just after
    after: list
    child_share: float      # share of its CPU seconds in child processes


def run_pass(pkg, ops, checker, tally, tracer=None):
    """Run and check one pass; returns an OpRun per op.

    Only ``execute`` is timed (and traced); the host is probed just
    before and just after it. The check runs after that.
    """
    records = []
    for op in ops:
        before = host_probe()
        if tracer is not None:
            tracer.enabled = True
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc, output, err = execute(pkg, op)
        except Exception:             # a failed op is counted, not fatal
            rc, output, err = None, None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t0
        here, children = (b - a for a, b in zip(cpu0, cpu_seconds()))
        if tracer is not None:
            tracer.enabled = False
        after = host_probe()
        if tracer is not None:
            if isinstance(output, str):
                tracer.count("cli.main", "output_bytes",
                             len(output.encode()))
        if rc is None:
            ok, reason = False, err
        else:
            try:
                ok, reason = checker.check(op, rc, output)
            except Exception:
                ok, reason = False, "check raised " + \
                    traceback.format_exc(limit=-3)
            if not ok and err:
                reason = f"{reason} ({err.strip()[-200:]})"
        tally.record(op, ok, reason)
        records.append(OpRun(seconds, covered(op, rc, output) if ok else 0,
                             before, after,
                             children / max(here + children, 1e-9)))
    return records


def host_factor(before, after, child_share):
    """How much slower than the reference the host ran around a timing.

    Per probe kernel and CPU, the mean of the probes just before and
    just after over the kernel's PROBE_REFERENCE time. The factor is
    the geometric mean of these on this process's CPU for the share of
    the timed CPU seconds spent here, and over all probed CPUs for the
    share spent in child processes (which run on any CPU).
    """
    def slowdown(cpus):
        return math.exp(statistics.fmean(
            math.log((b + a) / 2 / r)
            for c in cpus
            for b, a, r in zip(before[c], after[c], PROBE_REFERENCE)))
    here = slowdown([-1])
    return here * (slowdown(range(len(before))) / here) ** child_share


def end_to_end(passes):
    """End-to-end metrics from the probed run_pass records of every pass.

    Every op run counts, divided by its host factor: on a shared host,
    other tenants slow each vCPU down 1.3-1.7x, in phases of a few
    seconds to minutes, and the probes around an op see the same phase.
    So each time is the op's time at the reference host speed.
    total_s is the mean pass, op_p50_s the median op run, op_tail_s
    the slowest op run but TAIL_OPS, and candidates_per_s the work of
    the op runs that cover integers over their time.
    """
    runs = [r for records in passes for r in records]
    factors = [host_factor(r.before, r.after, r.child_share) for r in runs]
    times = [r.seconds / f for r, f in zip(runs, factors)]
    busy = [(t, r.covered) for t, r in zip(times, runs) if r.covered]
    tail_rank = min(TAIL_OPS, len(times) - 1)
    metrics = {
        "total_s": sum(times) / len(passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": sorted(times)[-1 - tail_rank],
        "candidates_per_s": sum(c for _, c in busy)
        / sum(t for t, _ in busy),
    }
    info = {"op_tail_percentile": 100.0 * (len(times) - tail_rank)
            / len(times),
            "ops_beyond_tail": tail_rank, "op_runs": len(times),
            "passes": len(passes),
            "host_factor_median": statistics.median(factors),
            "probe_least": [min(cpu[k] for r in runs
                                for cpu in r.before + r.after)
                            for k in range(len(PROBE_REFERENCE))],
            "unscaled_total_s": sum(r.seconds for r in runs) / len(passes)}
    return metrics, info


def layer_metrics(tracer, traced_s, untraced_s):
    """Per-layer metrics from a traced pass and its untraced twin."""
    spans = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    def count(name, key):
        return counters.get(name, {}).get(key, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {}
    for name in ("sieve.sieve_range", "sieve.is_prime",
                 "fixedpoint.floor_mul", "fixedpoint.floor_div",
                 "special.enumerate_special", "special.special_primes",
                 "special.member"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["sieve.sieve_range.candidates"] = count("sieve.sieve_range",
                                              "candidates")
    m["sieve.sieve_range.primes"] = count("sieve.sieve_range", "primes")
    m["sieve.is_prime.prime_frac"] = share(count("sieve.is_prime", "prime"),
                                           calls("sieve.is_prime"))
    members = count("special.enumerate_special", "members")
    m["special.enumerate_special.members"] = members
    m["special.enumerate_special.recheck_frac"] = share(
        count("fixedpoint.floor_mul", "under_enumerate"), members)
    m["special.special_primes.primes"] = count("special.special_primes",
                                               "primes")
    for fn in ("find_first_string", "scan_all_strings", "residue_census"):
        m[f"search.{fn}.self_s"] = self_s(f"search.{fn}")
    m["search.runs"] = count("search.scan_all_strings", "runs")
    for fn in ("run_construction", "build_Q", "anchored_interval",
               "sample_rows_census", "count_S_q", "count_psi",
               "bound_report"):
        m[f"maier.{fn}.self_s"] = self_s(f"maier.{fn}")
    m["maier.sample_rows_census.cells"] = count("maier.sample_rows_census",
                                                "cells")
    arith = [n for n in spans if n.startswith("arith.")]
    m["arith.calls"] = sum(calls(n) for n in arith)
    m["arith.self_s"] = sum(self_s(n) for n in arith)
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.output_bytes"] = count("cli.main", "output_bytes")
    m["trace.total_s"] = traced_s
    m["trace.closure_frac"] = share(sum(s for _, s in spans.values()),
                                    traced_s)
    m["trace.overhead_frac"] = share(traced_s - untraced_s, untraced_s)
    return m
