"""Maier-matrix constructions over special residue classes.

The matrix has entries r*Q + i with rows r = 1..R and columns i from an
interval I of length y*z. Q is q times a product of primes P_a chosen
by the residue case of a mod q, so columns carry fixed residues mod q
and coprimality to Q is a column property. S columns are coprime and
= a (mod q); T columns are coprime with other residues. Row scans count
"good" primes (= a mod q) against "bad" ones and track the longest good
run per row.

All Q-sized arithmetic is exact big-int; only column indices (bounded
by y*z) go through numpy.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import euler_phi, prime_factors, crt_pair
from .errors import (EmptyProductWarning, IntervalTooLarge, InvalidQuery,
                     ParameterDomain, RangeExceeded, RangeTooLarge)
from .sieve import (MAX_SCAN_HI, MAX_SCAN_SPAN, _PRIMALITY_CEILING,
                    _base_primes, _class_primes, _segment_bounds, _strike,
                    is_prime, primality_is_deterministic, sieve_range)
from .search import (DEFAULT_SCAN_SEGMENT, _forked_results, _good_runs,
                     check_workers)
from .special import member, SpecialSetSpec

E_POW_E = math.exp(math.e)              # ~15.154, threshold for t
X_FLOOR = math.exp(math.exp(math.e))    # loglog X must exceed e
MAX_INTERVAL = 10 ** 8
# per_row, census_json and its JSON text take about 435 bytes a row
# (ru_maxrss 34.5 -> 78.0 MB from 1 to 10^5 rows at yz = 1, at 1 and 2
# workers), so a census of MAX_ROWS rows peaks near 0.9 GB
MAX_ROWS = 2 * 10 ** 6
_PRESIEVE_B = 1 << 16                   # row presieve: primes up to this
# _residues reads n 63 - b bits at a time, b the bits of B - 1, B =
# _PRESIEVE_B >= 3: no prime <= B has more (a power of 2 is no prime)
_LIMB_BITS = 63 - (_PRESIEVE_B - 1).bit_length()

PHI_NOTE = ("k-bound exponents are evaluated with phi(q); the asymptotic "
            "statement they mirror uses phi(Q), which is far larger")


# ---------------------------------------------------------------------------
# carrier density


D = 2.0                                 # remainder quality D(X), every set


def carrier_F(spec, X):
    """F(X) = X / (E(X) log X): how much sparser the set's carrier is
    than the primes (F is 1 for the full primes).

    The carrier density is E(X) = f^{-1}(X) / log X for a floor product
    f(x) = x g(x) and E(X) = X / log X for every other set.
    """
    E = spec.g.inverse(X) / math.log(X) if spec.kind == "floorprod" \
        else X / math.log(X)
    if E <= 0:
        raise ParameterDomain(f"E({X}) = {E} must be positive")
    return X / (E * math.log(X))


# ---------------------------------------------------------------------------
# residue classification and parameters


def classify_residue(a, q):
    """Residue case of a mod q: A_plus, A_minus, both, or other.

    a is in A_plus when a = 1 mod every prime dividing q, in A_minus
    when a = -1 mod every such prime; prime powers of 2 make the two
    coincide.
    """
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise InvalidQuery(f"need gcd(a, q) = 1, got gcd({a}, {q})")
    ps = prime_factors(q)
    plus = all(a % p == 1 % p for p in ps)
    minus = all(a % p == (p - 1) % p for p in ps)
    if plus and minus:
        return "both"
    if plus:
        return "A_plus"
    if minus:
        return "A_minus"
    return "other"


@dataclass(frozen=True)
class ChosenParams:
    y: int
    p0: int
    t: Optional[float]
    z: int


def _smallest_prime_above(x, avoid_divisor_of):
    n = max(2, math.floor(x) + 1)
    while True:
        if is_prime(n) and avoid_divisor_of % n != 0:
            return n
        n += 1


def choose_parameters(X, q, spec, y_override=None):
    """Derive (y, p0, t, z) for a construction over spec at scale X.

    z = ceil(max(F(X)^3, D^3)) with F = carrier_F; y defaults to
    ceil(log X / D);
    t = exp(log y * logloglog y / (4 loglog y)), undefined (None) when
    y <= e^e; p0 is the smallest prime above log y not dividing q.
    """
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    if X <= X_FLOOR:
        raise ParameterDomain(
            f"X must exceed e^(e^e) ~ {X_FLOOR:.0f} so loglog X > e")
    if X > sys.float_info.max:
        raise ParameterDomain(
            f"X must not exceed the largest float, {sys.float_info.max!r}: "
            f"F(X) and the bounds are evaluated in floats")
    if y_override is not None and y_override < 7:
        raise ParameterDomain(f"y override must be >= 7, got {y_override}")
    z = math.ceil(max(carrier_F(spec, X) ** 3, D ** 3))
    y = int(y_override) if y_override is not None else \
        math.ceil(math.log(X) / D)
    if y > E_POW_E:
        ly = math.log(y)
        t = math.exp(0.25 * ly * math.log(math.log(ly)) / math.log(ly))
    else:
        t = None
    p0 = _smallest_prime_above(math.log(y), q)
    return ChosenParams(y=y, p0=p0, t=t, z=z)


# ---------------------------------------------------------------------------
# the product Q and the column interval


@dataclass(frozen=True)
class QProduct:
    Q: int
    P_a: tuple
    case: str


def _knobs(case_tag):
    """The parameters that set Q's size: outside A±, Q also holds the
    primes = a (mod q) up to yz/t."""
    return "--yz, y" if case_tag == "other" else "y"


def build_Q(q, a, y, p0, t=None, yz_over_t=None):
    """Assemble the prime support P_a and the modulus Q = q * prod(P_a).

    P_a holds the primes p not dividing q, p != p0, by r = p mod q. A±
    (A_plus, A_minus, both): p <= y with r != 1. Otherwise p <= y with
    r != 1, a; t <= p <= y with r = 1; p <= y*z/t with r = a (only this
    case reads t and yz_over_t). One rule keeps both: p <= (yz/t if
    r = a else y) and (r != 1 or p >= t), with t = inf, yz/t = y in A±.

    One walk lists the primes up to the larger bound, below
    MAX_SCAN_SPAN = 2^31, in windows of search.DEFAULT_SCAN_SEGMENT
    integers. A Q past 2^256 puts every matrix entry beyond is_prime:
    each p is at least 2^(e - 1), for frexp's exponent e of p, so the
    walk refuses Q at the first window where those exponents reach 256,
    before that window's primes become Python ints.
    """
    cls = classify_residue(a, q)
    if y < 2:
        raise ParameterDomain(f"y must be >= 2, got {y}")
    if not is_prime(p0) or q % p0 == 0:
        raise ParameterDomain(f"p0 = {p0} must be a prime not dividing q")
    if cls == "other":
        if t is None:
            raise ParameterDomain(
                f"a = {a} is not an A± residue mod {q}, so t is needed and "
                f"y must exceed e^e ~ {E_POW_E:.2f}; got y = {y}, use "
                f"--y {math.floor(E_POW_E) + 1} or more")
        if yz_over_t is None:
            raise ParameterDomain("non-A± case needs yz/t")
        if t > yz_over_t:
            raise ParameterDomain(
                f"need t <= sqrt(y z): t = {t}, so y z must be at least "
                f"ceil(t^2) = {math.ceil(t * t)}; raise --yz")
    t, wide = (t, math.floor(yz_over_t)) if cls == "other" else (math.inf, y)
    top = max(y, wide)
    if top >= MAX_SCAN_SPAN:
        raise RangeTooLarge(f"{'y' if top == y else 'yz/t'} = {top} must "
                            f"be below MAX_SCAN_SPAN = {MAX_SCAN_SPAN}")
    one, a_mod, factors = 1 % q, a % q, prime_factors(q)
    q_int64 = min(q, 1 << 62)           # p < 2^31, so p mod this is p mod q
    pa, bits = [], 0
    for lo, hi in _segment_bounds(0, top + 1, DEFAULT_SCAN_SEGMENT):
        p = sieve_range(lo, hi)
        r = p % q_int64
        p = p[(p <= np.where(r == a_mod, wide, y)) & ((r != one) | (p >= t))
              & (p != p0) & ~np.isin(p, factors)]
        bits += int((np.frexp(p)[1] - 1).sum())
        if bits >= 256:
            raise RangeExceeded(
                f"y = {y} makes Q at least 2^{bits}, which puts every entry "
                f"of the matrix beyond the supported primality range "
                f"(2^256); lower {_knobs(cls)}")
        pa += p.tolist()
    if not pa:
        warnings.warn(f"P_a is empty for a={a}, q={q}, y={y}; Q = q",
                      EmptyProductWarning)
    return QProduct(Q=math.prod(pa, start=q), P_a=tuple(pa),
                    case="A_plus" if cls == "both" else cls)


@dataclass(frozen=True)
class MaierConfig:
    q: int
    a: int
    y: int
    p0: int
    t: Optional[float]
    z: int
    Q: int
    case_tag: str
    P_a: tuple


def make_config(q, a, y, p0, t, z, product: QProduct):
    return MaierConfig(q=q, a=a, y=y, p0=p0, t=t, z=z,
                       Q=product.Q, case_tag=product.case,
                       P_a=product.P_a)


def crt_anchor(config, sign):
    """Smallest positive x with x = 0 mod rad(Q/q) and x = a-+1 mod q.

    sign "plus" targets a-1 (anchoring m with m+1 = a mod q after the
    coprime shift), "minus" targets a+1.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be plus or minus, got {sign!r}")
    R = config.Q // config.q
    residue = (config.a - 1) % config.q if sign == "plus" else \
        (config.a + 1) % config.q
    x = crt_pair(0, R, residue, config.q)
    return x if x > 0 else R * config.q


def anchored_interval(config, yz):
    """The CRT anchors and the column interval I as (start, length).

    A_plus: {m+1 .. m+yz}; A_minus: {n-yz+1 .. n}, with n lifted by
    multiples of Q until the start is positive; other: {1 .. yz}.
    """
    if yz < 1:
        raise InvalidQuery(f"yz must be >= 1, got {yz}")
    if yz > MAX_INTERVAL:
        raise IntervalTooLarge(f"yz = {yz} > {MAX_INTERVAL}")
    anchors = {"plus": crt_anchor(config, "plus"),
               "minus": crt_anchor(config, "minus")}
    if config.case_tag == "A_plus":
        return anchors, (anchors["plus"] + 1, yz)
    if config.case_tag == "A_minus":
        n = anchors["minus"]
        if n < yz:
            n += -(-(yz - n) // config.Q) * config.Q
            anchors["minus"] = n
        return anchors, (n - yz + 1, yz)
    return anchors, (1, yz)


# ---------------------------------------------------------------------------
# column sets and row sampling


@dataclass(frozen=True)
class STCount:
    S: int
    T: int
    S_members: tuple


def _coprime_mask(config, start, length):
    """Coprimality to Q over the interval, via the prime support of Q."""
    if length > MAX_INTERVAL:
        raise IntervalTooLarge(f"interval length {length} > {MAX_INTERVAL}")
    support = sorted(set(prime_factors(config.q)) | set(config.P_a))
    shared = np.zeros(length, dtype=bool)
    first = np.array([(-start) % p for p in support], dtype=np.int64)
    _strike(shared, first, np.array(support, dtype=np.int64))
    return ~shared


def _s_mask(config, start, mask):
    """The coprime columns = a (mod q), the set S, as a column mask."""
    s_mask = np.zeros(mask.size, dtype=bool)
    s_mask[(config.a - start) % config.q::config.q] = True
    return s_mask & mask


def count_S_T(config, interval):
    """Split coprime columns into S (= a mod q) and T (the rest)."""
    start, length = interval
    mask = _coprime_mask(config, start, length)
    s_idx = np.flatnonzero(_s_mask(config, start, mask))
    return STCount(S=int(s_idx.size), T=int(mask.sum()) - int(s_idx.size),
                   S_members=tuple(start + int(j) for j in s_idx))


@dataclass
class MaierCensus:
    """Sampled row statistics of the Maier matrix."""

    S_count: int
    T_count: int
    rows_sampled: int
    per_row: list            # (r, good, bad, longest_good_run)
    good_total: int          # the totals derive from per_row
    bad_total: int
    rows_with_bad: int
    max_good_run: int
    deterministic: bool      # primality testing stayed below 2^64


def _residues(n, ps):
    """n mod p for each p of the int64 array ps (every p <= _PRESIEVE_B),
    for a nonnegative int n: Horner's rule over the w-bit limbs of n,
    w = _LIMB_BITS, one numpy pass per limb; r < p < 2^(63 - w) keeps
    r 2^w + limb below 2^63."""
    r = np.zeros(ps.size, dtype=np.int64)
    w = _LIMB_BITS
    for shift in range(n.bit_length() // w * w, -1, -w):
        r = ((r << w) + ((n >> shift) & ((1 << w) - 1))) % ps
    return r


def _row_block(matrix, r0, r1):
    """per_row of rows r0..r1, from the setup sample_rows_census builds
    once, matrix = (Q, start, mask, s_mask, ps, q_mod, passes); earlier
    rows enter only through the presieve start (start + (r0 - 1) Q) mod p.
    """
    Q, start, mask, s_mask, ps, q_mod, passes = matrix
    res = _residues(start + (r0 - 1) * Q, ps)
    per_row = []
    for r in range(r0, r1 + 1):
        base = r * Q + start
        res = (res + q_mod) % ps                    # base mod p
        first = (ps - res) % ps                     # first column p divides
        if base <= _PRESIEVE_B:
            keep = base + first == ps               # the entry c = p
            first[keep] += ps[keep]
        struck = np.zeros(mask.size, dtype=bool)
        _strike(struck, first, ps)
        cols = [j for j in np.flatnonzero(mask & ~struck).tolist()
                if passes(base + j)]
        runs = _good_runs(s_mask[cols])[1]
        good = int(runs.sum())
        per_row.append((r, good, len(cols) - good, int(runs.max(initial=0))))
    return per_row


def _check_rows(rows):
    """Refuse a row count outside 1..MAX_ROWS, before any work."""
    if rows < 1:
        raise InvalidQuery(f"rows must be >= 1, got {rows}")
    if rows > MAX_ROWS:
        raise InvalidQuery(f"rows = {rows} exceeds MAX_ROWS = {MAX_ROWS}, "
                           f"the most a census holds; lower --rows")


def sample_rows_census(config, interval, rows,
                       spec=SpecialSetSpec.all_primes(), workers=1):
    """Scan rows r = 1..rows of the matrix, rows at most MAX_ROWS, for
    good and bad primes of spec's set, by default every prime.

    A prime at column i is good when i = a (mod q). Only columns
    coprime to Q can contribute primes beyond Q's own support, so the
    scan walks those columns. Every entry r*Q + i keeps its column's
    residue i mod q, which holds for all rows exactly when q divides Q:
    S is one column mask, and a row's good runs are runs of S columns.

    The column masks, the presieve primes with Q mod p and the test
    order are the same in every row, so they are built once, here.
    Rows then run in one block per worker, blocks of ceil(rows /
    workers) rows, through search._forked_results: the calling process
    runs the first block and a forked child, which inherits the setup,
    each other one. A block r0..r1 computes only its presieve start,
    (start + (r0 - 1) Q) mod p for each presieve prime p. per_row is
    the blocks' rows in order, and every total derives from it, so the
    census does not depend on the worker count.

    Before any primality test, each row is presieved by the primes
    p <= _PRESIEVE_B = 2^16 that do not divide Q, read from the sieve's
    per-process base-prime array, with Q and the block's start mod p
    taken by _residues: an entry c with p | c is composite unless
    c = p. Each p strikes every p-th column from the first one it
    divides, through sieve._strike, the kernel of the segment sieve;
    that start moves up by p when the entry there is p itself (entries
    fall below the bound when Q is small). Only the unstruck coprime
    entries reach is_prime and the set filter.

    The tests run cheapest first: presieve, then Beatty membership,
    then is_prime (BPSW), then floor-product membership, which costs
    more than BPSW below 2^48, the only range where it is decided; a
    census whose largest entry reaches 2^48 is refused before any row.
    Since (p and m) = (m and p), the order changes no per_row tuple,
    but beatty_member may raise PrecisionExhausted on a composite
    entry, which needs m/alpha within about m 2^-bits of an integer.
    """
    _check_rows(rows)
    check_workers(workers)
    if config.Q % config.q != 0:
        raise ParameterDomain(
            f"Q = {config.Q} is not a multiple of q = {config.q}, so rows "
            f"do not keep the column residues mod q")
    start, length = interval
    top = rows * config.Q + start + length - 1          # the largest entry
    lower = f"{_knobs(config.case_tag)} or rows"
    if top > _PRIMALITY_CEILING:
        raise RangeExceeded(
            f"y = {config.y} and rows = {rows} put {top.bit_length()}-bit "
            f"entries in the matrix, beyond the supported primality range "
            f"(2^256); lower {lower}")
    if spec.kind == "floorprod" and top >= MAX_SCAN_HI:
        raise RangeTooLarge(
            f"y = {config.y} and rows = {rows} put entries up to {top} in "
            f"the matrix, but floor-product membership is decided only "
            f"below 2^48 = {MAX_SCAN_HI}; lower {lower}")
    mask = _coprime_mask(config, start, length)
    s_mask = _s_mask(config, start, mask)
    ps = _base_primes(_PRESIEVE_B)
    q_mod = _residues(config.Q, ps)
    ps, q_mod = ps[q_mod > 0], q_mod[q_mod > 0]     # p not dividing Q
    if spec.kind == "beatty":
        def passes(c):
            return member(spec, c) and is_prime(c)
    else:
        def passes(c):
            return is_prime(c) and member(spec, c)
    matrix = config.Q, start, mask, s_mask, ps, q_mod, passes
    size = -(-rows // workers)
    blocks = [(r0, min(r0 + size - 1, rows))
              for r0 in range(1, rows + 1, size)]
    results = _forked_results(lambda rs: _row_block(matrix, *rs), blocks)
    per_row = [row for block in results for row in block]
    s_count = int(s_mask.sum())
    _, goods, bads, bests = zip(*per_row)
    return MaierCensus(S_count=s_count, T_count=int(mask.sum()) - s_count,
                       rows_sampled=rows, per_row=per_row,
                       good_total=sum(goods), bad_total=sum(bads),
                       rows_with_bad=sum(map(bool, bads)),
                       max_good_run=max(bests),
                       deterministic=primality_is_deterministic(top + 1))


# ---------------------------------------------------------------------------
# counting functions and bound evaluation


def _count_products(ps, bound, return_members):
    """Count n <= bound whose prime factors all lie in ps; 1 counts.

    ps is ascending; count_S_q and count_psi pass an array("q"), 8
    bytes a prime where a list holds a Python int for each. The walk
    builds each n once, as value * p^e with p above every prime of
    value, and recurses to the primes after p with budget // p^e. Once
    p^2 > budget, value * r has no room for a second factor >= r for
    any listed r in [p, budget], so those n are leaves: one bisect
    counts them (or lists them) with no call per n. The parent makes
    that bisect itself for a child whose budget is below the square of
    the next prime, the child's first, so it makes no call for a child
    of leaves only. Each level adds a distinct prime, so the depth is
    the most distinct primes of an n <= bound, not log2(bound). With
    return_members the sorted n are returned.
    """
    if bound < 1:
        return [] if return_members else 0
    members = [1] if return_members else None
    n_ps = len(ps)

    def rec(j, value, budget):
        count = 0
        for i in range(j, n_ps):
            p = ps[i]
            nb = budget // p
            if nb < p:
                k = bisect.bisect_right(ps, budget, i)
                if members is not None:
                    members.extend(value * r for r in ps[i:k])
                return count + k - i
            # past the last prime no child has a member: bisect finds none
            sq = ps[i + 1] ** 2 if i + 1 < n_ps else budget + 1
            pe = p
            while nb:
                vp = value * pe
                if members is not None:
                    members.append(vp)
                count += 1
                if nb >= sq:           # the child holds more than leaves
                    count += rec(i + 1, vp, nb)
                elif nb > p:           # leaves only: the primes in (p, nb]
                    k = bisect.bisect_right(ps, nb, i + 1)
                    if members is not None:
                        members.extend(vp * r for r in ps[i + 1:k])
                    count += k - i - 1
                pe *= p
                nb //= p
        return count

    count = 1 + rec(0, 1, int(bound))
    if return_members:
        members.sort()
        return members
    return count


def _as_array(primes):
    """The int64 array primes as an array("q"), copied once."""
    ps = array("q")
    ps.frombytes(memoryview(primes).cast("B"))
    return ps


def count_S_q(q, z, return_members=False):
    """Count n <= z whose prime factors are all = 1 (mod q); 1 counts.

    Exact, in one process. z must lie below MAX_SCAN_SPAN; the primes
    come from sieve._class_primes, which sieves only the class 1 mod q.
    """
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    z = int(z)
    if z >= MAX_SCAN_SPAN:
        raise RangeTooLarge(f"z {z} must be below MAX_SCAN_SPAN = "
                            f"{MAX_SCAN_SPAN}")
    return _count_products(_as_array(_class_primes(q, z)), z,
                           return_members)


def count_psi(x, t, return_members=False):
    """Psi(x, t): count n <= x with every prime factor strictly below t.

    Exact, in one process. Only primes below min(t, x + 1) can divide
    such an n; that bound must not exceed MAX_SCAN_SPAN. The sieve's
    primes are below hi, which is at most ceil(t) when any prime is
    below it, so they are below t and need no filter.
    """
    x = int(x)
    hi = max(2, min(math.ceil(t), x + 1))
    if hi > MAX_SCAN_SPAN:
        raise RangeTooLarge(f"t {t} and x {x} need the primes below {hi}, "
                            f"more than MAX_SCAN_SPAN = {MAX_SCAN_SPAN}")
    return _count_products(_as_array(sieve_range(0, hi)), x, return_members)


def estimate_string_bound(x_scales, d_value, f_value, q, case):
    """Evaluate the guaranteed-string-length exponent at scale X.

    x_scales = (loglog X, logloglog X, loglogloglog X). The A± cases
    use (loglog X / log max(D, F))^(1/phi(q)); other residues carry the
    extra logloglog factors. See PHI_NOTE for the phi(q) caveat.
    """
    loglog_x, logloglog_x, loglogloglog_x = x_scales
    m = max(d_value, f_value)
    if m <= 1:
        raise ParameterDomain(f"max(D, F) = {m} must exceed 1")
    denom = math.log(m)
    if case in ("A_plus", "A_minus", "both"):
        base = loglog_x / denom
    else:
        if logloglog_x <= 0 or loglogloglog_x <= 0:
            raise ParameterDomain("iterated logs of X must be positive")
        base = loglog_x * loglogloglog_x / (logloglog_x * denom)
    if base <= 0:
        raise ParameterDomain(f"bound base {base} must be positive")
    return base ** (1.0 / euler_phi(q))


def case1_proxy(log_y_t, log_z, q):
    """Pigeonhole run-length proxy (log(y,t) / log z)^(1/phi(q))."""
    if log_y_t <= 0 or log_z <= 0:
        raise ParameterDomain("log(y,t) and log z must be positive")
    return (log_y_t / log_z) ** (1.0 / euler_phi(q))


def log_y_t(config):
    """log y for A± residues, log t otherwise."""
    if config.case_tag in ("A_plus", "A_minus"):
        return math.log(config.y)
    if config.t is None:
        raise ParameterDomain("non-A± case needs t")
    return math.log(config.t)


def bound_report(config, X, spec):
    """All bound evaluations for a config over spec at scale X, JSON-ready."""
    ll = math.log(math.log(X))
    lll = math.log(ll)
    llll = math.log(lll)
    f_value = carrier_F(spec, X)
    scales = (ll, lll, llll)
    report = {
        "loglog_X": ll,
        "phi_q": euler_phi(config.q),
        "case": config.case_tag,
        "bound_A_pm": estimate_string_bound(scales, D, f_value, config.q,
                                            "A_plus"),
        "bound_other": estimate_string_bound(scales, D, f_value, config.q,
                                             "other"),
        "phi_note": PHI_NOTE,
    }
    report["bound"] = report["bound_A_pm"] \
        if config.case_tag in ("A_plus", "A_minus") else \
        report["bound_other"]
    try:
        report["case1_proxy"] = case1_proxy(
            log_y_t(config), math.log(config.z), config.q)
    except (ParameterDomain, ValueError):
        report["case1_proxy"] = None
    return report


# ---------------------------------------------------------------------------
# end-to-end construction


def run_construction(q, a, y=None, p0=None, yz=None, rows=1000,
                     spec=SpecialSetSpec.all_primes(), X=10.0 ** 8,
                     workers=1):
    """Assemble a full construction: parameters, Q, interval, row census.

    Explicit y/p0/yz win over the chosen defaults. rows and yz, given or
    derived, are checked first: outside A± build_Q lists primes up to
    yz/t. build_Q then refuses a y from 2^31 and a Q past 2^256 as it
    lists P_a. z and the bounds follow the set's carrier density
    (carrier_F). Returns (config, interval, census, bounds); spec
    defaults to every prime; workers bounds the row census's processes.
    """
    _check_rows(rows)
    chosen = choose_parameters(X, q, spec, y_override=y)
    y, t = chosen.y, chosen.t
    p0 = p0 if p0 is not None else chosen.p0
    given = yz is not None
    z = max(1, -(-yz // y)) if given else chosen.z
    yz = yz if given else y * z
    if not 1 <= yz <= MAX_INTERVAL:
        raise IntervalTooLarge(
            f"--yz {yz} must lie in [1, {MAX_INTERVAL}]" if given else
            f"the default yz = y z = {y} * {z} exceeds {MAX_INTERVAL}: z = "
            f"ceil(max(F(X)^3, D^3)), where F(X) = {carrier_F(spec, X):.6g}"
            f" is how much sparser {spec.descriptor()} is than the primes "
            f"at X = {X}; give --yz, or a smaller --x")
    product = build_Q(q, a, y, p0, t, yz / t if t else None)
    config = make_config(q, a, y, p0, t, z, product)
    anchors, interval = anchored_interval(config, yz)
    census = sample_rows_census(config, interval, rows, spec=spec,
                                workers=workers)
    bounds = bound_report(config, X, spec)
    bounds["anchors"] = {k: str(v) for k, v in anchors.items()}
    return config, interval, census, bounds


def census_json(config, interval, census, bounds=None):
    """JSON-ready dict for a construction census (Q as decimal string)."""
    start, length = interval
    doc = {
        "q": config.q,
        "a": config.a,
        "y": config.y,
        "p0": config.p0,
        "t": config.t,
        "z": config.z,
        "Q": str(config.Q),
        "case": config.case_tag,
        "interval_start": str(start),
        "interval_length": length,
        "S": census.S_count,
        "T": census.T_count,
        "rows": census.rows_sampled,
        "good": census.good_total,
        "bad": census.bad_total,
        "rows_with_bad": census.rows_with_bad,
        "max_good_run": census.max_good_run,
        "per_row": [{"row": r, "good": g, "bad": b, "longest_good_run": l}
                    for r, g, b, l in census.per_row],
        "case_summary": {
            "case1_rows_with_bad": census.rows_with_bad,
            "case2_rows_without_bad":
                census.rows_sampled - census.rows_with_bad,
            "case2_good_in_clean_rows":
                sum(g for _, g, b, _ in census.per_row if b == 0),
            "max_good_run": census.max_good_run,
        },
        "exceptionality": "unverified",
        "primality": "deterministic" if census.deterministic
                     else "probabilistic",
    }
    if bounds is not None:
        doc["bounds"] = bounds
    return doc
