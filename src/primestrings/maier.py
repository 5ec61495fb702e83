"""Maier-matrix constructions over special residue classes.

The matrix has entries r*Q + i with rows r = 1..R and columns i from an
interval I of length y*z. Q is q times a product of primes P_a chosen
by the residue case of a mod q, so columns carry fixed residues mod q
and coprimality to Q is a column property. S columns are coprime and
= a (mod q); T columns are coprime with other residues. Row scans count
"good" primes (= a mod q) against "bad" ones and track the longest good
run per row.

All Q-sized arithmetic is exact big-int. numpy holds column indices
(bounded by y*z), and matrix entries only in a census whose every entry
lies below 2^62.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import euler_phi, prime_factors, crt_pair
from .errors import (EmptyProductWarning, IntervalTooLarge, InvalidQuery,
                     InvalidRange, ParameterDomain, RangeExceeded,
                     RangeTooLarge)
from .sieve import (MAX_SCAN_HI, MAX_SCAN_SPAN, _BATCH_HI,
                    _PRIMALITY_CEILING, _base_primes, _batch_ok,
                    _class_primes, _is_prime_batch, _segment_bounds, _strike,
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
# a row block tests its presieve survivors once this many have gathered:
# one batched test spans many rows, and the gathered arrays stay small
_TEST_CELLS = 1 << 16
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


def _set_primes(spec, Q, start, length, narrow):
    """keep(row, col): whether each entry row Q + start + col, a presieve
    survivor, is a prime of spec's set, tested in sample_rows_census's
    order. With narrow, every entry lies below _BATCH_HI, so the entries
    are one int64 array; else they are Python ints, one call each.
    """
    def keep(row, col):
        if narrow:
            cells = row * Q + (start + col)
        else:
            cells = row.astype(object) * Q + start + col.astype(object)
        ok = np.ones(cells.size, dtype=bool)
        if spec.kind != "all" and narrow:       # ascending parts for member
            cuts = np.flatnonzero(np.diff(row)) + 1 if Q < length else []
            ok = np.concatenate([member(spec, c)
                                 for c in np.split(cells, cuts)])
        elif spec.kind != "all":
            ok[:] = [member(spec, c) for c in cells.tolist()]
        at = np.flatnonzero(ok)
        at = at[cells[at] >= _PRESIEVE_B ** 2]
        ok[at] = _is_prime_batch(cells[at]) if narrow and _batch_ok() else \
            [is_prime(c) for c in cells[at].tolist()]
        return ok
    return keep


def _row_block(matrix, r0, r1):
    """per_row of rows r0..r1, from the setup sample_rows_census builds
    once, matrix = (Q, start, mask, s_mask, ps, q_mod, keep); earlier
    rows enter only through the presieve start (start + (r0 - 1) Q) mod p.
    keep takes the presieve survivors of consecutive rows at once, as
    their rows and columns, once at least _TEST_CELLS have gathered and
    after the block's last row.
    """
    Q, start, mask, s_mask, ps, q_mod, keep = matrix
    res = _residues(start + (r0 - 1) * Q, ps)
    per_row, rows, cols, gathered = [], [], [], 0
    for r in range(r0, r1 + 1):
        base = r * Q + start
        res = (res + q_mod) % ps                    # base mod p
        first = (ps - res) % ps                     # first column p divides
        if base <= _PRESIEVE_B:
            own = base + first == ps                # the entry c = p
            first[own] += ps[own]
        struck = np.zeros(mask.size, dtype=bool)
        _strike(struck, first, ps)
        rows.append(r)
        cols.append(np.flatnonzero(mask & ~struck))
        gathered += cols[-1].size
        if gathered < _TEST_CELLS and r < r1:
            continue
        sizes = [c.size for c in cols]
        kept = np.split(keep(np.repeat(rows, sizes), np.concatenate(cols)),
                        np.cumsum(sizes)[:-1])
        for row, c, k in zip(rows, cols, kept):
            runs = _good_runs(s_mask[c[k]])[1]
            good = int(runs.sum())
            per_row.append((row, good, int(k.sum()) - good,
                            int(runs.max(initial=0))))
        rows, cols, gathered = [], [], 0
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
    The interval starts at 1 or above, as anchored_interval's do.

    The column masks, the presieve primes with Q mod p and the test
    order are the same in every row, so they are built once, here.
    Rows then run in one block per worker, blocks of ceil(rows /
    workers) rows, through search._forked_results: the calling process
    runs the first block and a forked child, which inherits the setup,
    each other one. A block r0..r1 computes only its presieve start,
    (start + (r0 - 1) Q) mod p for each presieve prime p. per_row is
    the blocks' rows in order, and every total derives from it, so the
    census does not depend on the worker count.

    Each row is presieved by the primes p <= _PRESIEVE_B = 2^16 that do
    not divide Q, from the sieve's base-prime array, with Q and the
    block's start mod p taken by _residues: an entry c with p | c is
    composite unless c = p. Each p strikes every p-th column from the
    first one it divides, through sieve._strike, the kernel of the
    segment sieve; that start moves up by p when the entry there is p
    itself (entries fall below the bound when Q is small). A census
    with no coprime column has no entry to test, and its rows are
    (r, 0, 0, 0) with no presieve.

    A block gathers the unstruck coprime entries of consecutive rows,
    _TEST_CELLS or more (fewer at the block's end), and tests their set
    membership, then the primality of the members alone: a set keeps a
    fraction of them (1/alpha, or about 1/g(n)), and membership costs
    less than BPSW. Below 2^62 member takes them as one array (one a
    row where Q < length, as only there do rows overlap in value), for
    special._mask, the span kernel of the scans; above, one Python int
    a call, for Beatty sets alone: a floor-product census is refused
    from 2^48, where its membership is not decided. Primality:
      - an entry below _PRESIEVE_B^2 = 2^32 is prime with no test: it
        has no prime factor up to 2^16 but itself (the presieve strikes
        the primes not dividing Q, the coprime mask those that do);
      - where the census's largest entry is below 2^62 (sieve._BATCH_HI)
        and the platform passes sieve._batch_ok, the entries from 2^32
        take sieve._is_prime_batch, one numpy pass per bit over all of
        them, with is_prime's verdicts;
      - every other entry takes is_prime (BPSW), one Python int a call.
    The order changes no per_row tuple, but membership, asked first,
    may raise PrecisionExhausted on a composite entry too.
    """
    _check_rows(rows)
    check_workers(workers)
    if config.Q % config.q != 0:
        raise ParameterDomain(
            f"Q = {config.Q} is not a multiple of q = {config.q}, so rows "
            f"do not keep the column residues mod q")
    start, length = interval
    if start < 1:                   # _residues reads only nonnegative n
        raise InvalidRange(f"interval start {start} must be 1 or above")
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
    if mask.any():
        ps = _base_primes(_PRESIEVE_B)
        q_mod = _residues(config.Q, ps)
        ps, q_mod = ps[q_mod > 0], q_mod[q_mod > 0]     # p not dividing Q
        keep = _set_primes(spec, config.Q, start, length, top < _BATCH_HI)
        matrix = config.Q, start, mask, s_mask, ps, q_mod, keep
        size = -(-rows // workers)
        blocks = [(r0, min(r0 + size - 1, rows))
                  for r0 in range(1, rows + 1, size)]
        results = _forked_results(lambda rs: _row_block(matrix, *rs), blocks)
        per_row = [row for block in results for row in block]
    else:                       # no row holds a prime beyond Q's support
        per_row = [(r, 0, 0, 0) for r in range(1, rows + 1)]
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


def _ragged(starts, widths):
    """(owner, index) of widths[k] consecutive indices from starts[k],
    for each k in turn, with owner the k of each index."""
    owner = np.repeat(np.arange(widths.size), widths)
    shift = np.repeat(starts - np.cumsum(widths) + widths, widths)
    return owner, np.arange(owner.size) + shift


def _count_products(ps, bound, return_members):
    """Count n <= bound whose prime factors all lie in ps; 1 counts.

    ps is an ascending int64 array of primes below 2^31. The walk builds
    each n > 1 once, as value * p^e with p above every prime of value,
    a level of distinct primes at a time over arrays of the nodes that
    may grow: value, budget = bound // value and the index j of the
    least prime they may take. With m and k the numbers of primes up to
    isqrt(budget) + 1 and up to budget, the primes of index [max(j, m),
    k) are leaves, value * p with no room for a second factor >= p: one
    searchsorted counts (or lists) them. Each prime of index [j, m)
    makes the children value * p^e, e = 1, 2, ... while p^e <= budget,
    in one loop over e for all of them; a child whose budget reaches
    the next prime is a node of the next level. (The one p above
    isqrt(budget) that m may take has one child, value * p, which counts
    as its leaf would.) Values and budgets are int64 below 2^63 and
    Python ints in object arrays past it. With return_members the
    sorted n are returned, as a list.
    """
    if bound < 1:
        return [] if return_members else 0
    n_ps, dtype = ps.size, np.int64 if bound < 1 << 63 else object
    count, found = 1, [np.ones(1, dtype=dtype)]
    value = found[0][:n_ps]                 # no node grows with no prime
    budget, least = value * bound, np.zeros(value.size, dtype=np.int64)
    while value.size:
        cap = np.minimum(budget, 1 << 62).astype(np.int64)  # each p^2 < 2^62
        m = np.searchsorted(ps, np.sqrt(cap).astype(np.int64) + 1, "right")
        start = np.maximum(least, m)
        leaves = np.searchsorted(ps, cap, "right") - start
        count += int(leaves.sum())
        if return_members:
            owner, at = _ragged(start, leaves)
            found.append(value[owner] * ps[at])
        owner, at = _ragged(least, np.maximum(m - least, 0))
        p = ps[at]
        value, budget = value[owner] * p, budget[owner] // p
        grow = [(value[:0], budget[:0], at[:0])]
        while value.size:
            count += value.size
            if return_members:
                found.append(value)
            # past the last prime, j = len(ps) leaves a node no work
            go = budget >= ps[np.minimum(at + 1, n_ps - 1)]
            grow.append((value[go], budget[go], at[go] + 1))
            more = budget >= p
            p, at = p[more], at[more]
            value, budget = value[more] * p, budget[more] // p
        value, budget, least = (np.concatenate(part) for part in zip(*grow))
    if return_members:
        return np.sort(np.concatenate(found)).tolist()
    return count


def count_S_q(q, z, return_members=False):
    """Count n <= z whose prime factors are all = 1 (mod q); 1 counts.

    Exact, in one process. z must lie below MAX_SCAN_SPAN; the primes
    come from sieve._class_primes, which sieves only the class 1 mod q
    into one array("q"), read in place as an int64 array.
    """
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    z = int(z)
    if z >= MAX_SCAN_SPAN:
        raise RangeTooLarge(f"z {z} must be below MAX_SCAN_SPAN = "
                            f"{MAX_SCAN_SPAN}")
    return _count_products(np.frombuffer(_class_primes(q, z), np.int64), z,
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
    return _count_products(sieve_range(0, hi), x, return_members)


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
