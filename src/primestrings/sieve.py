"""Segmented prime sieve and primality testing.

The sieve works on a bitmap over odd integers >= 3 (2 is handled
implicitly). Bit j covers the odd number 2j + 3 and is set when that
number is composite. Segments run one after another in the calling
thread, and segment size only controls working-set memory: the primes
produced are identical for any segmentation. Scans spread whole
segments over worker threads in search. A segment's numpy calls release
the GIL, but its strided fills are short: over 20 segments at 5e7 on 2
vCPUs, 2 threads ran the strike loop at 1.2-1.6 times one thread's rate
for p < 512, 0.5-0.8 for p in [512, 2100), 0.7-0.9 for [2100, 10^4).

Every crossing-off in the package goes through one kernel, _strike,
which sets flags[first::step] for many (first, step) pairs at once: in
a sieve segment and a segment of the class sieve (_class_primes, the
primes = 1 mod q) here, in a Maier row (the presieve) and the Maier
column interval (coprimality to Q) in maier, and in the classes mod q
prime to q in search. A step s hits at most h indices of an n-long
array once s >= ceil(n/h), so only the steps below ceil(n/64) cross
off in a Python loop; the others cross off in numpy tiers of at most
64, 32, ..., 2 indices, or one index for s >= n.
The base primes up to sqrt(hi) come from one ascending array per
process (_base_primes), filled lazily and extended on demand under
the package's one lock, so a window lists no base prime that an
earlier call, in any thread, already listed.

is_prime tests one Python int. _is_prime_batch gives is_prime's verdicts
for a whole int64 array of n in [2^32, 2^62) at once: the same trial
division, base-2 strong test and Q = 1 Lucas ladder, one numpy pass per
bit over the array. Each product a b mod n (a, b < n) takes q = floor(a b
/ n) from 80-bit long doubles: two roundings with a 64-bit mantissa
leave the quotient within a b / n 2^-63 < n 2^-63 < 1/2 of a b / n, so q
is floor(a b / n) or one off and a b - q n, taken mod 2^64, lies in [-n,
2n); one correction each way makes it exact. _batch_ok probes, once,
that the platform's long double has that mantissa.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from array import array

import numpy as np

from .errors import InvalidRange, RangeExceeded, RangeTooLarge

log = logging.getLogger("primestrings.sieve")

DEFAULT_SEGMENT_BYTES = 1 << 20  # odds per working segment (1 byte each)
MAX_SCAN_HI = 1 << 48           # upper end of the supported scan range
MAX_SCAN_SPAN = 1 << 31         # widest single [lo, hi) window
PROGRESS_EVERY = 10 ** 7        # candidates between progress log lines

# BPSW has no counterexample below 2^64 (Feitsma-Galway's list of
# base-2 strong pseudoprimes, each of which fails the strong Lucas test).
# _strong_lucas_prp's Q = 1 ladder gives Selfridge's verdicts exactly.
_BPSW_DETERMINISTIC_LIMIT = 1 << 64
_PRIMALITY_CEILING = 1 << 256
_BATCH_HI = 1 << 62    # _is_prime_batch's n: keeps a b / n within 1/2

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TIERS = (64, 32, 16, 8, 4, 2, 1)  # _strike: a step >= ceil(n/h) hits <= h


def _strike(flags, first, step):
    """Set flags[first[i]::step[i]] for every i; step ascending, >= 1.

    A step s >= ceil(n/h), n = flags.size, hits at most h indices,
    since h s >= n. Steps below ceil(n/64) set a strided slice each in
    a Python loop. The first index of every larger step is set in one
    numpy step, and for h = 64, 32, ..., 2 the steps in [ceil(n/h),
    ceil(2n/h)) set their indices 1 .. h-1 at once through first +
    arange(1, h)[:, None] * step, keeping those below n (one row per
    i, which scatters faster than one row per step). Steps >= n hit only
    their first index (a vectorised form of the large-prime buckets of
    Oliveira e Silva, Herzog and Pardi, Math. Comp. 2014). A tier of
    distinct steps holds at most n/h + 1 of them, so its index array
    has at most about n entries; the first indices are read from first
    itself, so the steps >= n (541,163 of 564,162 base primes in a
    2^18-odd segment at 2^46) make no int64 temporary. Offsets may lie at or
    beyond n; they set nothing.
    """
    n = flags.size
    edges = np.searchsorted(step, [-(-n // h) for h in _TIERS]).tolist()
    for j, p in zip(first[:edges[0]].tolist(), step[:edges[0]].tolist()):
        flags[j::p] = True
    big = first[edges[0]:]
    flags[big[big < n]] = True
    for h, a, b in zip(_TIERS, edges, edges[1:]):
        if a < b:                 # an empty tier's numpy calls cost ~8 us
            idx = first[a:b] + step[a:b] * np.arange(1, h)[:, None]
            flags[idx[idx < n]] = True


def _sieve_segment(j_lo, j_hi, base_odd):
    """Composite flags for odd-index window [j_lo, j_hi).

    The window holds the odds m_lo <= m < m_hi. Each odd base prime p
    with p^2 < m_hi strikes its odd multiples k p for odd k >= p, which
    are 2p apart, so p indices apart. The first one in the window has
    k = max(ceil(m_lo / p), p) | 1, at index (k p - m_lo) / 2; both are
    computed for all p in place in one int64 array, whose values stay
    below 2^49 for m_hi <= MAX_SCAN_HI.
    """
    comp = np.zeros(j_hi - j_lo, dtype=bool)
    m_lo = 2 * j_lo + 3
    m_hi = 2 * j_hi + 3
    ps = base_odd[:np.searchsorted(base_odd, math.isqrt(m_hi - 1), "right")]
    first = ps + (m_lo - 1)                 # k, then its index, in place
    np.maximum(np.floor_divide(first, ps, out=first), ps, out=first)
    first |= 1
    first *= ps
    first -= m_lo
    _strike(comp, np.right_shift(first, 1, out=first), ps)
    return comp


def _segment_bounds(lo, hi, size):
    """Lazy consecutive windows [a, b) covering [lo, hi), each <= size."""
    if size < 1:
        raise InvalidRange(f"segment_size must be >= 1, got {size}")
    return ((a, min(a + size, hi)) for a in range(lo, hi, size))


def _check_window(lo, hi):
    """Raise unless 0 <= lo <= hi <= MAX_SCAN_HI, hi - lo <= MAX_SCAN_SPAN."""
    if not 0 <= lo <= hi:
        raise InvalidRange(f"bad range [{lo}, {hi})")
    if hi > MAX_SCAN_HI:
        raise RangeTooLarge(f"hi {hi} > {MAX_SCAN_HI}")
    if hi - lo > MAX_SCAN_SPAN:
        raise RangeTooLarge(f"window {hi - lo} wider than MAX_SCAN_SPAN = "
                            f"{MAX_SCAN_SPAN}")


def _primes_in(lo, hi, base_odd, segment_size):
    """Ascending primes in [lo, hi), given ascending odd primes that
    include every one <= isqrt(hi - 1)."""
    chunks = [np.array([2] if lo <= 2 < hi else [], dtype=np.int64)]
    # the odds 2j + 3 in [lo, hi) are those with j_lo <= j < j_hi
    j_lo, j_hi = max(0, (lo - 2) // 2), (hi - 2) // 2
    for a, b in _segment_bounds(j_lo, j_hi, segment_size):
        idx = np.flatnonzero(~_sieve_segment(a, b, base_odd))
        idx *= 2                        # the odd 2 (a + idx) + 3, in place
        chunks.append(np.add(idx, 2 * a + 3, out=idx))
        done = 2 * (b - j_lo)
        if done // PROGRESS_EVERY != 2 * (a - j_lo) // PROGRESS_EVERY:
            log.info("sieved %d candidates up to %d", done, 2 * b + 3)
    return np.concatenate(chunks)


_BASE_CAP = math.isqrt(MAX_SCAN_HI) + 1    # 1,077,871 primes below, 8.6 MB
_base = np.empty(0, dtype=np.int64)        # every prime below _base_hi
_base_hi = 2
_base_lock = threading.Lock()              # the package's one lock


def _base_primes(bound):
    """Ascending primes <= bound, from this process's base-prime array.

    The array holds every prime below _base_hi and only grows. While a
    bound is at or past _base_hi, the array is extended to min(max(
    bound + 1, 2 _base_hi), _base_hi^2, isqrt(MAX_SCAN_HI) + 1), the
    last being the most any window needs. A composite below _base_hi^2
    has a prime factor below _base_hi, so each step is sieved by the
    primes the array already holds.
    Nothing is sieved at import. Scan threads share the array: the
    check and the extension run under _base_lock, so one thread
    extends it while the others wait, and the sieve inside, which
    releases the GIL, never runs twice for one range. Forked Maier
    workers inherit what the parent holds.
    """
    global _base, _base_hi
    if bound >= _BASE_CAP:
        raise RangeTooLarge(f"base primes up to {bound} exceed the sieve's "
                            f"needs, isqrt(MAX_SCAN_HI) = {_BASE_CAP - 1}")
    with _base_lock:
        while bound >= _base_hi:
            hi = min(max(bound + 1, 2 * _base_hi), _base_hi ** 2, _BASE_CAP)
            _base = np.concatenate([_base, _primes_in(
                _base_hi, hi, _base[1:], DEFAULT_SEGMENT_BYTES)])
            _base_hi = hi
        return _base[:np.searchsorted(_base, bound, "right")]


def sieve_range(lo, hi, segment_size=DEFAULT_SEGMENT_BYTES):
    """Ascending primes in [lo, hi) as an int64 array.

    Works for hi up to MAX_SCAN_HI and window width up to MAX_SCAN_SPAN.
    """
    _check_window(lo, hi)
    base_odd = _base_primes(math.isqrt(max(hi, 1) - 1))[1:]
    return _primes_in(lo, hi, base_odd, segment_size)


def _class_primes(q, z, segment_size=DEFAULT_SEGMENT_BYTES):
    """Ascending primes p <= z with p = 1 (mod q), q >= 1, as an
    array("q") filled one segment at a time, so the primes are held
    once, at 8 bytes each; z below MAX_SCAN_SPAN.

    2 is in the class only for q = 1. Every odd member is a value
    1 + jM, M = lcm(2, q), and bit j of the flags covers that value, so
    only 1/phi(M) of the odds are sieved. A base prime p <= isqrt(z)
    that divides M divides no value. Any other p divides 1 + jM exactly
    when j = -M^-1 (mod p), so it strikes every p-th index from the
    first such j whose value is at least p^2, as _sieve_segment does
    over the odds. Index 0, the value 1, is struck.
    """
    primes = array("q", [2] if q == 1 and z >= 2 else [])
    M = q if q % 2 == 0 else 2 * q
    n = (z - 1) // M + 1 if z >= 1 else 0   # the values <= z have j < n
    if n < 2:                               # only the value 1, if any
        return primes
    step = [p for p in _base_primes(math.isqrt(z))[1:].tolist() if M % p]
    first = []
    for p in step:
        lo = -(-(p * p - 1) // M)           # the first value >= p^2
        first.append(lo + (-pow(M, -1, p) - lo) % p)
    first = np.array(first, dtype=np.int64)
    step = np.array(step, dtype=np.int64)
    for a, b in _segment_bounds(0, n, segment_size):
        comp = np.zeros(b - a, dtype=bool)
        comp[0] = a == 0
        off = first - a                     # past the segment start, mod p
        _strike(comp, np.maximum(off, off % step), step)
        idx = np.flatnonzero(~comp)
        idx *= M                            # the value 1 + (a + idx) M
        idx += 1 + a * M
        primes.frombytes(memoryview(idx).cast("B"))
        if b * M // PROGRESS_EVERY != a * M // PROGRESS_EVERY:
            log.info("sieved %d candidates up to %d", b * M, 1 + b * M)
    return primes


def _strong_prp_base2(n):
    """Strong base-2 Miller-Rabin test of an odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n):
    """Strong Lucas test of an odd n > 2 with no factor below 41.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4. A square n has no such D, so it
    is rejected first. With n + 1 = d 2^s, n passes when U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some 0 <= r < s.

    The test is computed on a Q = 1 ladder, with the same verdict. If
    a prime p divides both Q and n, x^2 - x + Q has the roots 0 and 1
    mod p, so U_k = V_k = 1 (mod p) for k >= 1 and n fails; it is
    rejected at once.
    Else let a, b be the roots of x^2 - x + Q in Z_n[x]/(x^2 - x + Q),
    and g = a/b (b is a unit, as ab = Q). Then g has norm 1 and trace
    P' = (a^2 + b^2)/Q = 1/Q - 2, so g^k + g^-k = V'_k and g^k - g^-k =
    U'_k (g - 1/g) for the Lucas sequences U', V' of (P', 1). Here
    g - 1/g = (a - b)/Q and (a - b)^2 = D are units, as is 2 (n odd):
      - U_d = 0 <=> a^d = b^d <=> g^d = 1 <=> U'_d = 0 and V'_d = 2;
      - V_d = 0 <=> a^d = -b^d <=> g^d = -1 <=> U'_d = 0 and V'_d = -2;
      - V_(2k) = a^2k + b^2k = Q^k V'_k, so for r >= 1, V_(d 2^r) = 0
        <=> V'_(d 2^(r-1)) = 0.
    So n passes iff U'_d = 0 and V'_d = +-2, or V'_(d 2^j) = 0 for some
    0 <= j <= s - 2: the extra strong form, on a ladder of 2 products
    per bit with no Q^k to carry. Only V' is computed: D' U'_d =
    2 V'_(d+1) - P' V'_d, and D' = P'^2 - 4 = D/Q^2 is a unit.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:                # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    if math.gcd(Q, n) != 1:
        return False
    P = (pow(Q, -1, n) - 2) % n
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    V, W = 2, P                   # V'_k, V'_(k+1) from k = 0
    for bit in bin(d)[2:]:
        if bit == "1":            # k -> 2k + 1
            V, W = (V * W - P) % n, (W * W - 2) % n
        else:                     # k -> 2k
            V, W = (V * V - 2) % n, (V * W - P) % n
    if (2 * W - P * V) % n == 0 and (V == 2 or V == n - 2):
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def is_prime(n):
    """Primality of any integer up to 2^256: trial division, then BPSW.

    After trial division by the primes below 41, n passes when it is a
    strong probable prime to base 2 and a strong Lucas probable prime
    with Selfridge's parameters (Baillie-PSW). The verdict is exact
    below 2^64, where BPSW has no counterexample, and probabilistic
    above, where none is known either.
    """
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n > _PRIMALITY_CEILING:
        raise RangeExceeded(f"{n.bit_length()}-bit candidate exceeds "
                            f"the supported primality range")
    return _strong_prp_base2(n) and _strong_lucas_prp(n)


def primality_is_deterministic(n):
    """Whether is_prime(n) is exact rather than probabilistic."""
    return n < _BPSW_DETERMINISTIC_LIMIT


def _mulmod(a, b, n, n_ld):
    """a b mod n for int64 arrays 0 <= a, b < n < 2^62, n_ld being n as
    long double (module docstring: q is floor(a b / n) or one off)."""
    x = a.astype(np.longdouble)
    x *= x if b is a else b.astype(np.longdouble)
    x /= n_ld
    u = np.uint64                          # products wrap mod 2^64
    r = (a.view(u) * b.view(u) - x.astype(np.int64).view(u) * n.view(u)
         ).view(np.int64)
    r += n & (r >> 63)                     # [-n, 0) -> [0, n)
    return _reduced(r, n)


def _reduced(r, n):
    """r mod n for an int64 array r in [0, 2n): r - n, plus n where
    that is negative."""
    r = r - n
    r += n & (r >> 63)
    return r


def _bits_below(m):
    """For an int64 array m > 0, the exponent of 2 in each m."""
    return np.frexp(m & -m)[1] - 1


def _strong_prp_base2_batch(n, n_ld):
    """_strong_prp_base2 for each n of an odd int64 array in [2^32, 2^62).

    Left to right over the bits of m = n - 1, x = 2^(m >> i) after bit
    i. With m = d 2^s, n passes when x = 1 at i = s, or x = n - 1 at
    some 1 <= i <= s.
    """
    m = n - 1
    s = _bits_below(m)
    x = np.ones_like(n)
    passed = np.zeros(n.size, dtype=bool)
    for i in range(int(m.max()).bit_length() - 1, 0, -1):
        x = _reduced(_mulmod(x, x, n, n_ld) << ((m >> i) & 1), n)
        passed |= ((x == m) & (i <= s)) | ((x == 1) & (i == s))
    return passed


def _selfridge(n):
    """Selfridge's D for each n of an odd int64 array in [2^32, 2^62)
    with no square: the first of 5, -7, 9, -11, ... with (D/n) = -1, or
    0 where an earlier (D/n) is 0, so n shares a factor with |D| < n.

    Every such D is 1 mod 4, so (D/n) = (n mod |D| / |D|) by
    reciprocity: one table of |D| symbols a D, and each n is looked up
    until its symbol is not 1.
    """
    D = np.zeros(n.size, dtype=np.int64)
    todo = np.arange(n.size)
    d = 5
    while todo.size:
        table = np.array([_jacobi(k, abs(d)) for k in range(abs(d))])
        j = table[n[todo] % abs(d)]
        D[todo[j == -1]] = d
        todo = todo[j == 1]
        d = -d - 2 if d > 0 else -d + 2
    return D


def _strong_lucas_batch(n, n_ld):
    """_strong_lucas_prp for each n of an odd int64 array in [2^32, 2^62).

    Squares, n sharing a factor with D (D = 0 from _selfridge) and n
    sharing one with Q fail, as there. For each Q, with c = |Q|, n = c u
    + v and k = -v^-1 mod c: c (k u + (k v + 1) / c) = k n + 1, so k u +
    (k v + 1) / c is c^-1 mod n, with no Python int per n. The Q = 1
    ladder then runs left to right over the bits of n + 1 = d 2^s, with
    V, W = V'_k, V'_(k+1) for k = (n + 1) >> i after bit i: the check on
    U'_d and V'_d at i = s, and V' = 0 at 2 <= i <= s.
    """
    # the double nearest n < 2^62 has a root within 2^-21 of sqrt(n)
    root = np.rint(np.sqrt(n.astype(np.float64))).astype(np.int64)
    D = np.zeros_like(n)
    ok = root * root != n
    D[ok] = _selfridge(n[ok])
    ok = D != 0
    P = np.zeros_like(n)                   # P' = Q^-1 - 2 mod n
    for d in np.unique(D[ok]).tolist():
        Q = (1 - d) // 4
        c = abs(Q)
        at = np.flatnonzero(D == d)
        u, v = np.divmod(n[at], c)
        unit = np.array([math.gcd(k, c) == 1 for k in range(c)])
        k = np.array([-pow(k, -1, c) % c if math.gcd(k, c) == 1 else 0
                      for k in range(c)])[v]
        inv = k * u + (k * v + 1) // c
        P[at] = _reduced((inv if Q > 0 else n[at] - inv) + n[at] - 2, n[at])
        ok[at] = unit[v]
    np1 = n + 1
    s = _bits_below(np1)
    V, W = np.full_like(n, 2), P.copy()
    Vd, Wd = V, W
    minus_P, minus_2 = n - P, n - 2
    zero = np.zeros(n.size, dtype=bool)
    for i in range(int(np1.max()).bit_length() - 1, 0, -1):
        bit = ((np1 >> i) & 1).astype(bool)
        X = _reduced(_mulmod(V, W, n, n_ld) + minus_P, n)     # V'_(2k+1)
        B = np.where(bit, W, V)
        Y = _reduced(_mulmod(B, B, n, n_ld) + minus_2, n)     # V'_(2k(+2))
        V, W = np.where(bit, X, Y), np.where(bit, Y, X)
        Vd, Wd = np.where(s == i, V, Vd), np.where(s == i, W, Wd)
        if i >= 2:
            zero |= (V == 0) & (i <= s)
    extra = (_reduced(2 * Wd, n) == _mulmod(P, Vd, n, n_ld)) \
        & ((Vd == 2) | (Vd == minus_2))
    return ok & (extra | zero)


@functools.cache
def _batch_ok():
    """Whether this platform's long double carries _mulmod's 64-bit
    mantissa: its format, and one product against Python ints."""
    if np.finfo(np.longdouble).nmant < 63:
        return False
    n = np.array([_BATCH_HI - 57], dtype=np.int64)   # the largest prime
    a = n - 2
    return _mulmod(a, a, n, n.astype(np.longdouble)).tolist() == [4]


def _is_prime_batch(n):
    """is_prime of each n of an integer array in [2^32, 2^62), as a bool
    array: trial division by the primes below 41, then the base-2 strong
    test, then the strong Lucas test on the survivors of both. Needs
    _batch_ok(); an n outside the range raises RangeExceeded.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size and (n.min() < 1 << 32 or n.max() >= _BATCH_HI):
        raise RangeExceeded(f"batched primality takes n in [2^32, 2^62), "
                            f"got [{n.min()}, {n.max()}]")
    prime = np.ones(n.size, dtype=bool)
    for p in _TINY_PRIMES:
        prime &= n % p != 0
    for test in _strong_prp_base2_batch, _strong_lucas_batch:
        at = np.flatnonzero(prime)
        if at.size:
            prime[at] = test(n[at], n[at].astype(np.longdouble))
    return prime
