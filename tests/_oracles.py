"""Slow, obvious reference implementations the tests compare against.

Nothing here shares code or representation with the package: Beatty
floors are exact multiplications against a 60-digit *decimal* integer
(the package works in binary fixed point with directed brackets),
floor-product floors are 60-digit mpmath at every index (the package
keeps float floors away from integers), sieves are single-shot dense
arrays (one array over the window itself at large offsets), primality
is trial division (or, for large n, Miller-Rabin with 48 seeded random
bases where the package runs BPSW), the strong Lucas test reads U and
V off powers of a 2x2 matrix (the package runs a V-only ladder on
another sequence), and the counting functions walk a
smallest-prime-factor table exhaustively.

The decimal scale is safe for every n the tests use, up to about 1e14
(Beatty windows just below 2^48): the 60-digit constant is off by less
than 1e-60, so n*c is off by less than 1e-46, and flipping a floor
would need frac(n*c) within 1e-46 of an integer. For n below 1e14 that
would take a continued-fraction partial quotient near 1e32, far beyond
anything pi, sqrt2 or e have in that range.
"""

import math
import random
from functools import lru_cache

import numpy as np
from mpmath import mp

SCALE_DIGITS = 60
SCALE = 10 ** SCALE_DIGITS


@lru_cache(maxsize=None)
def const60(name):
    """floor(c * 10^60), straight from mpmath at generous precision."""
    with mp.workdps(90):
        value = {"pi": mp.pi, "sqrt2": mp.sqrt(2), "e": mp.e}[name]
        return int(mp.floor(value * mp.mpf(10) ** SCALE_DIGITS))


def beatty_values(hi, name="pi", lo=1):
    """All floor(n*c) in [lo, hi], by plain multiplication over n."""
    c = const60(name)
    out = []
    n = max(1, (lo * SCALE) // c)  # a touch early; filtered below
    while True:
        m = (n * c) // SCALE
        if m > hi:
            return out
        if m >= lo:
            out.append(m)
        n += 1


def convergent_denominators(name, bound):
    """Continued-fraction denominators n < bound of the constant, where
    n*c comes within 1/n of an integer."""
    num, den = const60(name), SCALE
    num, den = den, num % den          # drop the integer part
    prev, cur, out = 0, 1, []
    while den:
        a, num, den = num // den, den, num % den
        prev, cur = cur, a * cur + prev
        if cur >= bound:
            return out
        out.append(cur)
    return out


def floorprod_floor(family, B, n):
    """floor(n * g(n)) at 60 digits, g = (log log n)^B or (log n)^B."""
    with mp.workdps(60):
        x = mp.log(n) if family == "log" else mp.log(mp.log(n))
        return int(mp.floor(n * x ** B))


def floorprod_rise(family, B, n0, i):
    """GFamily.rise as one float64 expression, with its error bound.

    The one entry here that repeats the package on purpose: the error
    proof in _floorprod_mask analyses the rounding of this form, so the
    package's in-place steps must give it bit for bit.
    """
    y0 = math.log(n0)
    u0, du = y0, np.log1p(i / n0)
    if family == "loglog":
        u0, du = math.log(y0), np.log1p(du / y0)
    g0 = u0 ** B
    dg = du if B == 1.0 else g0 * np.expm1(B * np.log1p(du / u0))
    r = i * (g0 + dg) + n0 * dg
    return r, 2.0 ** -42 * (1.0 + B) * (r[-1] + 1.0)


def floorprod_values(family, B, lo, hi):
    """Distinct floor(n * g(n)) in [lo, hi) over n from the first n where
    g > 0 (3 for "loglog", 2 for "log"); values below 2 are skipped.

    The index range comes from an integer bisection on these floors,
    which never fall as n grows.
    """
    start = 3 if family == "loglog" else 2

    def first_n(target):       # smallest n >= start with floor >= target
        a, b = start, start
        while floorprod_floor(family, B, b) < target:
            a, b = b + 1, 2 * b
        while a < b:
            mid = (a + b) // 2
            if floorprod_floor(family, B, mid) < target:
                a = mid + 1
            else:
                b = mid
        return a

    values = (floorprod_floor(family, B, n)
              for n in range(first_n(max(lo, 2)), first_n(hi)))
    return sorted(set(values))


def first_multiple_in(A, M, L, R):
    """Smallest x >= 0 with L <= A x mod M <= R (0 <= L <= R < M), or None.

    If no multiple of A lands in [L, R] directly, A x = M y + t with t
    in [L, R] needs M y mod A in [-R, -L] mod A: the same question for
    (M mod A, A), so the moduli shrink as in Euclid's algorithm.
    """
    A %= M
    if L == 0:
        return 0
    if A == 0:
        return None
    x = -(-L // A)
    if A * x <= R:
        return x
    y = first_multiple_in(M % A, A, (-R) % A, (-L) % A)
    return None if y is None else -(-(L + M * y) // A)


def beatty_member_direct(m, name="pi"):
    """Some n with floor(n*c) = m? Decimal ceil-division interval test."""
    c = const60(name)
    n = -(-(m * SCALE) // c)
    return (n * c) // SCALE == m


def trial_is_prime(n):
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


def miller_rabin_48(n):
    """Miller-Rabin with 48 random bases from a PRNG seeded by n; a
    composite passes with probability below 4^-48."""
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = random.Random(n)
    for _ in range(48):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0; factors of 2 go all at once."""
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _mat_mul(A, B, n):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return (((a * e + b * g) % n, (a * f + b * h) % n),
            ((c * e + d * g) % n, (c * f + d * h) % n))


def _mat_pow(M, k, n):
    R = ((1, 0), (0, 1))
    while k:
        if k & 1:
            R = _mat_mul(R, M, n)
        M = _mat_mul(M, M, n)
        k >>= 1
    return R


def selfridge_strong_lucas(n, D=None):
    """Selfridge's strong Lucas test of an odd n > 2, as defined.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1 (n fails if
    one before it shares a factor with n, and a square n fails), unless
    D is given; P = 1 and Q = (1 - D)/4. With n + 1 = d 2^s, n passes
    iff U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s. The
    powers M^k of M = [[P, -Q], [1, 0]] are [[U_(k+1), -Q U_k],
    [U_k, -Q U_(k-1)]], and V_k = 2 U_(k+1) - P U_k.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    if D is None:
        D = 5
        while jacobi(D, n) != -1:
            if math.gcd(D, n) > 1:
                return False
            D = -D - 2 if D > 0 else 2 - D
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    A = _mat_pow(((P, -Q % n), (1, 0)), d, n)
    if A[1][0] == 0:
        return True
    for _ in range(s):
        if (2 * A[0][0] - P * A[1][0]) % n == 0:
            return True
        A = _mat_mul(A, A, n)
    return False


def simple_sieve(limit):
    """Ascending primes <= limit from a one-shot dense sieve."""
    comp = np.zeros(limit + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not comp[p]:
            comp[p * p::p] = True
    return np.flatnonzero(~comp)


def window_primes(lo, hi):
    """Ascending primes in [lo, hi): a dense sieve of the window itself
    by the primes up to isqrt(hi - 1), one multiple at a time."""
    comp = bytearray(hi - lo)
    for p in simple_sieve(math.isqrt(hi - 1)).tolist():
        for m in range(max(p * p, -(-lo // p) * p), hi, p):
            comp[m - lo] = 1
    return [lo + i for i, c in enumerate(comp) if not c and lo + i >= 2]


def composite_flags(limit):
    """Dense composite flags indexed by the integer itself."""
    comp = np.zeros(max(limit, 2), dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(limit - 1) + 1 if limit > 2 else 2):
        if not comp[p]:
            comp[p * p::p] = True
    return comp


def spf_sieve(limit):
    """spf[n] = smallest prime factor, 0 for n < 2 and for primes."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p::p]
            block[block == 0] = p
    return spf


def factorize(n, spf):
    """Distinct prime factors of n >= 2 using an spf table."""
    out = []
    while n > 1:
        p = int(spf[n]) or n
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def sq_members(q, z, spf):
    """n <= z with every prime factor = 1 (mod q); 1 included."""
    out = [1] if z >= 1 else []
    for n in range(2, z + 1):
        if all(p % q == 1 % q for p in factorize(n, spf)):
            out.append(n)
    return out


def psi_members(x, t, spf):
    """n <= x with every prime factor strictly below t; 1 included."""
    out = [1] if x >= 1 else []
    for n in range(2, x + 1):
        if all(p < t for p in factorize(n, spf)):
            out.append(n)
    return out


def ap_counts(primes, q):
    counts = {r: 0 for r in range(q)}
    for p in primes:
        counts[int(p) % q] += 1
    return counts


def beatty_primes_below(limit, name="pi"):
    """Ascending Beatty primes < limit: dense sieve + decimal membership."""
    c = const60(name)
    out = []
    for p in simple_sieve(limit - 1):
        p = int(p)
        n = -(-(p * SCALE) // c)
        if (n * c) // SCALE == p:
            out.append(p)
    return out


def first_k_run(set_primes, k, q, a):
    """(ordinal, primes) of the first k consecutive entries = a (mod q)."""
    run = 0
    for i, p in enumerate(set_primes):
        if p % q == a % q:
            run += 1
            if run == k:
                start = i - k + 1
                return start, list(set_primes[start:start + k])
        else:
            run = 0
    return None


def maximal_runs(set_primes, q, a):
    """(start, length) of every maximal run of entries = a (mod q)."""
    runs = []
    run_open = False
    for p in set_primes:
        good = p % q == a % q
        if good and run_open:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        elif good:
            runs.append((p, 1))
        run_open = good
    return runs
