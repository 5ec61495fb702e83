"""Small exact-arithmetic helpers (all plain Python ints)."""


def egcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def crt_pair(r1, m1, r2, m2):
    """Smallest nonnegative x with x = r1 (mod m1), x = r2 (mod m2).

    Moduli must be coprime.
    """
    g, u, _ = egcd(m1, m2)
    if g != 1:
        raise ValueError(f"moduli not coprime: gcd({m1}, {m2}) = {g}")
    lcm = m1 * m2
    x = (r1 + (r2 - r1) * u % m2 * m1) % lcm
    return x


def prime_factors(n):
    """Sorted distinct prime factors of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(n):
    phi = n
    for p in prime_factors(n) if n > 1 else []:
        phi -= phi // p
    return phi
