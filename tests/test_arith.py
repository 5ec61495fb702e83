import math
import random

import pytest

from primestrings.arith import crt_pair, egcd, euler_phi, prime_factors


def test_egcd_bezout_identity():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(0, 10 ** 9)
        b = rng.randrange(0, 10 ** 9)
        g, x, y = egcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_crt_pair_examples():
    assert crt_pair(2, 3, 3, 5) == 8
    assert crt_pair(0, 30, 2, 7) == 30
    assert crt_pair(0, 30, 4, 7) == 60
    assert crt_pair(0, 1, 0, 1) == 0


def test_crt_pair_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        m1 = rng.randrange(1, 50)
        m2 = rng.choice([m for m in range(1, 50) if math.gcd(m, m1) == 1])
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        x = crt_pair(r1, m1, r2, m2)
        assert 0 <= x < m1 * m2
        assert x % m1 == r1 and x % m2 == r2


def test_crt_pair_rejects_common_factor():
    with pytest.raises(ValueError):
        crt_pair(1, 6, 1, 4)


def test_crt_pair_big_ints():
    m1 = 2 ** 200 + 235  # odd, coprime to 3
    x = crt_pair(5, m1, 1, 3)
    assert x % m1 == 5 and x % 3 == 1


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(293930) == [2, 5, 7, 13, 17, 19]
    assert prime_factors(97) == [97]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_euler_phi_brute_force():
    for n in range(1, 300):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == direct
