"""Segmented sieve, AP counts, and primality."""

import random
import types

import numpy as np
import pytest

import _oracles
from primestrings import (APCount, count_primes_ap, is_prime, sieve,
                          sieve_range)
from primestrings.errors import InvalidModulus, InvalidRange, RangeExceeded, \
    RangeTooLarge
from primestrings.sieve import (MAX_SCAN_HI, MAX_SCAN_SPAN,
                                _MR_PROBABILISTIC_ROUNDS, _TINY_PRIMES,
                                primality_is_deterministic)


def test_sieve_matches_dense_oracle(primes_100k):
    got = sieve_range(0, 100_001)
    assert np.array_equal(got, primes_100k)


def test_sieve_range_windows(primes_100k):
    rng = random.Random(3)
    for _ in range(25):
        lo = rng.randrange(0, 90_000)
        hi = lo + rng.randrange(0, 10_000)
        want = primes_100k[(primes_100k >= lo) & (primes_100k < hi)]
        assert np.array_equal(sieve_range(lo, hi), want)


def test_sieve_range_edges():
    assert sieve_range(5, 5).size == 0
    assert list(sieve_range(0, 3)) == [2]
    assert list(sieve_range(2, 3)) == [2]
    assert list(sieve_range(3, 4)) == [3]
    assert sieve_range(0, 2).size == 0
    assert sieve_range(0, 0).size == 0
    # a window away from the origin, odd boundaries on both sides
    assert list(sieve_range(89, 98)) == [89, 97]


def test_sieve_range_guards():
    with pytest.raises(InvalidRange):
        sieve_range(10, 5)
    with pytest.raises(InvalidRange):
        sieve_range(-1, 5)
    with pytest.raises(RangeTooLarge):
        sieve_range(0, MAX_SCAN_HI + 1)
    with pytest.raises(RangeTooLarge):
        sieve_range(0, MAX_SCAN_SPAN + 1)


def test_sieve_range_high_window():
    # 2^40 .. 2^40 + 2000, checked by trial division
    lo = 1 << 40
    got = [int(p) for p in sieve_range(lo, lo + 2000)]
    want = [n for n in range(lo, lo + 2000) if _oracles.trial_is_prime(n)]
    assert got == want


def test_bitmap_identical_across_segmentation():
    base = sieve_range(0, 100_000)
    for seg in (64, 1_000, 4_999, 1 << 16):
        assert np.array_equal(sieve_range(0, 100_000, segment_size=seg), base)
    for workers in (2, 3):
        assert np.array_equal(sieve_range(0, 100_000, workers=workers), base)
        assert np.array_equal(sieve_range(0, 100_000, segment_size=4_999,
                                          workers=workers), base)


def test_count_primes_ap_examples():
    assert count_primes_ap(100, 4).counts == {0: 0, 1: 11, 2: 1, 3: 13}
    assert count_primes_ap(10, 1).counts == {0: 4}
    c = count_primes_ap(100, 4)
    assert c.total() == 25
    assert isinstance(c, APCount)


def test_count_primes_ap_matches_direct(primes_100k):
    for X in (10, 997, 10_000):
        prefix = primes_100k[primes_100k <= X]
        for q in (1, 2, 3, 7, 12, 50):
            want = _oracles.ap_counts(prefix, q)
            assert count_primes_ap(X, q).counts == want


def test_count_primes_ap_guards():
    with pytest.raises(InvalidModulus):
        count_primes_ap(100, 0)
    with pytest.raises(InvalidRange):
        count_primes_ap(-5, 3)


def test_is_prime_small_agrees_with_trial_division():
    for n in range(-3, 20_000):
        assert is_prime(n) == _oracles.trial_is_prime(n), n


def test_is_prime_random_64bit():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 10)
        assert is_prime(n) == _oracles.trial_is_prime(n)


def test_is_prime_known_large():
    assert is_prime(2 ** 61 - 1)          # Mersenne
    assert is_prime(2 ** 89 - 1)          # Mersenne, above the 64-bit line
    assert not is_prime(2 ** 67 - 1)      # 193707721 * 761838257287
    assert not is_prime(561)              # Carmichael
    assert not is_prime((2 ** 61 - 1) ** 2)


def test_is_prime_probabilistic_is_repeatable():
    n = (1 << 89) - 1
    assert not primality_is_deterministic(n)
    assert primality_is_deterministic(2 ** 64 - 1)
    assert [is_prime(n) for _ in range(3)] == [True, True, True]


def test_is_prime_draws_witnesses_lazily(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(sieve, "random",
                        types.SimpleNamespace(Random=CountingRandom))
    # 193707721 * 761838257287: above 2^64, no tiny factor, so the
    # first random witness is the first test it fails
    assert not is_prime(2 ** 67 - 1)
    assert len(draws) == 1
    draws.clear()
    assert is_prime(2 ** 89 - 1)
    assert len(draws) == _MR_PROBABILISTIC_ROUNDS
    # the lazy draws give the same verdicts: Mersenne primes, then composites
    assert all(is_prime(n) for n in (2 ** 89 - 1, 2 ** 107 - 1,
                                     2 ** 127 - 1))
    assert not any(is_prime(n) for n in ((2 ** 61 - 1) * (2 ** 31 - 1),
                                         (2 ** 61 - 1) ** 2,
                                         (2 ** 89 - 1) * (2 ** 107 - 1)))


def test_is_prime_range_ceiling():
    n = (1 << 257) | 1
    while any(n % p == 0 for p in _TINY_PRIMES):
        n += 2
    with pytest.raises(RangeExceeded):
        is_prime(n)
