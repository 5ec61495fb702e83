"""Segmented sieve, AP counts, and primality."""

import hashlib
import math
import pathlib
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import _oracles
from primestrings import (SetCensus, count_primes_ap, is_prime, search,
                          sieve, sieve_range)
from primestrings.errors import InvalidModulus, InvalidRange, RangeExceeded, \
    RangeTooLarge
from primestrings.search import MAX_CENSUS_Q
from primestrings.sieve import (DEFAULT_SEGMENT_BYTES, MAX_SCAN_HI,
                                MAX_SCAN_SPAN, _TINY_PRIMES, _base_primes,
                                _class_primes, _strike, _strong_lucas_prp,
                                _strong_prp_base2, primality_is_deterministic)

# random 214-bit primes and pairs of 107-bit primes, found with
# _oracles.miller_rabin_48 from random.Random(214)
PRIMES_214 = (
    15781691301312641504239510945903448816093094547917078804914555869,
    26202799284199243005337252652634005582309123288805936256355008129,
    19339708965173149285635948600804837217751269267465354811291602829,
    25989031623817614676689775091444609549028341264093213491327004747,
    14249851620670016602865267231579249273945201267611580493508862027,
    15309319353975450396672144313105806869661071747556685507991203243,
)
FACTORS_107 = (
    (98750254489512194320862056541389, 131190553397287988040892097223547),
    (161100264038689805021305287490403, 86235897327820152057579220466369),
    (155394806784881591676440114553041, 134761042866607488888420227725637),
    (109708236610572943468432636309411, 98190714189228837932391894753713),
    (90514986026977453782583819428397, 98209719926521703241435221035229),
    (114485732533239404520557360311649, 103231477883637806816979181442669),
)


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
    # 2^40 .. 2^40 + 2000, checked by a dense sieve of the window
    lo = 1 << 40
    got = [int(p) for p in sieve_range(lo, lo + 2000)]
    assert got == _oracles.window_primes(lo, lo + 2000)


@st.composite
def window_cases(draw):
    top = 1 << draw(st.integers(0, 12))      # log-uniform, 1 to 4096
    seg = draw(st.integers(max(1, top // 2), top))
    # at most 40 segments of seg odds, so a case stays cheap
    width = draw(st.integers(1, min(5000, 80 * seg)))
    lo = draw(st.integers(0, (1 << 36) - 1))
    return lo, width, seg


@seed(20148)
@settings(database=None, deadline=None, max_examples=60)
@given(window_cases())
# one-odd segments: every base prime strikes only its first index
@example((10 ** 9 + 1, 200, 1))
# above 2^40, segments whose base primes fill the loop and every tier
@example(((1 << 40) + 12_345, 5000, 4096))
@example(((1 << 46) + 1, 5000, 1000))
@example(((1 << 44) + 777, 3000, 640))
def test_sieve_range_matches_window_oracle(case):
    # base primes p < ceil(seg/64) cross off in a loop, the others in
    # numpy tiers of at most 64, 32, ..., 2 indices, or one index
    lo, width, seg = case
    got = sieve_range(lo, lo + width, segment_size=seg)
    assert got.tolist() == _oracles.window_primes(lo, lo + width)


@pytest.mark.parametrize("lo, hi", [
    (1 << 46, (1 << 46) + 20_000),
    (MAX_SCAN_HI - 100_000, MAX_SCAN_HI),
])
def test_sieve_range_top_windows(lo, hi):
    # int64 crossing near the top of the scan range
    assert sieve_range(lo, hi).tolist() == _oracles.window_primes(lo, hi)


@pytest.mark.parametrize("seg", [7, 333, 1000])
def test_sieve_range_window_from_first_large_prime_square(seg):
    # lo = p^2 for the first base prime p >= seg (and >= 2 seg): p^2 is
    # struck by p alone, at the first index of the first segment
    for least in (seg, 2 * seg):
        p = next(int(p) for p in _oracles.simple_sieve(4 * seg + 100)
                 if p >= least)
        lo = p * p
        got = sieve_range(lo, lo + 50 * seg, segment_size=seg)
        assert got.tolist() == _oracles.window_primes(lo, lo + 50 * seg)


def test_sieve_range_recursion_edges():
    # the base primes are those <= isqrt(hi - 1): they gain p at
    # hi = p^2 + 1, and the smallest windows need none
    primes = _oracles.simple_sieve(1000 ** 2 + 2)
    for hi in range(401):
        assert sieve_range(0, hi).tolist() == primes[primes < hi].tolist(), hi
    for p in primes[primes < 1000].tolist():
        for hi in (p * p, p * p + 1, p * p + 2):
            want = primes[primes < hi].tolist()
            assert sieve_range(0, hi).tolist() == want, hi
            lo = max(0, hi - 50)
            assert sieve_range(lo, hi).tolist() == \
                _oracles.window_primes(lo, hi), hi


@pytest.fixture
def fresh_base(monkeypatch):
    """The per-process base-prime array as a new process holds it."""
    monkeypatch.setattr(sieve, "_base", np.empty(0, dtype=np.int64))
    monkeypatch.setattr(sieve, "_base_hi", 2)


ORDER_WINDOWS = [(1 << 46, 3000), (10 ** 12, 3000), (10 ** 6, 3000)]
_FRESH_WINDOW = """
import hashlib, sys
from primestrings import sieve_range
lo, width = map(int, sys.argv[1:])
print(hashlib.sha256(sieve_range(lo, lo + width).tobytes()).hexdigest())
"""


def test_base_array_windows_match_fresh_process_in_any_order(fresh_base):
    # one new interpreter per window, then every window in one process,
    # descending and then ascending from an empty array
    src = pathlib.Path(sieve.__file__).resolve().parents[1]
    fresh = [subprocess.run([sys.executable, "-c", _FRESH_WINDOW,
                             str(lo), str(width)], check=True, text=True,
                            capture_output=True, env={"PYTHONPATH": str(src)}
                            ).stdout.strip()
             for lo, width in ORDER_WINDOWS]
    want = [_oracles.window_primes(lo, lo + width)
            for lo, width in ORDER_WINDOWS]
    for order in (ORDER_WINDOWS, ORDER_WINDOWS[::-1]):
        got = {w: sieve_range(w[0], w[0] + w[1]) for w in order}
        assert [hashlib.sha256(got[w].tobytes()).hexdigest()
                for w in ORDER_WINDOWS] == fresh
        assert [got[w].tolist() for w in ORDER_WINDOWS] == want
        sieve._base, sieve._base_hi = np.empty(0, dtype=np.int64), 2


def test_second_window_at_a_height_lists_no_base_primes(fresh_base,
                                                        monkeypatch):
    calls = []
    primes_in = sieve._primes_in

    def counted(lo, hi, *rest):
        calls.append((lo, hi))
        return primes_in(lo, hi, *rest)

    monkeypatch.setattr(sieve, "_primes_in", counted)
    lo = 1 << 46
    sieve_range(lo, lo + 1000)
    assert len(calls) > 1                    # the window and its base
    calls.clear()
    sieve_range(lo + 5000, lo + 6000)
    assert calls == [(lo + 5000, lo + 6000)]


@seed(1077871)
@settings(database=None, deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 150_000), min_size=1, max_size=6))
def test_base_primes_match_dense_sieve_for_any_bounds(bounds):
    # every sequence of bounds, from an empty array: each call lists
    # exactly the primes <= bound, and the array only grows
    with mock.patch.object(sieve, "_base", np.empty(0, dtype=np.int64)), \
            mock.patch.object(sieve, "_base_hi", 2):
        held = 2
        for bound in bounds:
            got = _base_primes(bound)
            assert got.tolist() == _oracles.simple_sieve(bound).tolist()
            assert sieve._base_hi >= max(held, bound + 1)
            held = sieve._base_hi
            assert sieve._base.tolist() == \
                _oracles.simple_sieve(held - 1).tolist()


def test_base_array_never_passes_isqrt_of_the_scan_cap(fresh_base):
    cap = math.isqrt(MAX_SCAN_HI) + 1
    for hi in (10, 10 ** 6, 10 ** 12, 1 << 46, (1 << 47) + 1, MAX_SCAN_HI):
        sieve_range(hi - 10, hi)
        assert sieve._base_hi <= cap, hi
    assert _base_primes(cap - 1)[-1] == 16_777_213
    assert sieve._base_hi == cap
    assert sieve._base.size == 1_077_871          # pi(2^24), 8.6 MB
    with pytest.raises(RangeTooLarge):
        _base_primes(cap)


def _strike_by_index(flags, first, step):
    flags = flags.copy()
    for j, p in zip(first, step):
        for i in range(j, flags.size, p):
            flags[i] = True
    return flags


def test_strike_matches_per_index_loop():
    rng = random.Random(49)
    cases = [(0, [], []), (1, [], []), (0, [0, 3], [1, 2]), (1, [0], [1]),
             (1, [1, 0], [1, 1]), (1, [0, 0], [2, 5])]
    for _ in range(400):
        n = rng.choice([0, 1, 2, rng.randrange(3, 300)])
        # steps around the split at n, offsets at and beyond the end
        pool = [s for s in (n - 1, n, n + 1) if s >= 1] + \
            [rng.randrange(1, 2 * n + 3) for _ in range(3)]
        step = sorted(rng.choice(pool) for _ in range(rng.randrange(0, 12)))
        first = [rng.randrange(0, 2 * n + 4) for _ in step]
        cases.append((n, first, step))
    for n, first, step in cases:
        flags = np.array([rng.random() < 0.2 for _ in range(n)], dtype=bool)
        want = _strike_by_index(flags, first, step)
        _strike(flags, np.array(first, dtype=np.int64),
                np.array(step, dtype=np.int64))
        assert flags.tolist() == want.tolist(), (n, first, step)


def test_strike_tier_edges_match_per_index_loop():
    # steps ceil(n/h) - 1, ceil(n/h), ceil(n/h) + 1 for every h <= 64:
    # each tier of _strike is non-empty and each tier edge is crossed;
    # offset 0 makes a step reach its last possible index
    rng = random.Random(64)
    for n in (63, 64, 65, 127, 1000, 4095, 4097, 4999, 5000):
        steps = sorted({s for h in range(1, 65)
                        for s in (-(-n // h) + d for d in (-1, 0, 1))
                        if s >= 1})
        step = [s for s in steps for _ in range(2)]
        first = [j for s in steps for j in (0, rng.randrange(0, 2 * s))]
        flags = np.zeros(n, dtype=bool)
        want = _strike_by_index(flags, first, step)
        _strike(flags, np.array(first, dtype=np.int64),
                np.array(step, dtype=np.int64))
        assert flags.tolist() == want.tolist(), n


class _SliceCounter(np.ndarray):
    """A bool array that counts the strided-slice writes made to it."""

    slices = 0

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            _SliceCounter.slices += 1
        super().__setitem__(key, value)


def test_strike_loops_only_over_steps_below_n_over_64():
    # steps below ceil(n/64) write one strided slice each; every larger
    # step goes through the numpy tiers, so writes no slice
    n = 5000
    step = np.arange(1, 2 * n, dtype=np.int64)
    flags = np.zeros(n, dtype=bool).view(_SliceCounter)
    _SliceCounter.slices = 0
    _strike(flags, np.zeros(step.size, dtype=np.int64), step)
    assert _SliceCounter.slices == -(-n // 64) - 1
    assert flags.all()


def test_strike_temporaries_stay_within_two_index_arrays():
    # one 2^18-odd segment at 2^46 with all 564,162 base primes: no
    # tier, nor the first-index strike, holds more than 2 n int64s
    n, m_lo = 1 << 18, (1 << 46) + 1
    base = sieve_range(0, math.isqrt(m_lo + 2 * n) + 1)[1:]
    k = np.maximum((m_lo + base - 1) // base, base) | 1
    first = (k * base - m_lo) >> 1
    flags = np.zeros(n, dtype=bool)
    tracemalloc.start()
    try:
        _strike(flags, first, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert base.size == 564_162
    assert peak <= 2 * n * 8, peak
    primes = set(_oracles.window_primes(m_lo, m_lo + 2 * n))
    assert flags.tolist() == [m_lo + 2 * j not in primes for j in range(n)]


def test_bitmap_identical_across_segmentation():
    base = sieve_range(0, 100_000)
    for seg in (64, 1_000, 4_999, 1 << 16):
        assert np.array_equal(sieve_range(0, 100_000, segment_size=seg), base)


def test_class_primes_are_the_primes_of_their_class(primes_100k):
    # at 64 values a segment, z runs over segment edges 1 + 64 k M,
    # M = lcm(2, q), and one random height a modulus
    rng = random.Random(41)
    for q in range(1, 41):
        m = q if q % 2 == 0 else 2 * q
        edges = [1 + 64 * k * m + d for k in (1, 2, 5) for d in (-1, 0, 1)]
        for z in [0, 1, 2, 3, q, q + 1, *edges, rng.randrange(100_000)]:
            want = primes_100k[(primes_100k <= z)
                               & (primes_100k % q == 1 % q)]
            for seg in (64, DEFAULT_SEGMENT_BYTES):
                assert np.array_equal(_class_primes(q, z, seg), want), \
                    (q, z, seg)


def test_count_primes_ap_examples():
    assert count_primes_ap(100, 4).counts == {0: 0, 1: 11, 2: 1, 3: 13}
    assert count_primes_ap(10, 1).counts == {0: 4}
    c = count_primes_ap(100, 4)
    assert sum(c.counts.values()) == 25
    assert isinstance(c, SetCensus)


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


def test_count_primes_ap_modulus_cap():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidModulus, match=str(MAX_CENSUS_Q)):
            count_primes_ap(10, MAX_CENSUS_Q + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_CENSUS_Q       # one int64 per residue is 8x that


def test_count_primes_ap_walks_segments(monkeypatch):
    # at q = 60, past Lucy's programme ((3 q)^4 > X), the census holds one
    # 2^21-wide segment at a time, not every prime up to X (a one-window
    # sieve peaked at 10 MiB here); at q = 7 the programme sieves to
    # X // 216 only and walks no segment
    segments = []
    real = search._segment_census

    def spy(args):
        segments.append(args)
        return real(args)

    monkeypatch.setattr(search, "_segment_census", spy)
    for q, small, walks in ((60, (2, 3, 5), True), (7, (0,), False)):
        segments.clear()
        tracemalloc.start()
        try:
            got = count_primes_ap(10 ** 7, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(got.counts.values()) == 664_579
        assert all(got.counts[r] == 1 for r in small)     # 2, 3, 5 or 7
        assert peak < 6 * 2 ** 20
        assert bool(segments) == walks


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


def test_is_prime_bpsw():
    # strong base-2 pseudoprimes pass the Miller-Rabin half only; the
    # squares of the Wieferich primes 1093 and 3511 reach the Lucas
    # half's square check
    for n in (2047, 3277, 4033, 4681, 8321, 3215031751, 1093 ** 2,
              3511 ** 2):
        assert _strong_prp_base2(n) and not is_prime(n), n
    # strong Lucas pseudoprimes (Selfridge parameters) pass the Lucas
    # half only
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_prp(n) and not is_prime(n), n
    # extra strong Lucas pseudoprimes (Grantham's P = 3, 4, ..., Q = 1)
    # that are not Selfridge ones: the Q = 1 ladder keeps Selfridge's test
    for n in (3239, 27971, 29681, 30739):
        assert not _strong_lucas_prp(n), n
    assert all(is_prime(n) for n in (2 ** 89 - 1, 2 ** 107 - 1,
                                     2 ** 127 - 1))
    assert not any(is_prime(n) for n in ((2 ** 61 - 1) * (2 ** 31 - 1),
                                         (2 ** 61 - 1) ** 2,
                                         (2 ** 89 - 1) * (2 ** 107 - 1)))


def test_is_prime_agrees_with_miller_rabin_above_2_64():
    semiprimes = [a * b for a, b in FACTORS_107]
    factors = [p for pair in FACTORS_107 for p in pair]
    for n in (*PRIMES_214, *semiprimes, *factors):
        assert is_prime(n) == _oracles.miller_rabin_48(n), n
    assert all(is_prime(p) for p in PRIMES_214 + tuple(factors))
    assert not any(is_prime(n) for n in semiprimes)


def test_is_prime_range_ceiling():
    n = (1 << 257) | 1
    while any(n % p == 0 for p in _TINY_PRIMES):
        n += 2
    with pytest.raises(RangeExceeded):
        is_prime(n)


def _no_tiny_factor(n):
    return all(n % p for p in _TINY_PRIMES)


def test_strong_lucas_matches_matrix_oracle_below_2e5():
    # every odd n < 2e5 with no factor below 41, composites included
    for n in range(41, 200_000, 2):
        if _no_tiny_factor(n):
            assert _strong_lucas_prp(n) == \
                _oracles.selfridge_strong_lucas(n), n


@st.composite
def lucas_inputs(draw):
    """Odd n with no factor below 41: random, or a probable prime, or a
    product with a square or with a near-twin (the usual pseudoprime
    shapes)."""
    bits = draw(st.integers(12, 256))
    n = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    shape = draw(st.sampled_from(["any", "prime", "p2q", "pq"]))
    if shape != "any":
        n = max(n >> (bits // 2), 41) | 1
        while not _oracles.miller_rabin_48(n) or n < 41:
            n += 2
        if shape == "p2q":
            n *= n * draw(st.sampled_from([41, 43, 47, 53, 59, 61]))
        elif shape == "pq":
            m = 2 * n - 1 + 2 * draw(st.integers(0, 30))
            n *= m
    if not _no_tiny_factor(n):
        n = n * 41 * 43 | 1
    return n


@seed(5459)
@settings(database=None, deadline=None, max_examples=300)
@given(lucas_inputs())
@example(5777)                           # Selfridge strong Lucas pseudoprime
@example(1093 ** 2)                      # a square
@example((2 ** 89 - 1) * (2 ** 107 - 1))
# 43^2 * 461 and 71^2 * 179: V'_d = +-2 with U'_d != 0 (a nilpotent
# g^d - 1 modulo p^2), so the U' check is needed
@example(852389)
@example(902339)
def test_strong_lucas_matches_matrix_oracle(n):
    if _no_tiny_factor(n):
        assert _strong_lucas_prp(n) == _oracles.selfridge_strong_lucas(n)


@seed(10877)
@settings(database=None, deadline=None, max_examples=200)
@given(lucas_inputs(), st.integers(0, 400), st.booleans())
# D = 85 and 33: V'_(d 2^(s-1)) = 0 after every earlier check failed, so
# the last squaring must stay unchecked (r < s)
@example(3569, 40, False)
@example(19109, 14, False)
def test_strong_lucas_matches_oracle_for_any_selfridge_d(n, k, share_q):
    # the ladder's equivalences need only D and Q to be units mod n, so
    # they hold for every D of Selfridge's sequence 5, -7, 9, ..., not
    # only the first with (D/n) = -1; forcing D reaches far beyond the
    # |D| <= 59 that n < 3e6 ever use, and gcd(Q, n) > 1 (share_q)
    D = (5 + 2 * k) * (-1) ** k
    Q = (1 - D) // 4
    if share_q:                  # n gains a factor of Q above 37
        n *= next((p for p in range(41, abs(Q) + 1)
                   if Q % p == 0 and _oracles.trial_is_prime(p)), 1)
    if not _no_tiny_factor(n) or math.gcd(D, n) > 1:
        return
    with mock.patch.object(sieve, "_jacobi",
                           lambda a, m: -1 if a == D else 1):
        got = _strong_lucas_prp(n)
    assert got == _oracles.selfridge_strong_lucas(n, D=D)
    if math.gcd(Q, n) > 1:
        assert not got
