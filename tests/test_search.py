"""String scanning: hits, runs, censuses, verification, determinism."""

import argparse
import itertools
import json
import logging
import math
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import _oracles
import conftest
from primestrings import arith, cli, search, sieve
from primestrings import (GFamily, NotFound, SetCensus, SpecialSetSpec,
                          StringHit, StringQuery, count_primes_ap,
                          find_first_string, hit_record, is_prime,
                          named_constant, residue_census, scan_all_strings,
                          sieve_range, special_primes, verify_hit)
from primestrings.errors import (InvalidQuery, InvalidRange, PrimestringsError,
                                 RangeTooLarge)
from primestrings.search import MAX_CENSUS_Q, _ordered_results
from primestrings.sieve import MAX_SCAN_HI
from primestrings.special import member

ALL = SpecialSetSpec.all_primes()


def q(spec, k, qq, a, limit):
    return StringQuery(spec=spec, k=k, q=qq, a=a, limit=limit)


# ------------------------------------------------------------- validation

def test_query_validation():
    with pytest.raises(InvalidQuery):
        q(ALL, 0, 3, 1, 100)
    with pytest.raises(InvalidQuery):
        q(ALL, 1, 0, 1, 100)
    with pytest.raises(InvalidQuery):
        q(ALL, 1, 6, 3, 100)     # gcd(3, 6) = 3
    with pytest.raises(InvalidQuery):
        q(ALL, 1, 3, 1, 1)


def test_query_limit_above_scan_cap():
    q(ALL, 3, 7, 5, MAX_SCAN_HI)             # the cap itself is accepted
    with pytest.raises(RangeTooLarge, match="MAX_SCAN_HI"):
        q(ALL, 3, 7, 5, MAX_SCAN_HI + 1)


# ------------------------------------------------------------------ hits

def test_first_string_all_primes_mod4():
    hit = find_first_string(q(ALL, 3, 4, 1, 1000))
    assert isinstance(hit, StringHit)
    assert hit.primes == [89, 97, 101]
    assert hit.first_occurrence
    # 89 is the 24th prime; 23 primes come before it
    assert hit.start_index == 23
    assert verify_hit(q(ALL, 3, 4, 1, 1000), hit, check_index=True)


def test_first_string_trivial_k1():
    hit = find_first_string(q(ALL, 1, 3, 2, 10))
    assert hit.primes == [2] and hit.start_index == 0


def test_not_found_is_a_result():
    out = find_first_string(q(SpecialSetSpec.beatty(named_constant("pi")),
                              6, 7, 5, 1000))
    assert isinstance(out, NotFound)
    assert out.limit == 1000


def test_hit_is_first_occurrence_against_oracle(b_pi):
    query = q(b_pi, 3, 5, 2, 200_000)
    hit = find_first_string(query)
    assert isinstance(hit, StringHit)
    bp = _oracles.beatty_primes_below(200_000)
    ordinal, primes = _oracles.first_k_run(bp, 3, 5, 2)
    assert hit.primes == primes
    assert hit.start_index == ordinal
    assert verify_hit(query, hit, check_index=True)


def test_monotone_in_limit(b_pi):
    short = find_first_string(q(b_pi, 2, 7, 3, 50_000))
    long = find_first_string(q(b_pi, 2, 7, 3, 400_000))
    assert isinstance(short, StringHit)
    assert long.primes == short.primes
    assert long.start_index == short.start_index


# ------------------------------------------------------------------ runs

def test_scan_all_strings_mod4():
    runs = scan_all_strings(q(ALL, 1, 4, 1, 31))
    assert runs.tolist() == [(5, 1), (13, 2), (29, 1)]


def test_scan_all_strings_beatty(b_pi):
    # the first seven Beatty primes are odd; 97 is excluded by the limit
    runs = scan_all_strings(q(b_pi, 1, 2, 1, 97))
    assert runs.tolist() == [(3, 7)]


def test_runs_cover_census(b_pi):
    X = 50_000
    for a in (1, 5):
        runs = scan_all_strings(q(b_pi, 1, 7, a, X + 1))
        census = residue_census(b_pi, X, 7)
        assert sum(n for _, n in runs) == census.counts[a]


def test_runs_partition_whole_set(b_pi):
    X = 20_000
    census = residue_census(b_pi, X, 3)
    total = sum(
        n for a in (1, 2)
        for _, n in scan_all_strings(q(b_pi, 1, 3, a, X + 1)))
    # residue 0 only ever holds the prime 3 itself
    assert total + census.counts[0] == sum(census.counts.values())


# ---------------------------------------------------------------- census

def test_census_beatty_100(b_pi):
    census = residue_census(b_pi, 100, 7)
    assert census.counts == {0: 0, 1: 1, 2: 1, 3: 3, 4: 1, 5: 1, 6: 1}
    assert census.phi == 6
    assert census.X == 100 and census.q == 7
    assert census.coprime_mean == pytest.approx(8 / 6)
    assert census.max_ratio == pytest.approx(3 / (8 / 6))
    assert census.set_descriptor == "beatty:pi"


def test_census_modulus_cap(b_pi):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidQuery, match=str(MAX_CENSUS_Q)):
            residue_census(b_pi, 10 ** 8, MAX_CENSUS_Q + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_CENSUS_Q       # one int64 per residue is 8x that


def test_census_statistics_at_the_largest_modulus():
    # taken from the count array, the statistics equal the formulas on
    # the counts dict to the last bit: a Python int mean, int max / min
    census = residue_census(ALL, 3 * 10 ** 6, MAX_CENSUS_Q)
    assert list(census.counts) == list(range(MAX_CENSUS_Q))
    assert {type(c) for c in census.counts.values()} == {int}
    coprime = [census.counts[r] for r in range(MAX_CENSUS_Q)
               if math.gcd(r, MAX_CENSUS_Q) == 1]
    mean = sum(coprime) / len(coprime)
    got = census.coprime_mean, census.max_ratio, census.min_ratio
    assert [type(x) for x in got] == [float] * 3
    assert got == (mean, max(coprime) / mean, min(coprime) / mean)
    assert census.max_ratio > 1 > census.min_ratio


def test_coprime_classes_equal_the_gcd_mask():
    for qq in [*range(1, 301), 30030, 510510, 720720, 999_983, 10 ** 6]:
        want = np.gcd(np.arange(qq), qq) == 1
        assert np.array_equal(search._coprime_classes(qq), want), qq


def test_coprime_classes_cross_off_through_the_sieve_kernel(monkeypatch):
    # _strike, the package's one crossing-off kernel, strikes q's primes
    steps, real = [], search._strike
    monkeypatch.setattr(search, "_strike",
                        lambda *args: steps.append(args[2].tolist())
                        or real(*args))
    search._coprime_classes(510510)
    assert steps == [[2, 3, 5, 7, 11, 13, 17]]


def test_census_csv():
    # the census's CSV is written by the census command, from the census
    census = residue_census(ALL, 10, 3)
    assert dict(census.counts) == {0: 1, 1: 1, 2: 2}  # 3; 7; 2 and 5
    code, text = cli.cmd_census(argparse.Namespace(
        set=ALL, limit=10, q=3, threads=1, format="csv"))
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "residue,count"
    assert lines[1:] == ["0,1", "1,1", "2,2"]


def test_census_matches_direct_count(b_pi, primes_100k):
    X = 30_000
    bp = [p for p in _oracles.beatty_primes_below(X + 1)]
    for qq in (3, 4, 10):
        census = residue_census(b_pi, X, qq)
        assert census.counts == _oracles.ap_counts(bp, qq)


def test_census_rejects_bad_modulus(b_pi):
    with pytest.raises(InvalidQuery):
        residue_census(b_pi, 100, 0)


def test_census_rejects_limits_outside_the_scan_range(b_pi, monkeypatch):
    def no_segments(*args):
        raise AssertionError("segments built for a rejected limit")

    monkeypatch.setattr(search, "_segment_bounds", no_segments)
    with pytest.raises(InvalidRange):
        residue_census(b_pi, -5, 3)
    with pytest.raises(RangeTooLarge, match="MAX_SCAN_HI"):
        residue_census(b_pi, MAX_SCAN_HI, 3)      # scans [1, X + 1)


def sieve_census(X, qq, workers=1):
    """Counts of the primes <= X mod qq by the segmented sieve census,
    which a table cap of 0 cells leaves to every census."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_CENSUS_CELLS", 0)
        census = residue_census(ALL, X, qq, workers=workers)
    return [census.counts[r] for r in range(qq)]


PRIMES_1500K = _oracles.simple_sieve(1_500_000)


@st.composite
def prime_census_cases(draw):
    """X in [0, 3e6 + 1], most of them within 1 of an edge of the
    programme: X < 8, p^2, p^3 or p p' for primes p <= p'."""
    kind = draw(st.sampled_from(("small", "p^2", "p^3", "pp'", "any")))
    if kind == "small":
        X = draw(st.integers(0, 7))
    elif kind == "any":
        X = draw(st.integers(0, 3 * 10 ** 6))
    else:
        # the 34th prime is 139, 139^3 < 3e6; the 269th is 1723 < sqrt(3e6)
        p = int(PRIMES_1500K[draw(st.integers(0, 33 if kind == "p^3"
                                              else 268))])
        lo, hi = np.searchsorted(PRIMES_1500K, [p, 3 * 10 ** 6 // p],
                                 "right")
        p2 = int(PRIMES_1500K[draw(st.integers(lo - 1, hi - 1))])
        X = {"p^2": p * p, "p^3": p ** 3, "pp'": p * p2}[kind]
        X = max(0, X + draw(st.integers(-1, 1)))
    qq = draw(st.one_of(st.sampled_from((1, 2, 3, 4, 6, 7, 9, 30, 210)),
                        st.integers(1, 64)))
    return X, qq


@seed(20144)
@settings(database=None, deadline=None, max_examples=60)
@given(prime_census_cases())
@example((0, 1))
@example((2_685_619, 210))           # 139^3, the largest q listed
@example((99_252_847, 30))           # 463^3: 2, 3 and 5 fold the classes
def test_prime_census_matches_the_sieve_census(case):
    X, qq = case
    assert search._prime_census(X, qq).tolist() == sieve_census(X, qq)


def test_prime_census_at_1e9_matches_the_sieve_and_pi():
    # pi(10^9) = 50,847,534 (published); the sieve census at 2 workers
    # takes most of this test's 3 s, the programme 30 ms
    assert count_primes_ap(10 ** 9, 1).counts == {0: 50_847_534}
    got = search._prime_census(10 ** 9, 7).tolist()
    assert sum(got) == 50_847_534
    assert got == sieve_census(10 ** 9, 7, workers=2)


@st.composite
def segment_tasks(draw):
    """A window [lo, hi) at most 2^21 wide in [0, 2^48), lo <= 2 < hi
    for some, a set, a census modulus and a residue."""
    top = MAX_SCAN_HI - (1 << 21)
    lo = draw(st.one_of(st.integers(0, 2), st.integers(0, top),
                        st.integers(top - (1 << 21), top)))
    hi = lo + draw(st.integers(0, 1 << 21))
    spec = draw(st.sampled_from((ALL, SpecialSetSpec.beatty(
        named_constant("pi")))))
    qq = draw(st.sampled_from((1, 2, 7, 30, 999_983, MAX_CENSUS_Q)))
    return spec, lo, hi, qq, draw(st.integers(0, qq - 1))


@seed(37)
@settings(database=None, deadline=None, max_examples=25)
@given(segment_tasks())
@example((ALL, 0, 1 << 16, 30, 7))
@example((ALL, MAX_SCAN_HI - (1 << 21), MAX_SCAN_HI - (1 << 20), 999_983, 1))
def test_segment_tasks_match_a_remainder_and_boolean_index_oracle(task):
    # the set-primes by a boolean index of scalar membership, classes by %
    spec, lo, hi, qq, a = task
    sp = sieve_range(lo, hi)
    # the sieve's first and last prime against BPSW
    ends = [next((n for n in ns if is_prime(n)), None)
            for ns in (range(lo, hi), range(hi - 1, lo - 1, -1))]
    assert ends == (sp[[0, -1]].tolist() if sp.size else [None, None])
    if spec.kind == "beatty":
        sp = sp[[member(spec, p) for p in sp.tolist()]]
    census = search._segment_census((spec, qq, lo, hi))
    assert census.tolist() == np.bincount(sp % qq, minlength=qq).tolist()
    count, starts, lengths, ordinals = search._segment_runs(
        (spec, qq, a, lo, hi))
    runs = _oracles.maximal_runs(sp.tolist(), qq, a)
    assert count == sp.size
    assert list(zip(starts.tolist(), lengths.tolist())) == runs
    assert ordinals.tolist() == np.searchsorted(sp, starts).tolist()


def test_the_programme_counts_an_all_census_within_both_bounds(
        b_pi, monkeypatch):
    # (3 q)^4 <= X and q (2 isqrt(X) + 1) <= _CENSUS_CELLS, each at its
    # edge: X = 81 * 7^4 = 441^2, and the table of that X fills the cap
    calls = []
    real = search._prime_census

    def spy(X, qq):
        calls.append((X, qq))
        return real(X, qq)

    monkeypatch.setattr(search, "_prime_census", spy)
    X = 81 * 7 ** 4
    cells = 7 * (2 * 441 + 1)
    for spec, XX, cap, taken in ((ALL, X, cells, True),
                                 (ALL, X - 1, cells, False),
                                 (ALL, X, cells - 1, False),
                                 (b_pi, X, cells, False),
                                 (SpecialSetSpec.floor_product(
                                     FLOORPROD["loglog"]), X, cells, False)):
        calls.clear()
        monkeypatch.setattr(search, "_CENSUS_CELLS", cap)
        census = residue_census(spec, XX, 7)
        assert calls == ([(XX, 7)] if taken else [])
        if spec is ALL:
            assert [census.counts[r] for r in range(7)] == \
                sieve_census(XX, 7)


def test_a_census_past_the_table_cap_never_builds_it(monkeypatch):
    # at q = MAX_CENSUS_Q the table would take 2e9 cells at X = 1e6,
    # and at q = 1 near 2^48, 2^25: both censuses sieve
    def no_table(X, qq):
        raise AssertionError("built a table past _CENSUS_CELLS")

    class Sieved(Exception):
        pass

    def first_segment(args):
        raise Sieved

    monkeypatch.setattr(search, "_prime_census", no_table)
    census = residue_census(ALL, 10 ** 6, MAX_CENSUS_Q)
    assert sum(census.counts.values()) == 78_498
    monkeypatch.setattr(search, "_segment_census", first_segment)
    with pytest.raises(Sieved):
        residue_census(ALL, MAX_SCAN_HI - 2, 1)


def test_scan_plans_its_segments_lazily(monkeypatch):
    # limit 2^40 is 2^19 segments; a hit in the first one ends the scan
    # before the rest of the plan exists
    def first_segment_hits(args):
        return 3, np.array([2]), np.array([3]), np.array([0])

    monkeypatch.setattr(search, "_segment_runs", first_segment_hits)
    tracemalloc.start()
    try:
        hit = find_first_string(q(ALL, 3, 7, 5, 1 << 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit == StringHit(primes=[2, 3, 5], start_index=0)
    assert peak < 1 << 20


def test_a_default_scan_segment_sieves_as_one_segment(b_pi, monkeypatch):
    # a default scan segment spans the odds of one default sieve
    # segment, so each set's primes there take one _sieve_segment call;
    # so does a 10^6 window at 2^46
    seg = search.DEFAULT_SCAN_SEGMENT
    k = 10 ** 8 // seg
    windows = [(1 + k * seg, 1 + (k + 1) * seg),
               (1 << 46, (1 << 46) + 10 ** 6)]
    for _, hi in windows:            # base primes grow in their own calls
        sieve._base_primes(math.isqrt(hi - 1))
    calls, real = [], sieve._sieve_segment

    def counted(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(sieve, "_sieve_segment", counted)
    floorprod = SpecialSetSpec.floor_product(GFamily.loglog())
    for lo, hi in windows:
        for spec in (ALL, b_pi, floorprod):
            calls.clear()
            special_primes(spec, lo, hi)
            assert len(calls) == 1, (spec.descriptor(), lo, calls)


# ----------------------------------------------------------- verification

def test_verify_hit_rejects_tampering():
    query = q(ALL, 3, 4, 1, 1000)
    good = find_first_string(query)
    assert verify_hit(query, good)
    bad_congruence = StringHit(primes=[89, 97, 103], start_index=23)
    assert not verify_hit(query, bad_congruence)
    gap_skips_set_prime = StringHit(primes=[89, 97, 109], start_index=23)
    assert not verify_hit(query, gap_skips_set_prime)
    composite = StringHit(primes=[89, 91, 97], start_index=23)
    assert not verify_hit(query, composite)
    wrong_index = StringHit(primes=[89, 97, 101], start_index=22)
    assert verify_hit(query, wrong_index)  # index not checked by default
    assert not verify_hit(query, wrong_index, check_index=True)
    over_limit = StringHit(primes=[89, 97, 101], start_index=23)
    assert not verify_hit(q(ALL, 3, 4, 1, 100), over_limit)
    for not_ascending in ([101, 97, 89], [89, 89, 97]):
        assert not verify_hit(query, StringHit(not_ascending, 23))


def test_verify_hit_checks_membership(b_pi):
    query = q(b_pi, 2, 3, 1, 100)
    hit = find_first_string(query)
    assert hit.primes == [31, 37]
    assert verify_hit(query, hit, check_index=True)
    for shift in (-1, 1):
        moved = StringHit(primes=hit.primes,
                          start_index=hit.start_index + shift)
        assert not verify_hit(query, moved, check_index=True)
    not_in_set = StringHit(primes=[61, 67], start_index=4)
    assert not verify_hit(query, not_in_set)


def test_verify_hit_index_check_walks_segments(b_pi):
    # the ordinal is recounted by the segmented census; listing every
    # set-prime below the string in one window peaked at 25 MiB here
    golden = [26402437, 26402507, 26402591, 26402843, 26402899, 26402927]
    query = q(b_pi, 6, 7, 5, 30_000_000)
    tracemalloc.start()
    try:
        ok = verify_hit(query, StringHit(golden, 523253), check_index=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 12 * 2 ** 20


def test_verify_hit_recounts_an_all_hit_by_lucys_programme(monkeypatch):
    # 10^9 + 7 and 10^9 + 9 are twin primes, and pi(10^9 + 6) = pi(10^9)
    # = 50,847,534: the recount takes the programme (30 ms), where the
    # sieve census took 2.7 s at 2 workers
    calls = []
    real = search._prime_census

    def spy(X, qq):
        calls.append((X, qq))
        return real(X, qq)

    monkeypatch.setattr(search, "_prime_census", spy)
    monkeypatch.setattr(search, "_segment_census", _forbidden)
    query = q(ALL, 2, 2, 1, 10 ** 9 + 10)
    twins = [10 ** 9 + 7, 10 ** 9 + 9]
    assert verify_hit(query, StringHit(twins, 50_847_534), check_index=True)
    assert not verify_hit(query, StringHit(twins, 50_847_535),
                          check_index=True)
    assert calls == [(10 ** 9 + 6, 1)] * 2


# ------------------------------------------------------------ determinism

def test_results_invariant_under_workers_and_segments(b_pi):
    query = q(b_pi, 3, 5, 2, 200_000)
    base_hit = find_first_string(query)
    base_runs = scan_all_strings(q(b_pi, 1, 7, 1, 100_000))
    base_census = residue_census(b_pi, 100_000, 7)
    for workers, seg in ((1, 4999), (2, 1 << 14), (3, 1 << 21), (2, 999)):
        hit = find_first_string(query, workers=workers, segment_size=seg)
        assert (hit.primes, hit.start_index) == \
            (base_hit.primes, base_hit.start_index)
        runs = scan_all_strings(q(b_pi, 1, 7, 1, 100_000),
                                workers=workers, segment_size=seg)
        assert runs.tolist() == base_runs.tolist()
        census = residue_census(b_pi, 100_000, 7,
                                workers=workers, segment_size=seg)
        assert census.counts == base_census.counts


FLOORPROD = {"loglog": GFamily.loglog(), "log^1.5": GFamily.log_pow(1.5)}


@lru_cache(maxsize=None)
def floorprod_primes_below_40k(name):
    family, B = ("loglog", 1.0) if name == "loglog" else ("log", 1.5)
    values = _oracles.floorprod_values(family, B, 2, 40_000)
    return [m for m in values if _oracles.trial_is_prime(m)]


def spec_and_oracle_primes(name, limit):
    """The set named by name and its primes below limit, from _oracles."""
    if name == "all":
        return ALL, [int(p) for p in _oracles.simple_sieve(limit - 1)]
    if name in FLOORPROD:
        return (SpecialSetSpec.floor_product(FLOORPROD[name]),
                [p for p in floorprod_primes_below_40k(name) if p < limit])
    return (SpecialSetSpec.beatty(named_constant(name)),
            _oracles.beatty_primes_below(limit, name))


@st.composite
def scan_cases(draw):
    name = draw(st.sampled_from(["all", "pi", "e", *FLOORPROD]))
    qq = draw(st.integers(1, 12))
    a = draw(st.sampled_from([r for r in range(qq) if math.gcd(r, qq) == 1]))
    return (name, qq, a, draw(st.integers(1, 4)),
            draw(st.integers(2, 40_000)), draw(st.integers(1, 6_000)))


@seed(20141)
@settings(database=None, deadline=None, max_examples=40)
@given(scan_cases())
# the odd Beatty primes form one run across many empty segments
@example(("pi", 2, 1, 3, 3_000, 7))
def test_splicer_matches_oracle(case):
    name, qq, a, k, limit, seg = case
    spec, set_primes = spec_and_oracle_primes(name, limit)
    query = q(spec, k, qq, a, limit)
    assert scan_all_strings(query, segment_size=seg).tolist() == \
        _oracles.maximal_runs(set_primes, qq, a)
    want = _oracles.first_k_run(set_primes, k, qq, a)
    hit = find_first_string(query, segment_size=seg)
    if want is None:
        assert isinstance(hit, NotFound)
    else:
        assert (hit.start_index, hit.primes) == want
        assert verify_hit(query, hit, check_index=True)


@seed(20143)
@settings(database=None, deadline=None, max_examples=200)
@given(st.lists(st.booleans(), max_size=64))
@example([])
@example([True] * 64)
@example([False] * 64)
def test_good_runs_matches_loop(flags):
    want, begin = [], None
    for i, flag in enumerate(flags + [False]):
        if flag and begin is None:
            begin = i
        elif not flag and begin is not None:
            want.append((begin, i - begin))
            begin = None
    first, length = search._good_runs(np.array(flags, dtype=bool))
    assert list(zip(first.tolist(), length.tolist())) == want


@st.composite
def pool_cases(draw):
    name = draw(st.sampled_from(["all", "pi", "loglog"]))
    qq = draw(st.integers(1, 12))
    a = draw(st.sampled_from([r for r in range(qq) if math.gcd(r, qq) == 1]))
    limit = draw(st.integers(2, 40_000))
    # at most 40 segments, so a pool round trip per segment stays cheap
    seg = draw(st.integers(max(1, limit // 40), limit))
    return name, qq, a, limit, seg


@seed(20142)
@settings(database=None, deadline=None, max_examples=10)
@given(pool_cases())
def test_one_and_two_workers_match_oracle(case):
    name, qq, a, limit, seg = case
    spec, set_primes = spec_and_oracle_primes(name, limit)
    primes = [int(p) for p in _oracles.simple_sieve(limit - 1)]
    query = q(spec, 1, qq, a, limit)
    runs = _oracles.maximal_runs(set_primes, qq, a)
    counts = _oracles.ap_counts(set_primes, qq)
    assert sieve_range(0, limit, segment_size=seg).tolist() == primes
    for workers in (1, 2):
        assert scan_all_strings(query, workers=workers,
                                segment_size=seg).tolist() == runs
        census = residue_census(spec, limit - 1, qq, workers=workers,
                                segment_size=seg)
        assert census.counts == counts


def test_ordered_results_draws_jobs_as_the_pool_has_room():
    drawn = []

    def jobs():                      # an endless plan
        for j in itertools.count():
            drawn.append(j)
            yield j

    results = _ordered_results(abs, jobs(), 2)
    assert [next(results) for _ in range(3)] == [(0, 0), (1, 1), (2, 2)]
    results.close()                  # an early break: the pool shuts down
    assert len(drawn) <= 3 + 2 * 2
    # a plan of one job starts no pool
    assert list(_ordered_results(lambda j: -j, iter([7]), 2)) == [(7, -7)]
    results = _ordered_results(lambda j: -j, itertools.count(5), workers=2)
    assert next(results) == (5, -5)
    results.close()


def test_one_worker_runs_every_job_in_order_with_no_pool(monkeypatch):
    # the caller's share, job 1 and every workers-th after it, is every
    # job at one worker, so no pool is built; an endless plan is drawn
    # at most 2 jobs ahead of the consumer
    _pool_class(monkeypatch, _forbidden)
    caller, drawn = threading.get_ident(), []

    def jobs():
        for j in itertools.count():
            drawn.append(j)
            yield j

    results = _ordered_results(_thread, jobs(), 1)
    for j in range(6):
        assert next(results) == (j, caller)
        assert len(drawn) <= j + 1 + 2
    results.close()


def test_collect_run_primes_takes_the_first_k_across_blocks():
    # 4 set-primes in the first 2^16 block from 10^6, so k = 6 reads two
    spec = SpecialSetSpec.floor_product(GFamily.log_pow(3.0))
    want = special_primes(spec, 10 ** 6, 2 * 10 ** 6)[:6].tolist()
    assert search._collect_run_primes(spec, 10 ** 6, 6, 2 * 10 ** 6) == want


def _forbidden(*args, **kwargs):
    raise AssertionError("started a pool or a segment the test forbids")


def _thread(job):
    return threading.get_ident()


def _raise_at_two(job):
    if job == 2:
        raise ValueError(f"job 2 failed in {threading.get_ident()}")
    return job


def _pool_class(monkeypatch, cls):
    """Have _ordered_results build its pools with cls, in place of
    ThreadPoolExecutor."""
    monkeypatch.setattr(search, "ThreadPoolExecutor", cls)


def _sized_pools(monkeypatch):
    """Record the size of each thread pool search builds, and build it."""
    sizes = []
    real = search.ThreadPoolExecutor

    def sized(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    _pool_class(monkeypatch, sized)
    return sizes


def test_pool_is_no_larger_than_the_jobs_it_holds(b_pi, monkeypatch):
    # four segments: the caller runs the first and every workers-th
    # after it, and the pool takes the rest, in at most workers - 1
    # threads; so 1, 2 and 3 threads at 2, 3 and 8 workers
    sizes = _sized_pools(monkeypatch)
    want = residue_census(b_pi, 59_999, 7, segment_size=15_000)
    for workers in (2, 3, 8):
        got = residue_census(b_pi, 59_999, 7, workers=workers,
                             segment_size=15_000)
        assert got.counts == want.counts
    assert sizes == [1, 2, 3]


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_runs_every_workers_th_job(workers, monkeypatch):
    # the pool is built before job 1 runs, and the caller runs the
    # jobs 1, 1 + w, ... (here numbered from 0)
    sizes = _sized_pools(monkeypatch)
    caller = threading.get_ident()
    results = _ordered_results(_thread, range(12), workers)
    assert next(results) == (0, caller)
    assert sizes == [workers - 1]
    threads = dict(results)
    assert sizes == [workers - 1]
    assert [j for j in threads if threads[j] == caller] == list(
        range(workers, 12, workers))


def test_first_string_runs_segment_1_before_any_fork(monkeypatch):
    # the caller's windows and the pool's start, in the caller's order
    caller, noted = threading.get_ident(), []
    real_pool, real_runs = search.ThreadPoolExecutor, search._segment_runs

    def noted_pool(max_workers):
        noted.append("pool")
        return real_pool(max_workers=max_workers)

    def noted_runs(args):
        if threading.get_ident() == caller:
            noted.append(args[3])
        return real_runs(args)

    _pool_class(monkeypatch, noted_pool)
    monkeypatch.setattr(search, "_segment_runs", noted_runs)
    query = q(ALL, 1, 7, 6, 3_000)
    # 13 is the first prime = 6 (mod 7), in the third segment; the
    # caller walked the first before the pool was built, the pool was
    # built before the caller's first pooled job, the second segment
    # (at 7), and the third is the pool's
    hit = find_first_string(query, workers=2, segment_size=6)
    assert hit.primes == [13]
    assert noted[:3] == [1, "pool", 7]
    assert 13 not in noted
    # a scan that reads every segment builds the pool first
    noted.clear()
    scan_all_strings(query, workers=2, segment_size=1_000)
    assert noted == ["pool", 1, 2_001]


def test_read_every_job_call_of_one_job_starts_no_process(b_pi,
                                                          monkeypatch):
    _pool_class(monkeypatch, _forbidden)
    query = q(b_pi, 1, 7, 1, 50_000)
    for workers in (2, 8):
        assert scan_all_strings(query, workers=workers).tolist() == \
            scan_all_strings(query).tolist()
        assert residue_census(b_pi, 49_999, 7, workers=workers).counts == \
            residue_census(b_pi, 49_999, 7).counts


def test_a_callers_job_raises_in_its_turn_and_leaves_no_process():
    # at 2 workers job 2 is the caller's; it may run while job 1 is in
    # the pool, but its error comes after job 1's result
    got, before = [], threading.enumerate()
    with pytest.raises(ValueError,
                       match=f"failed in {threading.get_ident()}$"):
        for job, result in _ordered_results(_raise_at_two, range(8), 2):
            got.append(result)
    assert got == [0, 1]
    assert threading.enumerate() == before


def _forked_results(task, workers):
    """search._forked_results of task over one job per worker, as in a
    Maier census: the caller runs job 0 and a forked child each other
    job."""
    return search._forked_results(task, range(workers))


@conftest.needs_fork
@pytest.mark.parametrize("workers", [2, 3])
def test_a_forked_jobs_error_is_raised_in_its_turn(workers, forked_pids):
    # the last job fails in its child, after every earlier result
    def task(job):
        if job == workers - 1:
            raise ValueError(f"job {job} failed in {os.getpid()}")
        return os.getpid()

    got = []
    with pytest.raises(ValueError, match=f"job {workers - 1} failed") as err:
        for pid in _forked_results(task, workers):
            got.append(pid)
    assert got == [os.getpid()] + forked_pids[:-1]
    assert err.match(f"in {forked_pids[-1]}$")
    assert not conftest.has_child()


@conftest.needs_fork
@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
])
def test_a_child_that_ends_with_no_result_raises_its_status(end, status):
    def task(job):
        if job:
            end()
        return job

    with pytest.raises(PrimestringsError,
                       match=f"exit status {status} and no result$"):
        list(_forked_results(task, 2))
    assert not conftest.has_child()


@conftest.needs_fork
def test_a_child_that_sends_its_result_but_exits_nonzero_raises(
        monkeypatch):
    # the child writes its whole result, then leaves with status 5: the
    # child inherits the patched os._exit, which the parent never calls
    real = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: real(5))
    with pytest.raises(PrimestringsError,
                       match="^a forked worker ended with exit status 5 "
                             "after sending its result$"):
        list(_forked_results(lambda job: job, 2))
    assert not conftest.has_child()


@conftest.needs_fork
def test_an_error_in_the_callers_job_kills_the_children_at_once(
        forked_pids):
    # the children's jobs would take a minute: they are killed and
    # reaped as the error leaves the pool, not waited for
    def task(job):
        if job == 0:
            raise ValueError("the caller's job failed")
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="caller's job failed"):
        list(_forked_results(task, 3))
    assert time.monotonic() - t0 < 30
    assert len(forked_pids) == 2 and not conftest.has_child()


@conftest.needs_fork
def test_a_failed_fork_kills_the_children_forked_before_it(monkeypatch):
    # leaving the generator reaps a child whose result it never read:
    # job 1's child, when job 2's fork fails
    real = os.fork

    def first_only():
        monkeypatch.setattr(os, "fork", no_fork)
        return real()

    def no_fork():
        raise OSError("fork refused")

    def task(job):
        time.sleep(60)

    monkeypatch.setattr(os, "fork", first_only)
    t0 = time.monotonic()
    with pytest.raises(OSError, match="fork refused"):
        list(_forked_results(task, 3))
    assert time.monotonic() - t0 < 30
    assert not conftest.has_child()


@conftest.needs_fork
def test_a_failed_fork_closes_its_pipe(monkeypatch):
    pipes, real = [], os.pipe

    def recorded():
        pipes.extend(real())
        return pipes[-2:]

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "pipe", recorded)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(OSError, match="fork refused"):
        list(_forked_results(lambda job: job, 2))
    assert len(pipes) == 2
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


@conftest.needs_fork
def test_the_leftover_check_sees_a_forked_child():
    # the autouse fixture's check fails on a child that is running or
    # has exited unreaped; multiprocessing.active_children() lists none
    before = conftest.has_child(), set(threading.enumerate())
    wait, release = os.pipe()
    pid = os.fork()
    if pid == 0:                     # runs until the parent releases it
        try:
            os.close(release)
            os.read(wait, 1)
        finally:
            os._exit(0)
    os.close(wait)
    try:
        assert multiprocessing.active_children() == []
        with pytest.raises(AssertionError, match="still running or not "
                                                 "reaped"):
            conftest.check_none_left(*before)
        os.close(release)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)    # not reaped
        with pytest.raises(AssertionError, match="still running or not "
                                                 "reaped"):
            conftest.check_none_left(*before)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    conftest.check_none_left(*before)


@pytest.mark.parametrize("segments", [1, 2, 3])
def test_plans_of_one_to_three_segments_agree_at_1_2_and_8_workers(
        b_pi, segments):
    limit = 60_000
    seg = -(-(limit - 1) // segments)        # [1, limit) in this many
    hit_query = q(b_pi, 4, 5, 4, limit)      # its hit lies above 50,000
    runs_query = q(b_pi, 1, 7, 1, limit)
    results = []
    for workers in (1, 2, 8):
        hit = find_first_string(hit_query, workers=workers, segment_size=seg)
        runs = scan_all_strings(runs_query, workers=workers,
                                segment_size=seg)
        census = residue_census(b_pi, limit - 1, 7, workers=workers,
                                segment_size=seg)
        results.append((hit, runs.tolist(), census.counts))
    assert results[0][0].primes == [51829, 51839, 51899, 51949]
    assert results[1:] == results[:1] * 2


def test_seven_segments_agree_at_1_2_3_and_8_workers(b_pi):
    # at 3 workers the caller scans segments 1, 4 and 7 and the pool the
    # rest; at 8 it scans only segment 1
    limit, seg = 70_000, 10_000
    results = []
    for workers in (1, 2, 3, 8):
        hit = find_first_string(q(b_pi, 4, 5, 4, limit), workers=workers,
                                segment_size=seg)
        runs = scan_all_strings(q(b_pi, 1, 7, 1, limit), workers=workers,
                                segment_size=seg)
        census = residue_census(b_pi, limit - 1, 7, workers=workers,
                                segment_size=seg)
        results.append((hit, runs.tolist(), census.counts))
    assert results[0][0].primes == [51829, 51839, 51899, 51949]
    assert results[1:] == results[:1] * 3


def test_worker_counts_outside_1_to_the_bound_are_refused(b_pi,
                                                          monkeypatch):
    _pool_class(monkeypatch, _forbidden)
    one_segment = q(b_pi, 2, 3, 1, 1000)
    hit = find_first_string(one_segment, workers=search.MAX_WORKERS)
    assert hit.primes == [31, 37]
    for name in ("_segment_runs", "_segment_census", "_prime_census"):
        monkeypatch.setattr(search, name, _forbidden)
    query = q(b_pi, 2, 3, 1, 10 ** 8)
    for workers in (0, search.MAX_WORKERS + 1):
        with pytest.raises(InvalidQuery, match=str(search.MAX_WORKERS)):
            residue_census(ALL, 10 ** 8, 3, workers=workers)
        with pytest.raises(InvalidQuery, match=str(search.MAX_WORKERS)):
            find_first_string(query, workers=workers)
        with pytest.raises(InvalidQuery, match=str(search.MAX_WORKERS)):
            scan_all_strings(query, workers=workers)
        with pytest.raises(InvalidQuery, match=str(search.MAX_WORKERS)):
            residue_census(b_pi, 10 ** 8, 3, workers=workers)


def test_first_string_stops_at_the_segment_it_reaches_k(monkeypatch):
    # the odd primes form one run that is still open at every segment
    # end; a hit in the first segment starts no pool at any count
    calls = []
    real = search._segment_runs

    def counted(args):
        calls.append(args)
        return real(args)

    monkeypatch.setattr(search, "_segment_runs", counted)
    _pool_class(monkeypatch, _forbidden)
    for workers in (1, 2):
        calls.clear()
        hit = find_first_string(q(ALL, 3, 2, 1, 10 ** 6), workers=workers,
                                segment_size=1000)
        assert hit.primes == [3, 5, 7]
        assert len(calls) == 1


def _windows_scanned(monkeypatch):
    """Record the window (lo, hi) of each _segment_runs call, and run it."""
    windows = []
    real = search._segment_runs

    def noted(args):
        windows.append(tuple(args[3:]))
        return real(args)

    monkeypatch.setattr(search, "_segment_runs", noted)
    return windows


@pytest.mark.parametrize("seg, limit", [
    (1, 2), (1, 50), (7, 5), (7, 8), (7, 9), (7, 100),
    (2 ** 16 - 1, 1_000), (2 ** 16 - 1, 3 * 2 ** 16),
    (2 ** 16, 2 ** 16 + 1), (2 ** 16, 2 ** 16 + 2), (2 ** 16, 3 * 2 ** 16),
    (2 ** 16 + 1, 2 ** 16 + 2), (2 ** 16 + 1, 2 ** 16 + 3),
    (2 ** 16 + 1, 5 * 2 ** 16), (2 ** 18, 2 ** 17 + 5),
    (2 ** 18, 2 ** 18 + 1), (2 ** 18, 5 * 2 ** 17),
    (search.DEFAULT_SCAN_SEGMENT, 10 ** 6),
    (search.DEFAULT_SCAN_SEGMENT, search.DEFAULT_SCAN_SEGMENT + 1),
    (search.DEFAULT_SCAN_SEGMENT, search.DEFAULT_SCAN_SEGMENT + 10 ** 5)])
def test_first_hit_windows_tile_the_range(seg, limit, monkeypatch):
    # the odd primes form one run, too short for k, so the scan reads
    # every window: pieces of the first segment [1, 1 + seg), the first
    # 2^16 long and each next twice the one before but the last, which
    # ends the segment; then the segments after it, as a scan of every
    # segment reads them
    windows = _windows_scanned(monkeypatch)
    hit = find_first_string(q(ALL, 10 ** 6, 2, 1, limit), segment_size=seg)
    assert isinstance(hit, NotFound)
    end = min(limit, 1 + seg)
    pieces = [w for w in windows if w[1] <= end]
    sizes = [hi - lo for lo, hi in pieces]
    assert pieces[0][0] == 1 and pieces[-1][1] == end
    assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
    assert sizes[0] == min(2 ** 16, end - 1)
    assert sizes[1:-1] == [2 * size for size in sizes[:-2]]
    assert len(sizes) == 1 or 0 < sizes[-1] <= 2 * sizes[-2]
    assert windows[len(pieces):] == [(lo, min(lo + seg, limit))
                                     for lo in range(1 + seg, limit, seg)]


@pytest.mark.parametrize("name, k, qq, a", [
    # hits in each piece of a 2^18 segment, past it, spliced runs of odd
    # primes across pieces and segments, and no hit
    ("all", 3, 3, 2), ("all", 3, 7, 5), ("all", 3, 11, 5), ("all", 3, 11, 1),
    ("all", 8_000, 2, 1), ("all", 30_000, 2, 1), ("all", 4, 11, 4),
    ("pi", 2_000, 2, 1), ("pi", 3, 7, 5), ("pi", 8_000, 2, 1),
    ("pi", 4, 7, 3), ("pi", 5, 7, 1)])
def test_first_hit_over_growing_pieces_matches_oracle(name, k, qq, a):
    limit = 10 ** 6
    spec, set_primes = spec_and_oracle_primes(name, limit)
    want = _oracles.first_k_run(set_primes, k, qq, a)
    for workers in (1, 2, 3):
        hit = find_first_string(q(spec, k, qq, a, limit), workers=workers,
                                segment_size=2 ** 18)
        if want is None:
            assert isinstance(hit, NotFound)
        else:
            assert (hit.start_index, hit.primes) == want


@pytest.mark.parametrize("k, qq, a", [(3, 3, 2), (3, 7, 5), (3, 11, 5),
                                      (3, 11, 6), (3, 11, 2), (4, 11, 2)])
def test_a_hit_in_segment_1_sieves_about_twice_its_last_prime(
        k, qq, a, monkeypatch):
    # hits whose last prime p lies in each piece of the default first
    # segment: the piece holding p is at most 2^16 longer than twice
    # the pieces before it, which end at or below p, so the walk sieves
    # fewer than 2 p + 2^16 integers, and builds no pool
    windows = _windows_scanned(monkeypatch)
    _pool_class(monkeypatch, _forbidden)
    hit = find_first_string(q(ALL, k, qq, a, 10 ** 7), workers=2)
    p = hit.primes[-1]
    assert p < 1 + search.DEFAULT_SCAN_SEGMENT
    assert sum(hi - lo for lo, hi in windows) < 2 * p + 2 ** 16


def test_a_first_hit_scan_logs_each_ten_millionth_candidate(b_pi, caplog):
    # the golden string lies past 2 * 10^7: one line for each window
    # that holds a multiple of PROGRESS_EVERY, none for the first
    # segment's pieces and none for the window of the hit
    caplog.set_level(logging.INFO, logger="primestrings.search")
    hit = find_first_string(q(b_pi, 6, 7, 5, 30_000_000), workers=2)
    assert hit.primes[0] == 26402437
    assert [r.getMessage() for r in caplog.records
            if r.name == "primestrings.search"] == [
        "scanned 10485760 candidates, 220660 set-primes",
        "scanned 20971520 candidates, 421516 set-primes"]


@pytest.mark.parametrize("seg", [0, -5])
def test_segment_size_must_be_positive(b_pi, seg):
    query = q(b_pi, 2, 3, 1, 1000)
    with pytest.raises(InvalidRange):
        sieve_range(0, 1000, segment_size=seg)
    with pytest.raises(InvalidRange):
        find_first_string(query, segment_size=seg)
    with pytest.raises(InvalidRange):
        scan_all_strings(query, segment_size=seg)
    with pytest.raises(InvalidRange):
        residue_census(b_pi, 1000, 3, segment_size=seg)
    with pytest.raises(InvalidRange):
        residue_census(ALL, 10 ** 6, 3, segment_size=seg)   # no segments


# ---------------------------------------------------------------- records

def test_hit_record_round_trips_json():
    query = q(ALL, 3, 4, 1, 1000)
    rec = hit_record(query, find_first_string(query))
    assert rec == {
        "set": "all", "k": 3, "q": 4, "a": 1, "limit": 1000,
        "start_index": 23, "primes": [89, 97, 101],
        "first_occurrence": True,
    }
    text = json.dumps(rec, indent=2, sort_keys=True)
    assert json.loads(text) == rec


def test_hit_record_not_found():
    query = q(ALL, 9, 4, 1, 50)
    rec = hit_record(query, find_first_string(query))
    assert rec["found"] is False
    assert rec == {"set": "all", "k": 9, "q": 4, "a": 1, "limit": 50,
                   "found": False}


@pytest.mark.parametrize("spec", ["all", "beatty:pi"])
def test_verify_hit_near_2_47_uses_miller_rabin(spec, b_pi, monkeypatch):
    # primality by 12-base Miller-Rabin, not trial division (about 1 s
    # per prime here), over the string and every gap member of the set
    spec = ALL if spec == "all" else b_pi
    lo = 1 << 47
    primes = special_primes(spec, lo, lo + 20_000).tolist()
    query = q(spec, 3, 2, 1, MAX_SCAN_HI)
    mr12 = search._mr12_is_prime
    tested = []

    def spy(n):
        tested.append(n)
        return mr12(n)

    def no_trial_division(n):
        raise AssertionError("verify_hit factored %d" % n)

    monkeypatch.setattr(search, "_mr12_is_prime", spy)
    monkeypatch.setattr(arith, "prime_factors", no_trial_division)
    assert verify_hit(query, StringHit(primes[:3], 0))
    gaps = [m for m in range(primes[0] + 1, primes[2])
            if m != primes[1] and member(spec, m)]
    assert sorted(tested) == sorted(primes[:3] + gaps)
    assert not verify_hit(query, StringHit([primes[0], *primes[2:4]], 0))


def test_verify_hit_rejects_a_strong_pseudoprime_to_bases_2_to_7():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to the bases
    # 2, 3, 5 and 7, so this catches a base list cut to those four, in
    # the string and in a gap. Dropping any one later base is not
    # caught: no strong pseudoprime to the other 11 bases is known
    # below 2^48.
    n = 3215031751
    assert not verify_hit(q(ALL, 1, 1, 0, 1 << 32), StringHit([n], 0))
    near = sieve_range(n - 1000, n + 1000).tolist()
    before = max(p for p in near if p < n)
    after = min(p for p in near if p > n)
    assert verify_hit(q(ALL, 2, 2, 1, 1 << 32), StringHit([before, after], 0))
