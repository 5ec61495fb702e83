"""String scanning: hits, runs, censuses, verification, determinism."""

import json
import math
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import _oracles
from primestrings import search
from primestrings import (GFamily, NotFound, SetCensus, SpecialSetSpec,
                          StringHit, StringQuery, find_first_string,
                          hit_record, named_constant, residue_census,
                          scan_all_strings, sieve_range, verify_hit)
from primestrings.errors import InvalidQuery, InvalidRange, RangeTooLarge
from primestrings.sieve import MAX_CENSUS_Q, MAX_SCAN_HI

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
    assert runs == [(5, 1), (13, 2), (29, 1)]


def test_scan_all_strings_beatty(b_pi):
    # the first seven Beatty primes are odd; 97 is excluded by the limit
    runs = scan_all_strings(q(b_pi, 1, 2, 1, 97))
    assert runs == [(3, 7)]


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


def test_census_csv():
    census = residue_census(ALL, 10, 3)
    text = census.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "residue,count"
    assert lines[1:] == ["0,1", "1,1", "2,2"]  # 3; 7; 2 and 5


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
        assert runs == base_runs
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
    assert scan_all_strings(query, segment_size=seg) == \
        _oracles.maximal_runs(set_primes, qq, a)
    want = _oracles.first_k_run(set_primes, k, qq, a)
    hit = find_first_string(query, segment_size=seg)
    if want is None:
        assert isinstance(hit, NotFound)
    else:
        assert (hit.start_index, hit.primes) == want
        assert verify_hit(query, hit, check_index=True)


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
    for workers in (1, 2):
        assert scan_all_strings(query, workers=workers,
                                segment_size=seg) == runs
        census = residue_census(spec, limit - 1, qq, workers=workers,
                                segment_size=seg)
        assert census.counts == counts
        assert sieve_range(0, limit, segment_size=seg,
                           workers=workers).tolist() == primes


def test_first_string_stops_at_the_segment_it_reaches_k(monkeypatch):
    # the odd primes form one run that is still open at every segment end
    calls = []
    real = search._segment_runs

    def counted(args):
        calls.append(args)
        return real(args)

    monkeypatch.setattr(search, "_segment_runs", counted)
    hit = find_first_string(q(ALL, 3, 2, 1, 10 ** 6), segment_size=1000)
    assert hit.primes == [3, 5, 7]
    assert len(calls) == 1


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


# ---------------------------------------------------------------- records

def test_hit_record_round_trips_json():
    query = q(ALL, 3, 4, 1, 1000)
    rec = hit_record(query, find_first_string(query), elapsed_ms=0)
    assert rec == {
        "set": "all", "k": 3, "q": 4, "a": 1, "limit": 1000,
        "elapsed_ms": 0, "start_index": 23, "primes": [89, 97, 101],
        "first_occurrence": True,
    }
    text = json.dumps(rec, indent=2, sort_keys=True)
    assert json.loads(text) == rec


def test_hit_record_not_found():
    query = q(ALL, 9, 4, 1, 50)
    rec = hit_record(query, find_first_string(query))
    assert rec["found"] is False
    assert rec["limit"] == 50 and rec["elapsed_ms"] == 0
