"""Beatty and floor-product sets: membership, enumeration, g diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mp

import _oracles
from primestrings import (GFamily, SpecialSetSpec, beatty_member,
                          enumerate_special, member, named_constant,
                          sieve_range, special_primes, validate_g)
from primestrings.errors import (DomainError, GridTooSmall, InvalidQuery,
                                 InvalidRange, PrecisionExhausted,
                                 RangeTooLarge)
from primestrings.fixedpoint import IrrationalConstant
from primestrings.sieve import MAX_SCAN_SPAN
from primestrings import special
from primestrings.special import _CHUNK, floorprod_member

PI = named_constant("pi")


# ---------------------------------------------------------------- Beatty

def test_beatty_member_known_values():
    assert beatty_member(PI, 3)       # floor(pi)
    assert beatty_member(PI, 31)
    assert not beatty_member(PI, 7)   # floor(2pi)=6, floor(3pi)=9
    assert beatty_member(PI, 100)     # floor(32pi)
    assert not beatty_member(PI, 99)
    assert beatty_member(PI, 314159)


def test_beatty_enumeration_prefix():
    spec = SpecialSetSpec.beatty(PI)
    got = list(enumerate_special(spec, 1, 32))
    assert got == [3, 6, 9, 12, 15, 18, 21, 25, 28, 31]
    assert got == _oracles.beatty_values(31)


def test_beatty_member_agrees_with_enumeration():
    spec = SpecialSetSpec.beatty(PI)
    hi = 20_000
    members = set(_oracles.beatty_values(hi - 1))
    listed = set(int(m) for m in enumerate_special(spec, 1, hi))
    assert listed == members
    for m in range(1, hi):
        assert beatty_member(PI, m) == (m in members)


def test_beatty_strictly_increasing():
    spec = SpecialSetSpec.beatty(named_constant("sqrt2"))
    vals = enumerate_special(spec, 1, 50_000)
    assert np.all(np.diff(vals) > 0)


def test_beatty_sqrt2_and_e():
    for name in ("sqrt2", "e"):
        spec = SpecialSetSpec.beatty(named_constant(name))
        got = [int(m) for m in enumerate_special(spec, 1, 2000)]
        assert got == _oracles.beatty_values(1999, name=name)


@pytest.mark.parametrize("name", ["pi", "sqrt2", "e"])
@pytest.mark.parametrize("lo", [10 ** 12, 8 * 10 ** 13, 2 ** 48 - 30_000])
def test_beatty_high_magnitude_matches_decimal_oracle(name, lo):
    # int64 floors near the top of the enumeration range, n up to 9e13
    spec = SpecialSetSpec.beatty(named_constant(name))
    hi = lo + 30_000
    got = [int(m) for m in enumerate_special(spec, lo, hi)]
    assert got == _oracles.beatty_values(hi - 1, name, lo)


@pytest.mark.parametrize("name", ["pi", "sqrt2", "e"])
def test_beatty_floors_at_near_integer_products(name):
    # at convergent denominators n, n*alpha sits within 1/n of an integer
    spec = SpecialSetSpec.beatty(named_constant(name))
    c = _oracles.const60(name)
    for n in _oracles.convergent_denominators(name, 1 << 46):
        m = n * c // _oracles.SCALE
        lo, hi = max(1, m - 500), m + 500
        got = [int(v) for v in enumerate_special(spec, lo, hi)]
        assert got == _oracles.beatty_values(hi - 1, name, lo)


def test_beatty_enumeration_splits_into_windows():
    # 2.1e6 indices of sqrt2 span several int64 blocks
    spec = SpecialSetSpec.beatty(named_constant("sqrt2"))
    lo, hi = 10 ** 13, 10 ** 13 + 3_000_000
    parts = [enumerate_special(spec, a, min(a + 70_001, hi))
             for a in range(lo, hi, 70_001)]
    assert np.array_equal(enumerate_special(spec, lo, hi),
                          np.concatenate(parts))



def test_beatty_enumeration_memory_is_one_chunk_past_its_output():
    # Masking one _CHUNK at a time keeps the output, its parts before
    # concatenation and one chunk's int64 floors (14.5 MiB at _CHUNK =
    # 2^18); an arange and a mask over a whole 2^23-wide window peaked
    # at 144 MiB.
    spec = SpecialSetSpec.beatty(PI)
    lo = 1 << 40
    tracemalloc.start()
    try:
        got = enumerate_special(spec, lo, lo + 8 * _CHUNK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(got.size - 8 * _CHUNK / math.pi) < 2
    assert peak < 2 * got.nbytes + 80 * _CHUNK


def test_enumeration_window_capped_at_scan_span():
    for spec in (SpecialSetSpec.all_primes(), SpecialSetSpec.beatty(PI),
                 SpecialSetSpec.floor_product(GFamily.loglog())):
        with pytest.raises(RangeTooLarge,
                           match=f"MAX_SCAN_SPAN = {MAX_SCAN_SPAN}"):
            enumerate_special(spec, 1, MAX_SCAN_SPAN + 2)


_NAMES = ("pi", "sqrt2", "e")
# denominators n > 2^18: m = floor(n alpha) puts m/alpha or (m+1)/alpha
# within 1/m of an integer, inside the 2^-22 width of the int64 sides
_CONVERGENTS = {name: [n for n in _oracles.convergent_denominators(
    name, 1 << 46) if n > _CHUNK] for name in _NAMES}
_BIG_CONVERGENTS = {name: _oracles.convergent_denominators(name, 10 ** 20)
                    for name in _NAMES}


@seed(20111)
@settings(database=None, deadline=None, max_examples=40)
@given(name=st.sampled_from(_NAMES), at_top=st.booleans(), data=st.data())
def test_beatty_mask_matches_oracle(name, at_top, data):
    # Windows [lo, hi) end just below 2^48, or just above m = floor(n
    # alpha) for a convergent denominator n, where the int64 sides
    # disagree and floor_div decides. Wide ones put m far from the chunk
    # start, where the sides are widest, or in a second chunk.
    alpha = named_constant(name)
    spec = SpecialSetSpec.beatty(alpha)
    c = _oracles.const60(name)
    if at_top:
        hi = (1 << 48) - data.draw(st.integers(0, 5000))
        m, width = hi - 1, data.draw(st.integers(1, 4000))
    else:
        m = data.draw(st.sampled_from(_CONVERGENTS[name])) * c \
            // _oracles.SCALE
        hi = m + data.draw(st.integers(2, 2000))
        width = data.draw(st.one_of(st.integers(1, 4000),
                                    st.integers(_CHUNK // 2, _CHUNK),
                                    st.integers(_CHUNK + 1, _CHUNK + 4000)))
    lo = max(1, hi - width)
    want = [p for p in sieve_range(lo, hi).tolist()
            if _oracles.beatty_member_direct(p, name)]
    assert special_primes(spec, lo, hi).tolist() == want
    got = enumerate_special(spec, lo, hi)
    tail = max(lo, hi - 4000)            # the oracle checks the last 4000
    assert (got[got >= tail].tolist()
            == _oracles.beatty_values(hi - 1, name, tail))
    n = data.draw(st.sampled_from(_BIG_CONVERGENTS[name]))
    near = n * c // _oracles.SCALE + data.draw(st.integers(-1, 1))
    for x in (lo, m, near, data.draw(st.integers(1, 10 ** 30))):
        assert beatty_member(alpha, x) == \
            _oracles.beatty_member_direct(x, name), x


@pytest.mark.parametrize("name", _NAMES)
def test_beatty_mask_sides_exactly_on_rounded_beta(name, monkeypatch):
    # blo and bhi are beta rounded down and up to 2^-_FRAC_BITS. An m
    # whose upper side rounds up to exactly blo is not decided a member
    # (beatty_member decides it), and one whose lower side rounds down
    # to exactly bhi is decided a non-member: the comparisons of
    # _beatty_mask's docstring, at their ties
    alpha = named_constant(name)
    bits, M = alpha.bits, 1 << alpha.bits
    shift = bits - special._FRAC_BITS
    rlo, rhi = (1 << 2 * bits) // alpha.hi, -(-(1 << 2 * bits) // alpha.lo)
    blo, bhi = rlo >> shift, -(-rhi >> shift)
    n_blo = _oracles.first_multiple_in(rhi, M, ((blo - 1) << shift) + 1,
                                       blo << shift)
    n_bhi = _oracles.first_multiple_in(rlo, M, bhi << shift,
                                       ((bhi + 1) << shift) - 1)
    assert -(-(n_blo * rhi % M) >> shift) == blo
    assert (n_bhi * rlo % M) >> shift == bhi
    calls, fallback = [], special.beatty_member
    monkeypatch.setattr(special, "beatty_member",
                        lambda a, m: calls.append(m) or fallback(a, m))
    spec = SpecialSetSpec.beatty(alpha)
    for n, sent in ((n_blo, True), (n_bhi, False)):
        m = n - 1                       # the kernel takes (m + 1) beta
        assert 1 <= m < 2 ** 48 and n * rlo // M == n * rhi // M
        calls.clear()
        assert special._mask(spec, np.array([m])).tolist() == [
            _oracles.beatty_member_direct(m, name)]
        assert calls == ([m] if sent else [])


def test_beatty_rejects_alpha_at_most_one():
    small = IrrationalConstant.from_decimal(
        "small", "0.577215664901532860606512090082402431042")
    with pytest.raises(DomainError):
        SpecialSetSpec.beatty(small)


def _decimal(text):
    return IrrationalConstant.from_decimal(text, text)


def test_beatty_slope_is_compared_with_1_on_its_bracket():
    # 1 + 10^-20 to 60 decimals lies above 1 on its 192-bit bracket,
    # though its float is 1.0: floor(n alpha) = n for n < 10^20
    just_above = _decimal("1." + "0" * 19 + "1" + "0" * 40)
    assert just_above.num / just_above.den == 1.0
    spec = SpecialSetSpec.beatty(just_above)
    assert enumerate_special(spec, 1, 100).tolist() == list(range(1, 100))
    # a slope too large for a float: no m below it is a member
    huge = _decimal("9" * 400 + "." + "1" * 45)
    assert not member(SpecialSetSpec.beatty(huge), 10 ** 6)
    # a 60-decimal text t stands for a value within 10^-60 of t, so its
    # bracket holds 1 for t = 1 and t = 1 + 10^-60, and lies below 1
    # for t = 1 - 10^-60
    for text, says in (("1." + "0" * 60, "cannot be told from 1 at 192 bits"),
                       ("1." + "0" * 59 + "1", "cannot be told from 1"),
                       ("0." + "9" * 60, "must exceed 1")):
        with pytest.raises(DomainError, match=says):
            SpecialSetSpec.beatty(_decimal(text))
        with pytest.raises(DomainError, match=says):
            beatty_member(_decimal(text), 5)


def test_beatty_membership_starts_at_1():
    with pytest.raises(InvalidRange):
        beatty_member(PI, 0)
    assert beatty_member(PI, 3)


def test_descriptors():
    assert SpecialSetSpec.all_primes().descriptor() == "all"
    assert SpecialSetSpec.beatty(PI).descriptor() == "beatty:pi"
    assert SpecialSetSpec.floor_product(GFamily.loglog()).descriptor() \
        == "floorprod:loglog"
    assert SpecialSetSpec.floor_product(GFamily.log_pow(1.5)).descriptor() \
        == "floorprod:log^1.5"


def test_all_primes_set():
    spec = SpecialSetSpec.all_primes()
    assert list(enumerate_special(spec, 1, 20)) == list(range(1, 20))
    assert member(spec, 9)  # membership is set membership, not primality
    got = [int(p) for p in special_primes(spec, 10, 32)]
    assert got == [11, 13, 17, 19, 23, 29, 31]


# ---------------------------------------------------------- floor products

def test_floorprod_loglog_prefix():
    spec = SpecialSetSpec.floor_product(GFamily.loglog())
    got = [int(m) for m in enumerate_special(spec, 1, 30)]
    # f(n) = n loglog n first clears 2 at n = 5
    assert got[:6] == [2, 3, 4, 5, 7, 8]
    assert 152 in set(int(m) for m in enumerate_special(spec, 1, 200))


def test_floorprod_matches_mpmath_floor():
    g = GFamily.loglog()
    spec = SpecialSetSpec.floor_product(g)
    with mp.workdps(60):
        want = sorted({int(mp.floor(n * mp.log(mp.log(n))))
                       for n in range(g.default_start_n(), 400)
                       if n * mp.log(mp.log(n)) >= 2})
    got = [int(m) for m in enumerate_special(spec, 1, want[-1] + 1)]
    assert got == want


def test_floorprod_membership_consistent():
    spec = SpecialSetSpec.floor_product(GFamily.loglog())
    values = set(int(m) for m in enumerate_special(spec, 1, 600))
    for m in range(1, 600):
        assert floorprod_member(spec, m) == (m in values), m


def test_floorprod_strictly_increasing_after_collapse():
    spec = SpecialSetSpec.floor_product(GFamily.log_pow(2.0))
    vals = enumerate_special(spec, 1, 100_000)
    assert np.all(np.diff(vals) > 0)


def test_floorprod_logpow_values():
    g = GFamily.log_pow(1.0)
    spec = SpecialSetSpec.floor_product(g)
    with mp.workdps(60):
        want = sorted({int(mp.floor(n * mp.log(n)))
                       for n in range(g.default_start_n(), 500)
                       if n * mp.log(n) >= 2})
    got = [int(m) for m in enumerate_special(spec, 1, want[-1] + 1)]
    assert got == want


def _floorprod_spec(family, B):
    return SpecialSetSpec.floor_product(GFamily(family, B))


@pytest.mark.parametrize("family,B,lo", [
    ("loglog", 1.0, 10 ** 8),
    ("loglog", 1.0, 29 * 10 ** 11),
    ("log", 1.5, 12747135619159 - 1000),   # n = 100000009910 grazes it
    ("log", 2.0, 10 ** 12),
    # windows from 0: the index window starts at g.default_start_n()
    ("loglog", 0.2, 0),
    ("loglog", 3.0, 0),
    ("log", 0.2, 0),
    ("log", 3.0, 0),
    ("loglog", 1.0, 10 ** 13),
    ("loglog", 0.2, 2 ** 48 - 3000),
    ("log", 2.0, 2 ** 48 - 3000),
])
def test_floorprod_window_matches_mpmath_oracle(family, B, lo):
    spec = _floorprod_spec(family, B)
    hi = lo + 2000
    want = _oracles.floorprod_values(family, B, lo, hi)
    assert [int(m) for m in enumerate_special(spec, lo, hi)] == want
    want = set(want)
    for m in range(lo, hi):
        assert member(spec, m) == (m in want), m


@seed(20143)
@settings(database=None, deadline=None, max_examples=200)
@given(family=st.sampled_from(("loglog", "log")),
       B=st.sampled_from((0.2, 1.0, 1.5, 2.0)),
       u=st.floats(0.0, 1.0), integral=st.booleans())
def test_inverse_brackets_X(family, B, u, integral):
    # X runs log-uniformly from f(start) to 2^48, as a float or an int
    g = GFamily(family, B)
    start = g.default_start_n()

    def f(x):
        return x * g.value(x)

    X = math.exp(math.log(f(start)) * (1 - u) + math.log(2.0 ** 48) * u)
    X = round(X) if integral else X
    lo = g.inverse(X)
    if f(start) >= X:
        assert lo == start
    else:
        assert f(lo) < X <= f(math.nextafter(lo, math.inf))


def _assert_one_floorprod_value(family, B, lo, hi):
    spec = _floorprod_spec(family, B)
    got = [int(m) for m in enumerate_special(spec, lo, hi)]
    assert got == _oracles.floorprod_values(family, B, lo, hi)
    assert len(got) == 1


@pytest.mark.parametrize("lo,hi", [
    # float f(n) falls short of lo: the first index comes out one too high
    (12747135619159, 12747135619164),
    # float f(n) reaches hi: the last index comes out one too low
    (12747134291903, 12747134291908),
])
def test_floorprod_window_keeps_a_value_the_float_search_misplaces(lo, hi):
    _assert_one_floorprod_value("log", 1.5, lo, hi)


def test_floorprod_window_keeps_a_value_whose_float_inverse_is_one_low():
    # f' - 1 < ulp(n): f(n - 1) is so close below m = floor(f(n)) that
    # the float inverse of m is n - 1; the inverse of m + 1 reaches n
    _assert_one_floorprod_value("loglog", 0.01, 140737488355357,
                                140737488355358)


@pytest.mark.parametrize("family,B,lo", [
    *((family, B, 0) for family in ("loglog", "log")
      for B in (0.2, 1.0, 1.5, 2.0)),
    # near 2^48 an ulp of a float f(n) is 1/32, so these floors must
    # come from the 50-digit anchor plus float rises, not from f(n)
    *(("log", B, 2 ** 48 - _CHUNK - 5000) for B in (0.2, 1.5, 2.0)),
    *(("loglog", B, 2 ** 48 - _CHUNK - 5000) for B in (0.2, 1.0)),
])
def test_floorprod_masks_match_oracle_across_span_edges(family, B, lo):
    # windows wider than _CHUNK, checked around the first value of the
    # second span: the first prime past primes[0] + _CHUNK for
    # special_primes, max(lo, 1) + _CHUNK for enumerate_special
    spec = _floorprod_spec(family, B)
    hi = lo + _CHUNK + 5000
    primes = sieve_range(lo, hi)
    prime_edge = int(primes[np.searchsorted(primes, primes[0] + _CHUNK)])
    for got, edge, sieved in (
            (special_primes(spec, lo, hi), prime_edge, set(primes.tolist())),
            (enumerate_special(spec, lo, hi), max(lo, 1) + _CHUNK, None)):
        a, b = edge - 1000, edge + 1000
        want = [v for v in _oracles.floorprod_values(family, B, a, b)
                if sieved is None or v in sieved]
        assert got[(got >= a) & (got < b)].tolist() == want


@pytest.mark.parametrize("family,n,least,below", [
    ("loglog", 15, 2.7e-38, 2.6e-38), ("log", 3, 1.1e-39, 1e-39)])
def test_floorprod_least_power_is_where_the_50_digit_floor_decides(
        family, n, least, below):
    # n is where |log u(n)| is least; just below the bound the floor
    # there is undecided, and at the bound it is decided
    assert GFamily(family).least_power() == least
    with pytest.raises(DomainError, match=f"B >= {least:g}, got {below:g}"):
        SpecialSetSpec.floor_product(GFamily(family, below))
    with pytest.raises(PrecisionExhausted, match=f"at n = {n} "):
        special._floorprod_floor(GFamily(family, below), n)
    g = SpecialSetSpec.floor_product(GFamily(family, least)).g
    # u(15) < 1 < u(3) for loglog and log: n g(n) falls just below n or
    # lies just above it
    assert special._floorprod_floor(g, n)[0] == (14 if n == 15 else 3)


@pytest.mark.parametrize("family,B", [("loglog", 0.2), ("loglog", 1.0),
                                      ("log", 1.5), ("log", 3.0)])
def test_floorprod_rise_stays_within_its_bound(family, B):
    # the error GFamily.rise reports covers its float rise against a
    # 60-digit f(n0 + i) - f(n0), from the first index to 2^47
    g = GFamily(family, B)
    i = np.array([0, 1, 2, 7, 100, 1000, 10 ** 4, 10 ** 5], dtype=np.float64)
    for n0 in (g.default_start_n(), 10 ** 7, 10 ** 13, 2 ** 47):
        r, err = g.rise(n0, i)
        with mp.workdps(60):
            f0 = n0 * g.at(mp.mpf(n0), mp.log)
            exact = [(n0 + k) * g.at(mp.mpf(n0 + k), mp.log) - f0
                     for k in i.tolist()]
            miss = [abs(mp.mpf(float(x)) - y) for x, y in zip(r, exact)]
        assert max(miss) <= err, (n0, miss)


@pytest.mark.parametrize("family", ["loglog", "log"])
@pytest.mark.parametrize("B", [0.2, 1.0, 1.5, 3.0, 300.0])
def test_floorprod_rise_is_its_expression_form_bit_for_bit(family, B):
    # the error bound is proved for the expression form the oracle keeps,
    # so the in-place steps must round exactly as it does, and leave i
    g = GFamily(family, B)
    sparse = np.array([0, 1, 2, 7, 100, 1000, 10 ** 4, 10 ** 5], np.float64)
    for n0 in (g.default_start_n(), 10, 10 ** 7, 10 ** 13, 2 ** 47):
        for i in (*(np.arange(k, dtype=np.float64)
                    for k in (1, 2, 1000, 2 ** 17)), sparse):
            before = i.copy()
            with np.errstate(all="ignore"):
                try:
                    want, want_err = _oracles.floorprod_rise(family, B, n0, i)
                except OverflowError:       # u0^B past the largest float
                    with pytest.raises(OverflowError):
                        g.rise(n0, i)
                    continue
                r, err = g.rise(n0, i)
            assert np.array_equal(r, want, equal_nan=True), (n0, i.size)
            assert np.array_equal(err, want_err, equal_nan=True)
            assert np.array_equal(i, before)


def test_floorprod_window_at_1e13_needs_no_50_digit_floor(monkeypatch):
    # one 50-digit anchor per span and no other 50-digit floor: the
    # float rises decide every floor of this window
    spans, floors = [], []
    mask, floor = special._floorprod_mask, special._floorprod_floor
    monkeypatch.setattr(special, "_floorprod_mask",
                        lambda g, part: spans.append(part) or mask(g, part))
    monkeypatch.setattr(special, "_floorprod_floor",
                        lambda g, n: floors.append(n) or floor(g, n))
    lo = 10 ** 13
    got = special_primes(_floorprod_spec("loglog", 1.0), lo, lo + 10 ** 6)
    assert got.size > 9000
    assert len(spans) == 4 and len(floors) == len(spans)


@pytest.mark.parametrize("family,B", [("loglog", 1.0), ("log", 1.5)])
@pytest.mark.parametrize("lo", [0, 10 ** 10, 2 ** 48 - 3000])
def test_floorprod_50_digit_floors_alone_give_the_same_sets(family, B, lo,
                                                           monkeypatch):
    # the float rises almost never come near an integer, so here every
    # index takes the 50-digit fallback, and the sets must not change
    # though every float rise is half a unit off
    spec, hi = _floorprod_spec(family, B), lo + 3000
    want = (special_primes(spec, lo, hi), enumerate_special(spec, lo, hi))
    floors, floor, rise = [], special._floorprod_floor, GFamily.rise

    def half_off(g, n0, i):
        r, err = rise(g, n0, i)
        return r + 0.5, err

    monkeypatch.setattr(special, "_RISE_ERR", 1.0)
    monkeypatch.setattr(GFamily, "rise", half_off)
    monkeypatch.setattr(special, "_floorprod_floor",
                        lambda g, n: floors.append(n) or floor(g, n))
    for fn, w in zip((special_primes, enumerate_special), want):
        floors.clear()
        assert np.array_equal(fn(spec, lo, hi), w)
        # the anchor at n0, then each of n0, n0 + 1, ... again
        assert floors == [floors[0]] + list(range(floors[0], floors[-1] + 1))


SHIFTED_INVERSE_SPANS = [
    ("loglog", 1.0, 10 ** 7), ("log", 1.5, 10 ** 12), ("loglog", 0.2, 2 ** 47),
    # one member, f(17); f(22) is near 1e38, so the last index is trimmed
    # only after the step down, and f(18) is past 2^63, where a step up
    # stops
    ("loglog", 700.0, _oracles.floorprod_floor("loglog", 700, 17) - 5)]


def _spans_hold_under_a_shifted_inverse(family, B, lo, shift, monkeypatch):
    """The members in [lo, lo + 5000) are the same with GFamily.inverse
    moved shift indices, whatever the float inverse costs."""
    spec, hi = _floorprod_spec(family, B), lo + 5000
    want = (special_primes(spec, lo, hi), enumerate_special(spec, lo, hi))
    inverse = GFamily.inverse
    monkeypatch.setattr(GFamily, "inverse",
                        lambda g, X: inverse(g, X) + shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, w in zip((special_primes, enumerate_special), want):
            assert np.array_equal(fn(spec, lo, hi), w)
        members = want[1].tolist()
        assert all(floorprod_member(spec, m)
                   for m in members[:3] + members[-3:])


@pytest.mark.parametrize("family,B,lo", SHIFTED_INVERSE_SPANS)
def test_floorprod_span_steps_down_past_an_inverse_that_lands_high(
        family, B, lo, monkeypatch):
    # a span's first n is stepped down until it floors at or below the
    # span's first value, so an inverse 5 indices high costs 50-digit
    # anchors, never members, even for a span of one value
    _spans_hold_under_a_shifted_inverse(family, B, lo, 5, monkeypatch)


@pytest.mark.parametrize("family,B,lo", SHIFTED_INVERSE_SPANS)
def test_floorprod_span_steps_up_past_an_inverse_that_lands_low(
        family, B, lo, monkeypatch):
    # the mirror: a span's last n is stepped up until it floors at or
    # above the span's last value, unless the trim cut the span (without
    # that step, an inverse 5 indices low lost 4 of 1,798 members at 1e7
    # and 4 of 42 at 1e12)
    _spans_hold_under_a_shifted_inverse(family, B, lo, -5, monkeypatch)


@pytest.mark.parametrize("family,B,n", [("log", 200, 3), ("log", 300, 3),
                                         ("loglog", 700, 17)])
def test_floorprod_large_power_keeps_its_members_below_2_48(family, B, n):
    # f(n + 1) is past 2^63, so its floor fits no int64: the mask leaves
    # out every index whose f is far above the span
    spec, m = _floorprod_spec(family, B), _oracles.floorprod_floor(family,
                                                                   B, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert enumerate_special(spec, m - 5, m + 3000).tolist() == [m]
        assert floorprod_member(spec, m)
        assert not floorprod_member(spec, m + 1)


@pytest.mark.parametrize("spec", [SpecialSetSpec.beatty(PI),
                                  _floorprod_spec("loglog", 1.0)])
def test_mask_hands_each_kernel_one_span_narrower_than_chunk(spec,
                                                             monkeypatch):
    # _beatty_mask's 2^-22 bound holds for offsets below _CHUNK from the
    # span's start; a new span starts at the first value past it
    name = "_beatty_mask" if spec.kind == "beatty" else "_floorprod_mask"
    kernel, parts = getattr(special, name), []

    def record(arg, part):
        parts.append(part)
        return kernel(arg, part)

    monkeypatch.setattr(special, name, record)
    assert special._mask(spec, np.empty(0, dtype=np.int64)).size == 0
    assert parts == []
    m = np.arange(10 ** 9, 10 ** 9 + 3 * _CHUNK, 7)
    keep = special._mask(spec, m)
    assert np.array_equal(np.concatenate(parts), m)
    assert all(part[-1] - part[0] < _CHUNK for part in parts)
    assert all(b[0] >= a[0] + _CHUNK for a, b in zip(parts, parts[1:]))
    assert keep[::997].tolist() == [member(spec, v) for v in m[::997].tolist()]


def test_floorprod_primes_memory_is_one_span_past_the_sieve(monkeypatch):
    # special_primes masks the sieve's primes one span at a time, so past
    # them it holds its output and one span's float floors (4.4 MiB peak);
    # enumerating every member of the 2^23-wide window and intersecting
    # it with the primes peaked at 128 MiB. The primes are sieved before
    # tracing starts, which would slow the sieve's Python loop 7-fold.
    spec = _floorprod_spec("loglog", 1.0)
    lo = 10 ** 10
    primes = sieve_range(lo, lo + 2 ** 23)
    monkeypatch.setattr(special, "sieve_range",
                        lambda lo, hi: primes)
    tracemalloc.start()
    try:
        got = special_primes(spec, lo, lo + 2 ** 23)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.size == 115_943
    assert peak < 40 * _CHUNK


def test_floorprod_rejects_what_it_cannot_decide_exactly():
    spec = _floorprod_spec("loglog", 1.0)
    with pytest.raises(RangeTooLarge,
                       match=f"floor-product membership.*{2 ** 48}"):
        member(spec, 2 ** 48)
    with pytest.raises(DomainError):       # n / log log n falls at first
        SpecialSetSpec.floor_product(GFamily.loglog(-1.0))
    for B in (math.inf, math.nan):
        with pytest.raises(DomainError):
            SpecialSetSpec.floor_product(GFamily.log_pow(B))
    with pytest.raises(ValueError):
        GFamily("cosh", 1.0)


def test_special_primes_is_prime_intersection():
    for spec in (SpecialSetSpec.beatty(PI),
                 SpecialSetSpec.floor_product(GFamily.loglog())):
        got = [int(p) for p in special_primes(spec, 1, 5000)]
        want = [int(m) for m in enumerate_special(spec, 1, 5000)
                if _oracles.trial_is_prime(int(m))]
        assert got == want


def test_special_primes_takes_only_one_worker(monkeypatch):
    spec = SpecialSetSpec.beatty(PI)
    lo, hi = 10 ** 6, 10 ** 6 + 5000
    want = special_primes(spec, lo, hi)
    assert np.array_equal(special_primes(spec, lo, hi, workers=1), want)

    def no_sieve(lo, hi):
        raise AssertionError("sieved before refusing workers")

    monkeypatch.setattr(special, "sieve_range", no_sieve)
    for workers in (0, 2):
        with pytest.raises(InvalidQuery, match="scan_all_strings"):
            special_primes(spec, lo, hi, workers=workers)


# ------------------------------------------------------------ derivatives

def _mp_deriv(fn, x, order):
    with mp.workdps(60):
        return float(mp.diff(fn, mp.mpf(x), order))


@pytest.mark.parametrize("g,fn", [
    (GFamily.loglog(), lambda t: mp.log(mp.log(t))),
    (GFamily.loglog(3.0), lambda t: mp.log(mp.log(t)) ** 3),
    (GFamily.loglog(0.5), lambda t: mp.log(mp.log(t)) ** 0.5),
    (GFamily.log_pow(1.0), lambda t: mp.log(t)),
    (GFamily.log_pow(2.5), lambda t: mp.log(t) ** 2.5),
    (GFamily.log_pow(0.2), lambda t: mp.log(t) ** 0.2),
])
def test_derivatives_match_mpmath(g, fn):
    for x in (2e3, 1e5, 3e7):
        got = g.derivs(x)
        for order in (0, 1, 2, 3):
            want = _mp_deriv(fn, x, order)
            assert got[order] == pytest.approx(want, rel=1e-8)


def test_f_deriv_product_rule():
    g = GFamily.loglog()
    x = 1e6
    got = g.f_derivs(x)
    for order in (1, 2, 3):
        want = _mp_deriv(lambda t: t * mp.log(mp.log(t)), x, order)
        assert got[order] == pytest.approx(want, rel=1e-8)


# ------------------------------------------------------------- validate_g

CANON_GRID = [1650, 1.65e4, 1.2e5, 1e6, 2e6]


def test_validate_g_needs_a_real_grid():
    g = GFamily.loglog()
    with pytest.raises(GridTooSmall):
        validate_g(g, [2e3, 3e3, 4e3, 5e3])          # too few points
    with pytest.raises(GridTooSmall):
        validate_g(g, [2e3, 3e3, 4e3, 5e3, 6e3])     # under three decades


def test_validate_g_loglog_canonical_grid():
    rep = validate_g(GFamily.loglog(), CANON_GRID)
    sample = next(s for s in rep.samples if s["x"] == 1e6)
    assert abs(sample["alpha_g"][0] - 1.0) < 0.05
    assert abs(sample["alpha_f"][0] - 1.0) < 0.05
    assert rep.flags["alpha1_positive"]
    assert rep.flags["second_order_positive"]
    assert rep.flags["increasing_unbounded"]
    assert rep.flags["codomain_ge_2"]
    # comparison scale for the log-growth ratio only exists above ~3.8e6,
    # so this grid cannot exhibit the decreasing trend
    assert not rep.flags["log_growth"]


def test_validate_g_loglog_wide_grid_log_growth():
    rep = validate_g(GFamily.loglog(), [1e7, 1e9, 1e12, 1e16, 1e20])
    assert rep.flags["log_growth"]


def test_validate_g_log_growth_skips_points_without_its_scale():
    # log x, its iterated logs up to llll x, and g(x) must be positive
    # for a point to count: llll x < 0 at 3e6 and 1e3, lll x < 0 at 10
    # (<= e^e) and ll x < 0 at 2 (<= e). The kept points decrease; a
    # skipped one would raise (log of a nonpositive number) or break
    # the trend.
    assert validate_g(GFamily.loglog(),
                      [3e6, 1e7, 1e9, 1e12, 1e16]).flags["log_growth"]
    for B in (1.0, 2.0):
        rep = validate_g(GFamily.log_pow(B), [2, 10, 1e3, 1e7, 1e12, 1e16])
        assert rep.flags["log_growth"]
    # (log log x)^-1000 underflows to 0 on this grid: no point counts
    rep = validate_g(GFamily.loglog(-1000.0), [1e7, 1e9, 1e12, 1e16, 1e20])
    assert all(s["g"] == 0 for s in rep.samples)
    assert not rep.flags["log_growth"]


def test_validate_g_logpow_alpha_collision():
    # x (log x)^B has matching first and second fitted exponents, so the
    # distinctness flag must come back false
    rep = validate_g(GFamily.log_pow(1.0), [1e4, 1e6, 1e8, 1e10, 1e12])
    assert not rep.flags["alpha1_ne_alpha2"]
    assert rep.flags["alpha1_positive"]


def test_validate_g_flags_degenerate_custom():
    # a hand-picked power B = -1: 1 / log log x falls, stays below 2
    # and makes x g(x) concave
    rep = validate_g(GFamily.loglog(-1.0), [1e2, 1e3, 1e4, 1e5, 1e6])
    assert not rep.flags["increasing_unbounded"]
    assert not rep.flags["second_order_positive"]
    assert not rep.flags["codomain_ge_2"]


def test_validate_g_report_shape():
    rep = validate_g(GFamily.loglog(), CANON_GRID)
    assert rep.grid == tuple(CANON_GRID)
    assert rep.tolerance == 0.05
    assert len(rep.samples) == len(CANON_GRID)
    assert len(rep.alpha_g) == 3 and len(rep.alpha_f) == 3
    assert set(rep.flags) == {
        "alpha1_positive", "alpha2_nonnegative", "alpha1_ne_alpha2",
        "alpha3_ne_3alpha1", "two_alpha1_plus_alpha3_ne_3alpha2",
        "second_order_positive", "increasing_unbounded", "codomain_ge_2",
        "log_growth"}
