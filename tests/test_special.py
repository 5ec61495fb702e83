"""Beatty and floor-product sets: membership, enumeration, g diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mp

import _oracles
from primestrings import (GFamily, SpecialSetSpec, beatty_member,
                          enumerate_special, member, named_constant,
                          special_primes, validate_g)
from primestrings.errors import DomainError, GridTooSmall, RangeTooLarge
from primestrings.fixedpoint import IrrationalConstant
from primestrings.special import floorprod_member

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


def test_beatty_rejects_alpha_at_most_one():
    small = IrrationalConstant.from_decimal(
        "small", "0.577215664901532860606512090082402431042")
    with pytest.raises(DomainError):
        SpecialSetSpec.beatty(small)


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


@pytest.mark.parametrize("lo,hi", [
    # float f(n) falls short of lo: the first index comes out one too high
    (12747135619159, 12747135619164),
    # float f(n) reaches hi: the last index comes out one too low
    (12747134291903, 12747134291908),
])
def test_floorprod_window_keeps_a_value_the_float_search_misplaces(lo, hi):
    spec = _floorprod_spec("log", 1.5)
    got = [int(m) for m in enumerate_special(spec, lo, hi)]
    assert got == _oracles.floorprod_values("log", 1.5, lo, hi)
    assert len(got) == 1


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
        for order in (0, 1, 2, 3):
            want = _mp_deriv(fn, x, order)
            assert g.deriv(x, order) == pytest.approx(want, rel=1e-8)


def test_f_deriv_product_rule():
    g = GFamily.loglog()
    x = 1e6
    for order in (1, 2, 3):
        want = _mp_deriv(lambda t: t * mp.log(mp.log(t)), x, order)
        assert g.f_deriv(x, order) == pytest.approx(want, rel=1e-8)


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
