"""Maier matrix lab: cases, Q products, anchors, censuses, counts, bounds."""

import dataclasses
import functools
import json
import math
import operator
import os
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from conftest import needs_fork
from primestrings import (GFamily, SpecialSetSpec, anchored_interval,
                          bound_report, build_Q, carrier_F, case1_proxy,
                          census_json, choose_parameters, classify_residue,
                          count_S_T, count_S_q, count_psi, crt_anchor,
                          estimate_string_bound, is_prime, log_y_t,
                          make_config, run_construction, sample_rows_census,
                          special_primes)
from primestrings import maier
from primestrings.errors import (EmptyProductWarning, IntervalTooLarge,
                                 InvalidQuery, ParameterDomain, RangeExceeded,
                                 RangeTooLarge)
from primestrings.maier import _PRESIEVE_B, MAX_ROWS, PHI_NOTE, X_FLOOR
from primestrings.search import MAX_WORKERS, _good_runs
from primestrings.sieve import MAX_SCAN_HI, MAX_SCAN_SPAN

ALL = SpecialSetSpec.all_primes()


def micro_config():
    """Q = 30 over primes {2, 3}, q = 5, a = 4, columns 1..30."""
    product = build_Q(5, 4, 4, 7)
    config = make_config(5, 4, 4, 7, None, 8, product)
    anchors, interval = anchored_interval(config, 30)
    return config, anchors, interval


# ------------------------------------------------------------ residue cases

def test_classify_residue():
    assert classify_residue(1, 6) == "A_plus"
    assert classify_residue(7, 12) == "A_plus"
    assert classify_residue(4, 5) == "A_minus"
    assert classify_residue(2, 5) == "other"
    assert classify_residue(1, 4) == "both"    # 1 = -1 mod 2
    assert classify_residue(3, 4) == "both"
    assert classify_residue(0, 1) == "both"
    with pytest.raises(InvalidQuery):
        classify_residue(3, 6)


# ----------------------------------------------------------------- build_Q

def test_build_q_known_product():
    got = build_Q(5, 4, 20, 3)
    assert got.Q == 293930
    assert got.P_a == (2, 7, 13, 17, 19)
    assert got.case == "A_minus"


def test_build_q_excludes_one_mod_q():
    got = build_Q(3, 1, 10, 5)
    assert got.Q == 6 and got.P_a == (2,)   # 7 = 1 mod 3 is out, 5 is p0


def test_build_q_empty_product_warns():
    with pytest.warns(EmptyProductWarning):
        got = build_Q(2, 1, 3, 3)
    assert got.Q == 2 and got.P_a == ()
    assert got.case == "A_plus"             # "both" collapses to A_plus


def test_build_q_other_case_structure():
    _check_other_case(5, 2, 20, 3, 7, 50)


def test_build_q_other_case_structure_past_2_64():
    # q and a past 2^64: P_a's residues and divisors of q stay exact
    _check_other_case(15 << 70, (15 << 70) - 7, 40, 7, 7, 50)


def _check_other_case(qq, a, y, p0, t, yzt):
    got = build_Q(qq, a, y, p0, t=t, yz_over_t=yzt)
    small = [int(p) for p in _oracles.simple_sieve(y)]
    wide = [int(p) for p in _oracles.simple_sieve(yzt)]
    want = {p for p in small if p % qq not in (1, a)}
    want |= {p for p in small if p >= t and p % qq == 1}
    want |= {p for p in wide if p % qq == a}
    want = {p for p in want if p != p0 and qq % p != 0}
    assert got.P_a == tuple(sorted(want))
    expect_q = qq
    for p in sorted(want):
        expect_q *= p
    assert got.Q == expect_q


@pytest.mark.parametrize("qq, a, y, p0, kwargs, size", [
    (5, 4, 20, 3, {}, 5),                               # A_minus
    (5, 4, 23, 3, {}, 6),
    (5, 4, 276, 3, {}, 42),                 # the widest P_a multiplied out
    (7, 1, 15, 11, {}, 4),                              # A_plus
    (5, 2, 20, 3, {"t": 7, "yz_over_t": 40}, 7),        # other
    (5, 2, 20, 3, {"t": 7, "yz_over_t": 50}, 8),
])
def test_build_q_product_tree_matches_sequential(qq, a, y, p0, kwargs, size):
    got = build_Q(qq, a, y, p0, **kwargs)
    assert len(got.P_a) == size
    assert got.Q == functools.reduce(operator.mul, got.P_a, qq)


def test_build_q_refuses_a_p_a_whose_bits_reach_256():
    # each p in P_a is at least 2^(bit_length - 1): at y = 276 those
    # exponents sum to 249 and Q is multiplied out (above); at y = 277
    # they reach 257 and Q is refused, naming y, the only knob of Q's
    # size in the A± cases
    for y, bits in ((277, 257), (1009, 983)):
        with pytest.raises(RangeExceeded, match=rf"^y = {y} makes Q at least "
                           rf"2\^{bits}, which puts every entry of the "
                           r"matrix beyond the supported primality range "
                           r"\(2\^256\); lower y$"):
            build_Q(5, 4, y, 3)


def test_build_q_guards():
    with pytest.raises(ParameterDomain):
        build_Q(5, 4, 20, 4)                # p0 not prime
    with pytest.raises(ParameterDomain):
        build_Q(5, 4, 20, 5)                # p0 divides q
    with pytest.raises(ParameterDomain):
        build_Q(5, 4, 1, 3)                 # y too small
    with pytest.raises(ParameterDomain):
        build_Q(5, 2, 20, 3)                # other case without t
    with pytest.raises(ParameterDomain):
        build_Q(5, 2, 20, 3, t=9, yz_over_t=4)   # t > yz/t
    with pytest.raises(InvalidQuery):
        build_Q(6, 3, 20, 7)                # gcd(a, q) > 1


def _p_a_oracle(qq, a, y, p0, t, yzt):
    """P_a by the three-block rule, in plain Python over a dense sieve:
    p <= y with p != 1 mod q (and != a outside A±); outside A± also
    t <= p <= y with p = 1, and p <= yz/t with p = a."""
    other = classify_residue(a, qq) == "other"
    one, a_mod = 1 % qq, a % qq
    pa = []
    for p in map(int, _oracles.simple_sieve(max(y, int(yzt)) if other
                                             else y)):
        r = p % qq
        keep = p <= y and r != one and not (other and r == a_mod)
        keep = keep or other and t <= p <= y and r == one
        keep = keep or other and p <= yzt and r == a_mod
        if keep and p != p0 and qq % p:
            pa.append(p)
    return pa


_EDGE = 1 << 21                     # the width of one build_Q window


@st.composite
def _build_q_args(draw):
    qq = draw(st.one_of(st.integers(1, 60), st.integers(1 << 16, 1 << 22),
                        st.integers(1, 1000).map(lambda k: k << 64)))
    a = draw(st.one_of(st.just(1 % qq), st.just(qq - 1),
                       st.integers(0, qq - 1))
             .filter(lambda a: math.gcd(a, qq) == 1))
    y = draw(st.one_of(st.integers(2, 400),
                       st.integers(_EDGE - 64, _EDGE + 64)))
    yzt = draw(st.one_of(st.floats(1, 3000),
                         st.floats(_EDGE - 64, _EDGE + 64)))
    t = draw(st.floats(1, min(yzt, 60)))
    p0 = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23])
              .filter(lambda p: qq % p))
    return qq, a, y, p0, t, yzt


@settings(max_examples=60, deadline=None)
@given(_build_q_args())
# a P_a member past the first window: 2097169 = 3 + q is prime
@example((2097166, 3, 20, 23, 7.0, 2097169.5))
@example((15 << 70, (15 << 70) - 7, 40, 7, 7.0, _EDGE + 0.5))
@example((5, 4, _EDGE, 3, 2.0, 10.0))
@example((5, 2, 20, 3, 11.0, 50.0))     # keeps t = 11 = 1 (mod 5)
def test_build_q_p_a_equals_the_three_block_rule(args):
    # one walk over the primes to the larger bound, one rule for every
    # residue case: P_a and Q as three sieved blocks give them, and a
    # refusal once the exponents of P_a's primes reach 256
    qq, a, y, p0, t, yzt = args
    want = _p_a_oracle(*args)
    bits = sum(p.bit_length() - 1 for p in want)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyProductWarning)
        if bits >= 256:
            with pytest.raises(RangeExceeded, match=rf"^y = {y} makes Q at "
                               r"least 2\^\d+, ") as exc:
                build_Q(*args)
            # the bits summed up to the refusing window
            got = int(re.search(r"2\^(\d+),", str(exc.value))[1])
            assert 256 <= got <= bits
            return
        got = build_Q(*args)
    assert got.P_a == tuple(want)
    assert got.Q == math.prod(want, start=qq)


def test_build_q_refuses_after_the_first_window(monkeypatch):
    # the exponents of the primes below 2^21 pass 256 at once, so y = 1e8
    # sieves one window, not the 5,761,455 primes up to y
    windows, real = [], maier.sieve_range
    monkeypatch.setattr(maier, "sieve_range",
                        lambda lo, hi: windows.append((lo, hi)) or
                        real(lo, hi))
    with pytest.raises(RangeExceeded, match=r"^y = 100000000 makes Q at "):
        build_Q(5, 4, 10 ** 8, 3)
    assert windows == [(0, 1 << 21)]


def test_build_q_names_the_bound_past_the_sieve():
    # outside A± the walk reaches yz/t, which must also lie below 2^31
    with pytest.raises(RangeTooLarge, match=r"^yz/t = 2147483648 must be "
                       r"below MAX_SCAN_SPAN = 2147483648$"):
        build_Q(5, 2, 20, 3, t=7, yz_over_t=2.0 ** 31 + 0.5)


# ----------------------------------------------------------------- anchors

def test_crt_anchor_example():
    product = build_Q(7, 3, 6, 11, t=2, yz_over_t=6)  # P_a = {2,3,5}, Q = 210
    assert product.Q == 210 and product.P_a == (2, 3, 5)
    config = make_config(7, 3, 6, 11, 2.0, 1, product)
    assert crt_anchor(config, "plus") == 30     # 30 = 2 mod 7
    assert crt_anchor(config, "minus") == 60    # 60 = 4 mod 7
    with pytest.raises(ValueError):
        crt_anchor(config, "sideways")


def test_crt_anchor_congruences_random():
    rng = random.Random(23)
    primes = [int(p) for p in _oracles.simple_sieve(60)]
    for _ in range(120):
        qq = rng.randrange(2, 48)
        a = rng.choice([r for r in range(1, qq + 1) if math.gcd(r, qq) == 1])
        y = rng.randrange(5, 45)
        p0 = rng.choice([p for p in primes if qq % p != 0])
        cls = classify_residue(a, qq)
        kwargs = {}
        if cls == "other":
            kwargs = {"t": 2, "yz_over_t": y}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyProductWarning)
            product = build_Q(qq, a, y, p0, **kwargs)
        config = make_config(qq, a, y, p0, kwargs.get("t"), 3, product)
        R = product.Q // qq
        for sign, shift in (("plus", -1), ("minus", +1)):
            x = crt_anchor(config, sign)
            assert 0 < x <= product.Q
            assert x % R == 0
            assert x % qq == (a + shift) % qq


# ---------------------------------------------------------------- intervals

def test_interval_cases():
    config, anchors, interval = micro_config()
    assert anchors == {"plus": 18, "minus": 30}
    assert interval == (1, 30)               # minus anchor lifted 30 -> 60

    plus_product = build_Q(3, 1, 10, 5)
    plus_config = make_config(3, 1, 10, 5, None, 2, plus_product)
    p_anchors, p_interval = anchored_interval(plus_config, 12)
    assert p_anchors == {"plus": 6, "minus": 2}
    assert p_interval == (7, 12)

    other_product = build_Q(5, 2, 20, 3, t=7, yz_over_t=50)
    other_config = make_config(5, 2, 20, 3, 7, 3, other_product)
    _, o_interval = anchored_interval(other_config, 40)
    assert o_interval == (1, 40)


def test_interval_guards():
    config, _, _ = micro_config()
    with pytest.raises(IntervalTooLarge):
        anchored_interval(config, 10 ** 8 + 1)
    with pytest.raises(InvalidQuery):
        anchored_interval(config, 0)


def test_minus_anchor_lift():
    config, _, _ = micro_config()
    anchors, interval = anchored_interval(config, 45)
    assert anchors["minus"] == 60            # 30 + one lift of Q = 30
    assert interval == (16, 45)


# ------------------------------------------------------- columns and rows

def test_count_s_t_micro():
    config, _, interval = micro_config()
    st = count_S_T(config, interval)
    assert st.S == 2 and st.T == 6
    assert st.S_members == (19, 29)


def test_s_t_against_gcd_oracle():
    rng = random.Random(5)
    for _ in range(20):
        qq = rng.choice([3, 4, 5, 7, 9])
        coprime = [r for r in range(1, qq) if math.gcd(r, qq) == 1]
        a = rng.choice(coprime)
        y = rng.randrange(5, 30)
        p0 = rng.choice([3, 7, 11, 13])
        if qq % p0 == 0:
            continue
        cls = classify_residue(a, qq)
        kwargs = {"t": 2, "yz_over_t": y} if cls == "other" else {}
        product = build_Q(qq, a, y, p0, **kwargs)
        config = make_config(qq, a, y, p0, kwargs.get("t"), 2, product)
        _, (start, length) = anchored_interval(config, rng.randrange(10, 80))
        st = count_S_T(config, (start, length))
        cols = [start + j for j in range(length)]
        cop = [i for i in cols if math.gcd(i, product.Q) == 1]
        assert st.S + st.T == len(cop)
        assert st.S == sum(1 for i in cop if i % qq == a % qq)
        assert all(i % qq == a % qq for i in st.S_members)


def test_a_plus_interval_shift_bijection():
    # for A_plus the interval is m+1 .. m+yz with m = 0 mod R, m = a-1
    # mod q, so column i = m+j is coprime-and-good iff j is coprime to Q
    # and j = 1 mod q
    product = build_Q(7, 1, 15, 11)
    config = make_config(7, 1, 15, 11, None, 2, product)
    anchors, (start, length) = anchored_interval(config, 60)
    st = count_S_T(config, (start, length))
    m = anchors["plus"]
    direct = [j for j in range(1, 61)
              if math.gcd(m + j, product.Q) == 1 and j % 7 == 1]
    assert st.S == len(direct)
    assert list(st.S_members) == [m + j for j in direct]


def test_sample_rows_census_micro():
    config, _, interval = micro_config()
    census = sample_rows_census(config, interval, 1)
    assert census.per_row == [(1, 1, 6, 1)]
    assert census.S_count == 2 and census.T_count == 6
    assert census.good_total == 1 and census.bad_total == 6
    assert census.rows_with_bad == 1 and census.max_good_run == 1
    assert census.deterministic


def test_sample_rows_census_row_walk():
    # recompute two rows by hand: entries r*Q + i over coprime columns
    config, _, interval = micro_config()
    census = sample_rows_census(config, interval, 2)
    for r, good, bad, _best in census.per_row:
        want_good = want_bad = 0
        for i in range(1, 31):
            if math.gcd(i, 30) != 1:
                continue
            c = r * 30 + i
            if _oracles.trial_is_prime(c):
                if c % 5 == 4:
                    want_good += 1
                else:
                    want_bad += 1
        assert (good, bad) == (want_good, want_bad)


def test_sample_rows_census_with_set_filter(b_pi):
    config, _, interval = micro_config()
    census = sample_rows_census(config, interval, 3, spec=b_pi)
    for r, good, bad, _best in census.per_row:
        want_good = want_bad = 0
        for i in range(1, 31):
            if math.gcd(i, 30) != 1:
                continue
            c = r * 30 + i
            if _oracles.trial_is_prime(c) and _oracles.beatty_member_direct(c):
                if c % 5 == 4:
                    want_good += 1
                else:
                    want_bad += 1
        assert (good, bad) == (want_good, want_bad)


def _small_entry_configs():
    """(config, interval, rows) whose entries all stay below _PRESIEVE_B."""
    micro, _, micro_interval = micro_config()
    plus = make_config(3, 1, 10, 5, None, 2, build_Q(3, 1, 10, 5))  # Q = 6
    other = make_config(7, 3, 6, 11, 2.0, 9,                       # Q = 210
                        build_Q(7, 3, 6, 11, t=2, yz_over_t=6))
    return [(micro, micro_interval, 250),
            (plus, anchored_interval(plus, 120)[1], 300),
            (other, anchored_interval(other, 50)[1], 200)]


@pytest.mark.parametrize("set_name", ["all", "beatty:pi"])
@pytest.mark.parametrize("index", range(3))
def test_presieve_against_trial_division(set_name, index, b_pi,
                                         monkeypatch):
    # entries below the presieve bound include the presieve primes
    # themselves (c = p must stay), and every composite entry has a
    # factor below the bound, so is_prime sees exactly the primes; a
    # Beatty set is tested first, so there only the prime members
    config, (start, length), rows = _small_entry_configs()[index]
    assert rows * config.Q + start + length < _PRESIEVE_B
    spec = b_pi if set_name == "beatty:pi" else SpecialSetSpec.all_primes()
    tested = []
    real_is_prime = maier.is_prime

    def recording_is_prime(n):
        tested.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(maier, "is_prime", recording_is_prime)
    census = sample_rows_census(config, (start, length), rows, spec=spec)
    want_rows, want_tested = [], []
    for r in range(1, rows + 1):
        good = bad = run = best = 0
        for i in range(start, start + length):
            c = r * config.Q + i
            if math.gcd(i, config.Q) != 1 or not _oracles.trial_is_prime(c):
                continue
            if spec.kind == "beatty" and not _oracles.beatty_member_direct(c):
                continue
            want_tested.append(c)
            if c % config.q == config.a % config.q:
                good, run = good + 1, run + 1
                best = max(best, run)
            else:
                bad, run = bad + 1, 0
        want_rows.append((r, good, bad, best))
    assert census.per_row == want_rows
    assert tested == want_tested


@pytest.mark.parametrize("index", range(3))
def test_presieve_floorprod_tests_bpsw_before_membership(index, monkeypatch):
    # a scalar floor-product membership costs more than BPSW below 2^48,
    # so is_prime sees every prime entry and member only those it passed
    config, (start, length), rows = _small_entry_configs()[index]
    spec = SpecialSetSpec.floor_product(GFamily.loglog())
    values = set(_oracles.floorprod_values(
        "loglog", 1.0, 2, rows * config.Q + start + length))
    calls = []

    def recording(name, real):
        return lambda *args: calls.append((name, args[-1])) or real(*args)

    monkeypatch.setattr(maier, "is_prime", recording("is_prime", is_prime))
    monkeypatch.setattr(maier, "member", recording("member", maier.member))
    census = sample_rows_census(config, (start, length), rows, spec=spec)
    want_rows, want_calls = [], []
    for r in range(1, rows + 1):
        good = bad = run = best = 0
        for i in range(start, start + length):
            c = r * config.Q + i
            if math.gcd(i, config.Q) != 1 or not _oracles.trial_is_prime(c):
                continue
            want_calls += [("is_prime", c), ("member", c)]
            if c not in values:
                continue
            if c % config.q == config.a % config.q:
                good, run = good + 1, run + 1
                best = max(best, run)
            else:
                bad, run = bad + 1, 0
        want_rows.append((r, good, bad, best))
    assert census.per_row == want_rows
    assert calls == want_calls


def test_presieve_wide_Q(monkeypatch):
    # a 209-bit Q puts every entry far above the presieve primes, and
    # the primes above the interval length strike at most once per row
    config = make_config(5, 4, 200, 3, None, 10, build_Q(5, 4, 200, 3))
    assert config.Q > 1 << 200
    start, length = anchored_interval(config, 2000)[1]
    tested = set()

    def recording_is_prime(n):
        tested.add(n)
        return is_prime(n)

    monkeypatch.setattr(maier, "is_prime", recording_is_prime)
    census = sample_rows_census(config, (start, length), 3)
    small = _oracles.simple_sieve(_PRESIEVE_B).tolist()
    want_rows, struck = [], []
    for r in range(1, 4):
        good = bad = run = best = 0
        for i in range(start, start + length):
            c = r * config.Q + i
            if math.gcd(i, config.Q) != 1:
                continue
            if c not in tested:
                struck.append(c)
            if not is_prime(c):
                continue
            if c % config.q == config.a % config.q:
                good, run = good + 1, run + 1
                best = max(best, run)
            else:
                bad, run = bad + 1, 0
        want_rows.append((r, good, bad, best))
    assert census.per_row == want_rows
    assert struck
    for c in struck:
        assert any(c % p == 0 and c != p for p in small), c


def _rows_by_trial_division(config, interval, rows, spec):
    """per_row of a census from gcd, trial division and the set oracles."""
    start, length = interval
    want = []
    for r in range(1, rows + 1):
        good = bad = run = best = 0
        for i in range(start, start + length):
            c = r * config.Q + i
            if math.gcd(i, config.Q) != 1 or not _oracles.trial_is_prime(c):
                continue
            if spec.kind == "beatty" and not _oracles.beatty_member_direct(c):
                continue
            if spec.kind == "floorprod" and not _oracles.floorprod_values(
                    "loglog", 1.0, c, c + 1):
                continue
            if c % config.q == config.a % config.q:
                good, run = good + 1, run + 1
                best = max(best, run)
            else:
                bad, run = bad + 1, 0
        want.append((r, good, bad, best))
    return want


@pytest.mark.parametrize("set_name,args", [
    ("all", dict(q=4, a=1, y=40, yz=2000, rows=40)),           # A_plus
    ("beatty:pi", dict(q=4, a=3, y=47, yz=1470, rows=30)),     # A_plus
    ("floorprod:loglog", dict(q=5, a=4, y=30, yz=601, rows=12))])
def test_rows_below_2_48_match_a_recount_of_their_windows(set_name, args,
                                                          b_pi):
    # each row r Q + I, recounted as the set-primes of its window by the
    # scan's special_primes and _good_runs: the segment sieve and the
    # set masks against the presieve, BPSW and the scalar membership
    spec = {"all": ALL, "beatty:pi": b_pi,
            "floorprod:loglog": SpecialSetSpec.floor_product(
                GFamily.loglog())}[set_name]
    config, (start, length), census, _ = run_construction(spec=spec, **args)
    assert args["rows"] * config.Q + start + length < MAX_SCAN_HI
    want = []
    for r in range(1, args["rows"] + 1):
        lo = r * config.Q + start
        sp = special_primes(spec, lo, lo + length)
        good = sp % config.q == config.a % config.q
        runs = _good_runs(good)[1]
        want.append((r, int(good.sum()), int((~good).sum()),
                     int(runs.max(initial=0))))
    assert census.per_row == want
    assert census.good_total > 0 and census.bad_total > 0
    assert sample_rows_census(config, (start, length), args["rows"],
                              spec=spec, workers=2).per_row == want


@pytest.mark.parametrize("set_name", ["all", "beatty:pi", "floorprod:loglog"])
@pytest.mark.parametrize("index", range(4))
def test_one_two_and_three_workers_give_the_same_census(set_name, index,
                                                        b_pi):
    # the Maier twin of test_one_and_two_workers_match_oracle: 17 rows
    # in one block at 1 worker, in blocks of 9 + 8 rows at 2 workers and
    # 6 + 6 + 5 at 3, and each later block starts its presieve at
    # (start + (r0 - 1) Q) mod p. The A_minus, A_plus and other
    # configurations of _small_entry_configs keep their entries at or
    # below 2^16 in every block, where an entry c = p must stay; the
    # fourth, A_minus with Q = 293930, does not
    configs = [(config, interval)
               for config, interval, _ in _small_entry_configs()]
    wide = make_config(5, 4, 20, 3, None, 3, build_Q(5, 4, 20, 3))
    configs.append((wide, anchored_interval(wide, 60)[1]))
    config, interval = configs[index]
    spec = {"all": ALL, "beatty:pi": b_pi,
            "floorprod:loglog": SpecialSetSpec.floor_product(
                GFamily.loglog())}[set_name]
    want = _rows_by_trial_division(config, interval, 17, spec)
    for rows in (1, 7, 17):
        docs = set()
        for workers in (1, 2, 3):
            census = sample_rows_census(config, interval, rows, spec=spec,
                                        workers=workers)
            assert census.per_row == want[:rows]
            docs.add(json.dumps(census_json(config, interval, census),
                                sort_keys=True))
        assert len(docs) == 1


@needs_fork
def test_one_worker_census_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    census = run_construction(5, 4, y=20, yz=200, rows=20, workers=1)[2]
    assert len(census.per_row) == 20
    # the patch is live: at 2 workers the pool forks before any block
    with pytest.raises(AssertionError, match="a process was forked"):
        run_construction(5, 4, y=20, yz=200, rows=20, workers=2)


@needs_fork
@pytest.mark.parametrize("workers", [2, 3])
def test_a_census_forks_one_child_per_block_but_the_callers(workers,
                                                            forked_pids):
    # one block per worker: the caller runs the first, and one child
    # forked for it runs each of the others (one worker: the test above)
    census = run_construction(5, 4, y=20, yz=200, rows=20,
                              workers=workers)[2]
    assert len(forked_pids) == workers - 1
    assert [row[0] for row in census.per_row] == list(range(1, 21))


@needs_fork
@pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1])
def test_a_census_refuses_a_worker_count_out_of_bounds(workers,
                                                       forked_pids):
    # one row, so a census that missed the refusal would fork nothing
    with pytest.raises(InvalidQuery,
                       match=f"^need 1 to {MAX_WORKERS} workers, got "
                             f"{workers}$"):
        run_construction(5, 4, y=20, yz=200, rows=1, workers=workers)
    assert forked_pids == []


def test_one_worker_census_runs_one_block(monkeypatch):
    # one block computes its presieve start residue once
    blocks = []
    real = maier._row_block

    def spy(matrix, r0, r1):
        blocks.append((r0, r1))
        return real(matrix, r0, r1)

    monkeypatch.setattr(maier, "_row_block", spy)
    census = run_construction(5, 4, y=20, yz=200, rows=20, workers=1)[2]
    assert blocks == [(1, 20)]
    assert [row[0] for row in census.per_row] == list(range(1, 21))


@pytest.mark.parametrize("workers, blocks", [
    (2, [(1, 9), (10, 17)]),
    (3, [(1, 6), (7, 12), (13, 17)]),
    (17, [(r, r) for r in range(1, 18)]),
    (20, [(r, r) for r in range(1, 18)]),
])
def test_a_census_runs_one_block_per_worker(workers, blocks, monkeypatch):
    # blocks of ceil(rows / workers) rows (one worker: the test above);
    # the spy runs them in the caller, so no process starts
    seen = []

    def spy(task, jobs):
        seen.extend(jobs)
        return [task(job) for job in jobs]

    monkeypatch.setattr(maier, "_forked_results", spy)
    census = run_construction(5, 4, y=20, yz=200, rows=17,
                              workers=workers)[2]
    assert seen == blocks
    assert [row[0] for row in census.per_row] == list(range(1, 18))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_census_builds_its_setup_once(workers, monkeypatch):
    # the caller builds the coprime mask and Q mod the presieve primes
    # before any block runs; each block takes only its start residue.
    # The blocks run here in the caller, so every call is seen
    masks, residues = [], []
    mask, res = maier._coprime_mask, maier._residues
    monkeypatch.setattr(maier, "_coprime_mask",
                        lambda *args: masks.append(args) or mask(*args))
    monkeypatch.setattr(maier, "_residues",
                        lambda n, ps: residues.append(n) or res(n, ps))
    monkeypatch.setattr(maier, "_forked_results",
                        lambda task, jobs: [task(job) for job in jobs])
    config, (start, _), census, _ = run_construction(
        5, 4, y=20, yz=200, rows=17, workers=workers)
    size = -(-17 // workers)
    assert len(masks) == 1
    assert residues == [config.Q] + [start + (r0 - 1) * config.Q
                                     for r0 in range(1, 18, size)]
    assert len(census.per_row) == 17


@pytest.mark.parametrize("q, a, case", [
    (7, 1, "A_plus"), (5, 4, "A_minus"), (5, 2, "other")])
def test_census_columns_equal_count_s_t(q, a, case):
    # S_count and T_count are sums over the census's own column masks
    config, interval, census, _ = run_construction(q, a, y=20, yz=200,
                                                   rows=2)
    st = count_S_T(config, interval)
    assert config.case_tag == case
    assert (census.S_count, census.T_count) == (st.S, st.T)
    assert st.S > 0 and st.T > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_census_with_no_set_is_a_census_of_every_prime(workers):
    # the default set is SpecialSetSpec.all_primes(), as everywhere else
    kwargs = dict(y=20, yz=200, rows=6, workers=workers)
    default = run_construction(5, 4, **kwargs)
    assert json.dumps(census_json(*default)) == json.dumps(
        census_json(*run_construction(5, 4, spec=ALL, **kwargs)))
    config, interval = default[:2]
    docs = {json.dumps(census_json(config, interval, sample_rows_census(
                config, interval, 6, workers=workers, **spec)))
            for spec in ({}, {"spec": ALL})}
    assert len(docs) == 1


@settings(database=None, max_examples=200)
@given(st.one_of(
    st.just(0), st.integers(1, 2 ** 16 - 1), st.integers(2 ** 16, 2 ** 100),
    st.builds(operator.mul,
              st.sampled_from(maier._base_primes(_PRESIEVE_B).tolist()),
              st.integers(1, 2 ** 240)),
    st.integers(2 ** 207, 2 ** 208 - 1), st.integers(2 ** 255, 2 ** 256)))
def test_limb_residues_match_python_mod(n):
    ps = maier._base_primes(_PRESIEVE_B)
    assert maier._residues(n, ps).tolist() == [n % p for p in ps.tolist()]


def test_limb_residues_at_limb_edges_for_every_presieve_prime():
    # a limb of w bits keeps r 2^w + limb below 2^63 only while every
    # presieve prime has at most 63 - w bits; n = 0 and random n up to
    # 2^256 are test_limb_residues_match_python_mod's
    ps = maier._base_primes(_PRESIEVE_B)
    w = maier._LIMB_BITS
    assert w + int(ps[-1]).bit_length() <= 63
    for n in [(1 << (k * w)) + d for k in range(1, 6) for d in (-1, 0, 1)]:
        assert maier._residues(n, ps).tolist() == [n % p
                                                   for p in ps.tolist()]


def test_sample_rows_census_guards():
    config, _, interval = micro_config()
    with pytest.raises(InvalidQuery):
        sample_rows_census(config, interval, 0)
    # q must divide Q, or entries r*Q + i leave their column's class mod q
    with pytest.raises(ParameterDomain):
        sample_rows_census(dataclasses.replace(config, Q=31), interval, 3)


def test_sample_rows_census_rejects_entries_beyond_primality_range(
        monkeypatch):
    # y = 300 makes Q a 296-bit product, so no entry can reach
    # is_prime: build_Q refuses it from P_a before it builds Q, so
    # before the coprime mask, naming a lower bound on Q and only y,
    # since every entry is at least Q whatever the row count
    masks = []
    mask = maier._coprime_mask
    monkeypatch.setattr(maier, "_coprime_mask",
                        lambda *args: masks.append(args) or mask(*args))
    with pytest.raises(RangeExceeded, match=r"^y = 300 makes Q at least "
                       r"2\^\d+, which puts every entry of the matrix "
                       r"beyond the supported primality range \(2\^256\); "
                       r"lower y$"):
        run_construction(5, 4, y=300, yz=2000, rows=1)
    assert masks == []
    # the largest entry rows*Q + start + length - 1 may be 2^256 itself
    config, _, _ = micro_config()
    config = dataclasses.replace(config, Q=(1 << 256) - 31)
    assert sample_rows_census(config, (2, 30), 1).rows_sampled == 1
    with pytest.raises(RangeExceeded, match="rows = 1"):
        sample_rows_census(config, (3, 30), 1)


class _Unlisted(np.ndarray):
    """An array that fails the test once it is listed or iterated over."""

    def tolist(self):
        raise AssertionError("a sieve output was listed")

    def __iter__(self):
        raise AssertionError("a sieve output was iterated over")


def test_a_q_past_2_256_is_refused_while_p_a_is_an_array(monkeypatch):
    # y = 1e7 sieves 664,579 primes: the bit sum over P_a is taken in
    # numpy, so the refusal lists none of them as Python ints, and
    # builds no Q
    def no_product(**fields):
        raise AssertionError("Q was multiplied out")

    real = maier.sieve_range
    monkeypatch.setattr(maier, "sieve_range",
                        lambda lo, hi: real(lo, hi).view(_Unlisted))
    monkeypatch.setattr(maier, "QProduct", no_product)
    with pytest.raises(RangeExceeded, match="^y = 10000000 makes Q "):
        run_construction(5, 4, y=10 ** 7, yz=1000, rows=1)
    # the spy is live: a Q below 2^256 lists P_a, then builds Q
    with pytest.raises(AssertionError, match="listed"):
        run_construction(5, 4, y=20, yz=200, rows=1)


def test_a_construction_of_no_rows_is_refused_before_its_size():
    # y = 300 puts Q past 2^256, which run_construction refuses before
    # it builds Q, and with the row count in its message
    with pytest.raises(InvalidQuery, match="^rows must be >= 1, got 0$"):
        run_construction(5, 4, y=300, yz=2000, rows=0)


def test_a_row_count_past_max_rows_is_refused_before_any_work(monkeypatch):
    # per_row and census_json hold a tuple and a dict a row: a count
    # past MAX_ROWS is refused before build_Q sieves, and by
    # sample_rows_census for a direct caller
    config, _, interval = micro_config()
    monkeypatch.setattr(maier, "sieve_range",
                        lambda lo, hi: pytest.fail("sieved"))
    rows = MAX_ROWS + 1
    msg = (rf"^rows = {rows} exceeds MAX_ROWS = {MAX_ROWS}, the most a "
           r"census holds; lower --rows$")
    with pytest.raises(InvalidQuery, match=msg):
        run_construction(5, 4, y=20, yz=200, rows=rows)
    with pytest.raises(InvalidQuery, match=msg):
        sample_rows_census(config, interval, rows)


def test_sample_rows_census_refuses_floorprod_entries_from_2_48():
    # floor-product membership stops at MAX_SCAN_HI: a census whose
    # largest entry rows*Q + start + length - 1 reaches it is refused
    # before any row, one below it runs
    spec = SpecialSetSpec.floor_product(GFamily.loglog())
    config, _, _ = micro_config()
    config = dataclasses.replace(config, Q=(1 << 48) - 31)
    census = sample_rows_census(config, (1, 30), 1, spec=spec)
    assert census.rows_sampled == 1
    with pytest.raises(RangeTooLarge, match=r"^y = 4 and rows = 1 put "
                       r"entries up to 281474976710656 in the matrix, but "
                       r"floor-product membership is decided only below "
                       r"2\^48 = 281474976710656; lower y or rows$"):
        sample_rows_census(config, (2, 30), 1, spec=spec)
    # the all-primes census has no such cap
    assert sample_rows_census(config, (2, 30), 1).rows_sampled == 1


# ------------------------------------------------------ counting functions

def test_count_s_q_known_values():
    assert count_S_q(4, 30) == 6
    assert count_S_q(4, 30, return_members=True) == [1, 5, 13, 17, 25, 29]
    assert count_S_q(5, 30) == 2
    assert count_S_q(2, 10) == 5             # 1, 3, 5, 7, 9
    assert count_S_q(3, 100) == 14
    assert count_S_q(3, 0) == 0


def test_count_s_q_exhaustive(spf_100k):
    for qq in (2, 3, 4, 5, 6, 7, 12):
        want = _oracles.sq_members(qq, 3000, spf_100k)
        assert count_S_q(qq, 3000, return_members=True) == want
        assert count_S_q(qq, 3000) == len(want)


def test_count_psi_known_values():
    assert count_psi(30, 5) == 12
    assert count_psi(10, 11) == 10
    assert count_psi(100, 2) == 1             # only n = 1
    assert count_psi(0.5, 3) == 0
    assert count_psi(30, 5, return_members=True) == \
        [1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27]


def test_count_psi_exhaustive(spf_100k):
    for t in (2, 3, 4, 7.5, 13, 50):
        want = _oracles.psi_members(2000, t, spf_100k)
        assert count_psi(2000, t, return_members=True) == want
        assert count_psi(2000, t) == len(want)


# z = p^2 is the first budget where p is not a leaf: p^2 counts there
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67)
_NEAR_SQUARES = st.builds(lambda p, d: p * p + d,
                          st.sampled_from(_SMALL_PRIMES), st.integers(-1, 1))


@settings(database=None, deadline=None, max_examples=60)
@given(q=st.integers(1, 13),
       z=st.one_of(st.integers(0, 4000), _NEAR_SQUARES))
@example(q=3, z=48)                 # 7^2 - 1, 7^2, 7^2 + 1
@example(q=3, z=49)
@example(q=3, z=50)
@example(q=4, z=25)                 # 5^2
@example(q=6, z=169)                # 13^2
def test_count_s_q_bulk_count_matches_oracle(spf_100k, q, z):
    members = count_S_q(q, z, return_members=True)
    assert count_S_q(q, z) == len(members)
    assert members == _oracles.sq_members(q, z, spf_100k)


@settings(database=None, deadline=None, max_examples=60)
@given(x=st.one_of(st.integers(0, 4000), _NEAR_SQUARES),
       t=st.one_of(st.integers(0, 70), st.floats(0, 70)))
@example(x=48, t=8)                 # 7^2 - 1, 7^2, 7^2 + 1
@example(x=49, t=8)
@example(x=50, t=8)
@example(x=2000, t=12.999)          # t just below and above 13
@example(x=2000, t=13)
@example(x=2000, t=13.001)
def test_count_psi_bulk_count_matches_oracle(spf_100k, x, t):
    members = count_psi(x, t, return_members=True)
    assert count_psi(x, t) == len(members)
    assert members == _oracles.psi_members(x, t, spf_100k)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_a_depth_2_child_at_the_next_square_matches_the_oracle(spf_100k, d):
    # Psi: after 2 and 3 the child's budget is 5^2 + d; S_3: after 7 and
    # 13 it is 19^2 + d. Below the square the parent bisects the child's
    # leaves, from it on the child walks
    x, z = 2 * 3 * (5 ** 2 + d), 7 * 13 * (19 ** 2 + d)
    assert (x // 2 // 3, z // 7 // 13) == (25 + d, 361 + d)
    members = count_psi(x, 50, return_members=True)
    assert members == _oracles.psi_members(x, 50, spf_100k)
    assert count_psi(x, 50) == len(members)
    members = count_S_q(3, z, return_members=True)
    assert members == _oracles.sq_members(3, z, spf_100k)
    assert count_S_q(3, z) == len(members)


def test_count_s_q_with_q_at_least_z_counts_only_1():
    for z in (1, 2, 3, 10, 1000):
        for q in (z, z + 1, 2 ** 63, 10 ** 22):
            assert count_S_q(q, z) == 1
            assert count_S_q(q, z, return_members=True) == [1]
    assert count_S_q(3, -5) == 0


def test_counts_closed_forms():
    for z in (0, 1, 2, 3, 10, 1000, 99_991):
        assert count_S_q(1, z) == z                 # every n <= z
        assert count_S_q(2, z) == (z + 1) // 2      # the odd n <= z
    for x in (1, 2, 10, 1000, 99_991):
        for t in (x + 0.5, x + 1, 10 ** 12):        # every n <= x
            assert count_psi(x, t) == x


def test_counts_at_benchmark_scale():
    # the counts the benchmark's seed-1 CLI ops print
    assert count_S_q(3, 5473305) == 416586
    assert count_S_q(5, 5403965) == 137345
    assert count_psi(5403940, 101) == 191453
    assert count_psi(1536503, 258) == 226061


def test_counts_hold_their_primes_at_8_bytes_each():
    # the 216,816 primes below 3e6 peak near 5 MB as an array("q") and
    # near 12 MB as a list of Python ints
    tracemalloc.start()
    try:
        assert count_psi(3 * 10 ** 6, 3 * 10 ** 6) == 3 * 10 ** 6
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_count_psi_depth_is_distinct_primes():
    # 2^e <= 10^300 for e <= 996: one frame per distinct prime, not per e
    assert count_psi(10 ** 300, 3) == 997
    assert count_psi(10 ** 300, 3, return_members=True)[-1] == 2 ** 996


def test_counts_name_the_bound_they_exceed():
    with pytest.raises(RangeTooLarge, match=f"z {MAX_SCAN_SPAN} .*"
                       f"MAX_SCAN_SPAN = {MAX_SCAN_SPAN}"):
        count_S_q(3, MAX_SCAN_SPAN)
    with pytest.raises(RangeTooLarge, match=r"t 3000000000\.0 and x .*"
                       f"MAX_SCAN_SPAN = {MAX_SCAN_SPAN}"):
        count_psi(10 ** 12, 3e9)


def test_counts_monotone():
    assert count_S_q(3, 10 ** 4) <= count_S_q(3, 10 ** 5)
    assert count_psi(1000, 5) <= count_psi(1000, 7) <= count_psi(2000, 7)


# ----------------------------------------------------- parameter selection

def test_choose_parameters_needs_large_x():
    with pytest.raises(ParameterDomain):
        choose_parameters(10 ** 6, 7, ALL)     # below e^(e^e)
    assert 3.8e6 < X_FLOOR < 3.9e6


def test_choose_parameters_defaults():
    # D = 2: y = ceil(log 1e8 / 2) = 10, z = ceil(max(F^3, 2^3)) = 8 with
    # F ~ 1, p0 = 3 is the first prime above log 10 ~ 2.30
    got = choose_parameters(10 ** 8, 7, ALL)
    assert (got.y, got.p0, got.t, got.z) == (10, 3, None, 8)
    assert got.t is None                       # y = 10 is below e^e


def test_choose_parameters_override():
    got = choose_parameters(10 ** 8, 7, ALL, y_override=20)
    assert got.y == 20 and got.p0 == 3 and got.z == 8
    assert got.t == pytest.approx(1.0653584180932671)
    got3 = choose_parameters(10 ** 8, 3, ALL, y_override=20)
    assert got3.p0 == 5                        # 3 divides q
    with pytest.raises(ParameterDomain):
        choose_parameters(10 ** 8, 7, ALL, y_override=6)


def test_choose_parameters_refuses_an_x_past_the_floats():
    # F(X) divides X by a float: the refusal names X and the bound and
    # formats no X as a float; the largest float itself is accepted
    with pytest.raises(ParameterDomain, match=r"^X must not exceed the "
                       r"largest float, 1\.7976931348623157e\+308: F\(X\) "
                       r"and the bounds are evaluated in floats$"):
        choose_parameters(10 ** 400, 5, ALL)
    assert choose_parameters(int(sys.float_info.max), 5, ALL).y == 355


def test_choose_parameters_rejects_q_below_one():
    # p0 avoids the divisors of q, and every n divides 0: without the
    # guard the search for p0 never ends
    with pytest.raises(InvalidQuery, match="q must be >= 1"):
        choose_parameters(10 ** 8, 0, ALL)


def test_well_dist_models():
    assert maier.D == 2.0
    for X in (10 ** 6, 10 ** 8, 1e30):
        assert carrier_F(ALL, X) == pytest.approx(1.0)
    for g in (GFamily.loglog(), GFamily.log_pow(1.5)):
        spec = SpecialSetSpec.floor_product(g)
        X = 10 ** 8
        inv = g.inverse(X)
        assert inv * g.value(inv) == pytest.approx(X, rel=1e-12)
        # E(X) log X = f^{-1}(X), so F(X) = X / f^{-1}(X) > 1
        assert carrier_F(spec, X) == pytest.approx(X / inv)
        assert carrier_F(spec, X) > 1.0        # sparser than the primes


# ------------------------------------------------------------------ bounds

def test_estimate_string_bound_arithmetic():
    bound = estimate_string_bound((10.0, 1.0, 1.0), math.e ** 2, 1.0,
                                  5, "A_plus")
    assert abs(bound - 5 ** 0.25) < 1e-12
    other = estimate_string_bound((10.0, 2.0, 3.0), math.e ** 2, 1.0,
                                  5, "other")
    assert other == pytest.approx((5 * 1.5) ** 0.25)
    with pytest.raises(ParameterDomain):
        estimate_string_bound((10.0, 1.0, 1.0), 1.0, 0.5, 5, "A_plus")


def test_case1_proxy_exact():
    assert case1_proxy(4.0, 1.0, 3) == 2.0
    with pytest.raises(ParameterDomain):
        case1_proxy(-1.0, 1.0, 3)


def test_log_y_t_switch():
    config, _, _ = micro_config()
    assert log_y_t(config) == pytest.approx(math.log(4))   # A_minus: log y
    other = make_config(5, 2, 20, 3, 7.0, 3,
                        build_Q(5, 2, 20, 3, t=7, yz_over_t=50))
    assert log_y_t(other) == pytest.approx(math.log(7))
    bad = make_config(5, 2, 20, 3, None, 3,
                      build_Q(5, 2, 20, 3, t=7, yz_over_t=50))
    with pytest.raises(ParameterDomain):
        log_y_t(bad)


def test_bound_report_shape():
    config, _, _ = micro_config()
    report = bound_report(config, 10 ** 8, ALL)
    assert report["phi_q"] == 4
    assert report["case"] == "A_minus"
    assert report["bound"] == report["bound_A_pm"]
    assert report["phi_note"] == PHI_NOTE
    assert report["case1_proxy"] == pytest.approx(
        (math.log(4) / math.log(8)) ** 0.25)
    assert json.dumps(report)                  # JSON-serializable


# --------------------------------------------------------- end-to-end runs

def test_run_construction_end_to_end():
    config, interval, census, bounds = run_construction(
        5, 4, yz=30, rows=2, X=10 ** 8)
    assert config.case_tag == "A_minus"
    assert interval[1] == 30
    assert census.rows_sampled == 2
    assert "anchors" in bounds
    doc = census_json(config, interval, census, bounds)
    assert doc["Q"] == str(config.Q)
    assert doc["exceptionality"] == "unverified"
    assert doc["primality"] == "deterministic"
    assert doc["case_summary"]["case1_rows_with_bad"] == census.rows_with_bad
    assert isinstance(doc["interval_start"], str)
    assert json.dumps(doc, sort_keys=True)


def test_run_construction_rejects_small_override():
    with pytest.raises(ParameterDomain):
        run_construction(5, 4, y=4, X=10 ** 8)


def test_census_json_big_q_stays_exact():
    # Q overflows float64; the JSON must carry it as a decimal string
    product = build_Q(5, 4, 100, 3)
    config = make_config(5, 4, 100, 3, None, 2, product)
    anchors, interval = anchored_interval(config, 50)
    census = sample_rows_census(config, interval, 1)
    doc = census_json(config, interval, census)
    assert int(doc["Q"]) == product.Q
    assert product.Q > 2 ** 63
    assert int(doc["interval_start"]) == interval[0]
