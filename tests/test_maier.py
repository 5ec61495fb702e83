"""Maier matrix lab: cases, Q products, anchors, censuses, counts, bounds."""

import dataclasses
import json
import math
import random
import warnings

import pytest

import _oracles
from primestrings import (GFamily, SpecialSetSpec, anchored_interval,
                          bound_report, build_Q, carrier_F, case1_proxy,
                          census_json, choose_parameters, classify_residue,
                          count_S_T, count_S_q, count_psi, crt_anchor,
                          estimate_string_bound, is_prime, log_y_t,
                          make_config, run_construction, sample_rows_census)
from primestrings import maier
from primestrings.errors import (EmptyProductWarning, IntervalTooLarge,
                                 InvalidQuery, ParameterDomain)
from primestrings.maier import _PRESIEVE_B, PHI_NOTE, X_FLOOR

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
    qq, a, y, p0, t, yzt = 5, 2, 20, 3, 7, 50
    got = build_Q(qq, a, y, p0, t=t, yz_over_t=yzt)
    small = [int(p) for p in _oracles.simple_sieve(y)]
    wide = [int(p) for p in _oracles.simple_sieve(yzt)]
    want = {p for p in small if p % qq not in (1, a)}
    want |= {p for p in small if p >= t and p % qq == 1}
    want |= {p for p in wide if p % qq == a}
    want = {p for p in want if p != p0 and qq % p != 0}
    assert set(got.P_a) == want
    expect_q = qq
    for p in sorted(want):
        expect_q *= p
    assert got.Q == expect_q


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
    # factor below the bound, so is_prime sees exactly the primes
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
            want_tested.append(c)
            if spec.kind == "beatty" and not _oracles.beatty_member_direct(c):
                continue
            if c % config.q == config.a % config.q:
                good, run = good + 1, run + 1
                best = max(best, run)
            else:
                bad, run = bad + 1, 0
        want_rows.append((r, good, bad, best))
    assert census.per_row == want_rows
    assert tested == want_tested


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


def test_sample_rows_census_guards():
    config, _, interval = micro_config()
    with pytest.raises(InvalidQuery):
        sample_rows_census(config, interval, 0)
    # q must divide Q, or entries r*Q + i leave their column's class mod q
    with pytest.raises(ParameterDomain):
        sample_rows_census(dataclasses.replace(config, Q=31), interval, 3)


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
