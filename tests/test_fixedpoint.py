"""Directed fixed-point constants: brackets and exact floors."""

import pytest
from mpmath import mp

import _oracles
from primestrings import IrrationalConstant, named_constant
from primestrings.errors import PrecisionExhausted

NAMES = ("pi", "sqrt2", "e")
_TRUE = {"pi": lambda: mp.pi, "sqrt2": lambda: mp.sqrt(2), "e": lambda: mp.e}


def test_reference_digits_match_mpmath():
    # every stored digit string agrees with mpmath to its full length:
    # num/den is the string, one digit before the point
    with mp.workdps(140):
        for name in NAMES:
            c = named_constant(name)
            assert c.den == 10 ** (len(str(c.num)) - 1)
            scaled = int(mp.floor(_TRUE[name]() * c.den))
            assert c.num in (scaled, scaled + 1)  # truncated or rounded


def test_stored_value_within_declared_precision():
    with mp.workdps(200):
        for name in NAMES:
            c = named_constant(name)
            err = abs(mp.mpf(c.num) / c.den - _TRUE[name]())
            assert err < mp.mpf(2) ** (-c.bits + 1)


def test_bounds_bracket_true_value():
    # one bracket per constant, at the bits its 124 digits support
    with mp.workdps(200):
        for name in NAMES:
            c = named_constant(name)
            assert c.bits == c.den.bit_length() - 8 == 404
            scaled = _TRUE[name]() * mp.mpf(2) ** c.bits
            assert c.lo <= scaled <= c.hi
            assert c.hi - c.lo <= 4


def test_floor_mul_matches_decimal_oracle():
    for name in NAMES:
        c = named_constant(name)
        k = _oracles.const60(name)
        for n in range(0, 4000):
            assert c.floor_mul(n) == (n * k) // _oracles.SCALE


def test_floor_mul_escalates_for_huge_multipliers():
    # a 96-bit bracket could not separate the floors here; 404 bits can
    c = named_constant("pi")
    n = 1 << 120
    with mp.workdps(90):
        assert c.floor_mul(n) == int(mp.floor(mp.pi * n))


def test_div_identities_sqrt2():
    # floor(m/sqrt2) = d iff 2 d^2 <= m^2 < 2 (d+1)^2, checkable exactly
    c = named_constant("sqrt2")
    for m in range(1, 2500):
        d = c.floor_div(m)
        assert 2 * d * d <= m * m < 2 * (d + 1) * (d + 1)
    assert c.floor_div(0) == 0


def test_precision_exhausted_at_reference_edge():
    # at n = den the +-1/den slack spans two integers at any precision
    c = named_constant("pi")
    with pytest.raises(PrecisionExhausted):
        c.floor_mul(c.den)


def test_construction_guards():
    with pytest.raises(ValueError):
        IrrationalConstant.from_decimal("halfish", "3.5")  # too few digits
    with pytest.raises(ValueError):      # 10^31 supports 95 bits, < 96
        IrrationalConstant.from_decimal("short", "3." + "1" * 31)
    assert IrrationalConstant.from_decimal("ok", "3." + "1" * 32).bits == 99
    with pytest.raises(ValueError):
        IrrationalConstant(name="neg", num=-3, den=10 ** 40)
    with pytest.raises(KeyError):
        named_constant("tau")


def test_from_decimal_parses_forms():
    text = "2." + "7" * 45
    c = IrrationalConstant.from_decimal("x", "+" + text)
    assert c.num == int(text.replace(".", "")) and c.den == 10 ** 45
    with pytest.raises(ValueError):
        IrrationalConstant.from_decimal("y", "2.7e1" + "0" * 42)
