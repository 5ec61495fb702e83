"""Fixed-point representations of irrational constants.

A constant is carried as an exact decimal fraction num/den taken from a
high-precision reference string. The true constant lies between
(num-1)/den and (num+1)/den; that interval is widened once, at
construction, to a dyadic bracket lo/2^bits <= value <= hi/2^bits at
the finest precision the digits support (bits = den.bit_length() - 8,
404 for the built-in constants). All floor decisions run in
integer arithmetic against that bracket: a decision is accepted only
when both ends agree, and otherwise raises PrecisionExhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PrecisionExhausted

# Reference values, 124 significant digits each.
_REFERENCE_DIGITS = {
    "pi": "3.141592653589793238462643383279502884197169399375105820974944"
          "5923078164062862089986280348253421170679821480865132823066470938",
    "sqrt2": "1.414213562373095048801688724209698078569671875376948073176"
             "679737990732478462107038850387534327641572735013846230912297"
             "0249248",
    "e": "2.718281828459045235360287471352662497757247093699959574966967"
         "6277240766303535475945713821785251664274274663919320030599218174",
}


@dataclass(frozen=True)
class IrrationalConstant:
    """Directed fixed-point view of a positive irrational constant."""

    name: str
    num: int            # exact value of the reference string is num/den
    den: int
    bits: int = field(init=False)
    lo: int = field(init=False, repr=False)   # lo/2^bits <= value
    hi: int = field(init=False, repr=False)   # value <= hi/2^bits

    def __post_init__(self):
        if self.num <= 0 or self.den <= 0:
            raise ValueError("constant must be positive")
        # Bits the reference digits can actually support, with headroom
        # for the +-1/den directed slack.
        bits = self.den.bit_length() - 8
        if bits < 96:
            raise ValueError(
                f"{self.name}: reference digits support only {bits} "
                f"bits, need >= 96")
        # Honest as long as the reference string is correct to its last
        # digit (rounded or truncated), since then |true - num/den| < 1/den.
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "lo", ((self.num - 1) << bits) // self.den)
        object.__setattr__(self, "hi",
                           -((-(self.num + 1) << bits) // self.den))

    @classmethod
    def from_decimal(cls, name, text):
        text = text.strip()
        if text.startswith("+"):
            text = text[1:]
        if "." in text:
            whole, frac = text.split(".", 1)
        else:
            whole, frac = text, ""
        if not (whole + frac).isdigit():
            raise ValueError(f"not a decimal literal: {text!r}")
        num = int(whole + frac) if (whole + frac) else 0
        return cls(name=name, num=num, den=10 ** len(frac))

    def floor_mul(self, n):
        """Exact floor(n * value) for integer n >= 0."""
        f = (n * self.lo) >> self.bits
        if f != (n * self.hi) >> self.bits:
            raise PrecisionExhausted(
                f"floor({n} * {self.name}) undecided at {self.bits} bits")
        return f

    def floor_div(self, m):
        """Exact floor(m / value) for integer m >= 0."""
        f = (m << self.bits) // self.hi
        if f != (m << self.bits) // self.lo:
            raise PrecisionExhausted(
                f"floor({m} / {self.name}) undecided at {self.bits} bits")
        return f


def named_constant(name):
    """One of the built-in reference constants: pi, sqrt2, e."""
    try:
        text = _REFERENCE_DIGITS[name]
    except KeyError:
        raise KeyError(f"unknown constant {name!r}; have "
                       f"{sorted(_REFERENCE_DIGITS)}") from None
    return IrrationalConstant.from_decimal(name, text)
