"""Fixed-point representations of irrational constants.

A constant is carried as an exact decimal fraction num/den taken from a
high-precision reference string, plus a working precision in bits. All
floor/ceil decisions run in integer arithmetic with directed bounds:
the true constant is bracketed by (num-1)/den and (num+1)/den, so a
decision is accepted only when both brackets agree. Undecided cases
escalate 96 -> 192 -> 384 bits before raising PrecisionExhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PrecisionExhausted

PRECISION_CAP = 384

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
    precision_bits: int
    max_bits: int = field(init=False)

    def __post_init__(self):
        if self.num <= 0 or self.den <= 0:
            raise ValueError("constant must be positive")
        if self.precision_bits < 96:
            raise ValueError("precision_bits must be >= 96")
        # Bits the reference digits can actually support, with headroom
        # for the +-1/den directed slack.
        max_bits = self.den.bit_length() - 8
        if self.precision_bits > max_bits:
            raise ValueError(
                f"{self.name}: reference digits support only {max_bits} "
                f"bits, requested {self.precision_bits}")
        object.__setattr__(self, "max_bits", max_bits)

    @classmethod
    def from_decimal(cls, name, text, precision_bits=96):
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
        return cls(name=name, num=num, den=10 ** len(frac),
                   precision_bits=precision_bits)

    def __float__(self):
        return self.num / self.den

    def bounds(self, bits):
        """(lo, hi) ints with the true value inside [lo/2^b, hi/2^b].

        Honest as long as the reference string is correct to its last
        digit (rounded or truncated), since then |true - num/den| < 1/den.
        """
        lo = ((self.num - 1) << bits) // self.den
        hi = -((-(self.num + 1) << bits) // self.den)
        return lo, hi

    def bit_ladder(self):
        cap = min(PRECISION_CAP, self.max_bits)
        bits = min(self.precision_bits, cap)
        out = [bits]
        while bits < cap:
            bits = min(2 * bits, cap)
            out.append(bits)
        return out

    def floor_mul(self, n):
        """Exact floor(n * value) for integer n >= 0."""
        if n == 0:
            return 0
        for bits in self.bit_ladder():
            lo, hi = self.bounds(bits)
            f1 = (n * lo) >> bits
            f2 = (n * hi) >> bits
            if f1 == f2:
                return f1
        raise PrecisionExhausted(
            f"floor({n} * {self.name}) undecided at {self.max_bits} bits")

    def floor_div(self, m):
        """Exact floor(m / value) for integer m >= 0."""
        if m == 0:
            return 0
        for bits in self.bit_ladder():
            lo, hi = self.bounds(bits)
            f1 = (m << bits) // hi
            f2 = (m << bits) // lo
            if f1 == f2:
                return f1
        raise PrecisionExhausted(
            f"floor({m} / {self.name}) undecided at {self.max_bits} bits")

    def ceil_div(self, m):
        """Exact ceil(m / value); m / value is irrational for m >= 1."""
        if m == 0:
            return 0
        return self.floor_div(m) + 1


def named_constant(name, precision_bits=96):
    """One of the built-in reference constants: pi, sqrt2, e."""
    try:
        text = _REFERENCE_DIGITS[name]
    except KeyError:
        raise KeyError(f"unknown constant {name!r}; have "
                       f"{sorted(_REFERENCE_DIGITS)}") from None
    return IrrationalConstant.from_decimal(name, text, precision_bits)


def reference_decimal(name):
    return _REFERENCE_DIGITS[name]
