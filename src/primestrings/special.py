"""Special integer sequences and their prime subsets.

Three carriers are supported: the natural numbers ("all", so the prime
subset is every prime), Beatty sequences floor(n * alpha) for
irrational alpha > 1, and floor-product sequences floor(n * g(n)) for
g = (log log n)^B or (log n)^B, defined once by GFamily (formula,
derivatives and family names). Beatty membership and enumeration are
exact (integer fixed-point with directed rounding). Floor-product
values below 2^48 are exact too: float floors are kept only where the
product is far from an integer, and every other floor is decided at
_MP_DPS digits or raises PrecisionExhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .errors import (DomainError, GridTooSmall, InvalidRange,
                     PrecisionExhausted, RangeTooLarge)
from .fixedpoint import IrrationalConstant
from .sieve import sieve_range

MAX_ENUM_HI = 1 << 48
_CHUNK = 1 << 20           # indices per int64 Beatty block
_FRAC_BITS = 40            # fraction bits kept in the int64 Beatty floors
_MP_DPS = 50               # digits for floor-product floors near an integer


# ---------------------------------------------------------------------------
# g-families for floor-product sequences


_FAMILIES = ("loglog", "log")      # u(x) = log log x, u(x) = log x


@dataclass(frozen=True)
class GFamily:
    """g(x) = u(x)^B, where u(x) is log log x ("loglog") or log x ("log").

    The formula is written once, in at(), and evaluated with the log
    function the caller passes: math.log for a float, np.log for an
    array, mpmath.log at high precision. deriv() applies one chain rule
    for u^B to the analytic u', u'', u''' of the family.
    """

    family: str
    B: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown floor-product family {self.family!r}"
                             f" ({', '.join(_FAMILIES)})")

    @staticmethod
    def loglog(B=1.0):
        """g(x) = (log log x)^B."""
        return GFamily(family="loglog", B=B)

    @staticmethod
    def log_pow(B=1.0):
        """g(x) = (log x)^B."""
        return GFamily(family="log", B=B)

    def label(self):
        return self.family if self.B == 1.0 else f"{self.family}^{self.B:g}"

    def at(self, x, log):
        """u(x)^B, with u built from the given log function."""
        u = log(x)
        if self.family == "loglog":
            u = log(u)
        return u ** self.B

    def _log(self, x):
        """log x, where u(x) is defined and positive; else DomainError."""
        L = math.log(x) if x > 1.0 else 0.0
        if L <= (1.0 if self.family == "loglog" else 0.0):
            raise DomainError(f"{self.family} undefined/nonpositive at {x}")
        return L

    def value(self, x):
        self._log(x)
        return self.at(x, math.log)

    def deriv(self, x, order):
        """g^(order)(x) for order 0..3."""
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order {order} not supported")
        L = self._log(x)
        if self.family == "loglog":
            u = math.log(L)
            u1 = 1.0 / (x * L)
            u2 = -(L + 1.0) / (x * L) ** 2
            u3 = -1.0 / (x ** 3 * L ** 2) + 2.0 * (L + 1.0) ** 2 / (x * L) ** 3
        else:
            u, u1, u2, u3 = L, 1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3
        B = self.B
        if order == 0:
            return u ** B
        if order == 1:
            return B * u ** (B - 1) * u1
        if order == 2:
            return B * ((B - 1) * u ** (B - 2) * u1 ** 2 + u ** (B - 1) * u2)
        return B * ((B - 1) * (B - 2) * u ** (B - 3) * u1 ** 3
                    + 3 * (B - 1) * u ** (B - 2) * u1 * u2
                    + u ** (B - 1) * u3)

    def f_value(self, n):
        """f(n) = n * g(n)."""
        return n * self.value(n)

    def f_deriv(self, x, order):
        # f = x g  =>  f^(k) = k g^(k-1) + x g^(k)
        return order * self.deriv(x, order - 1) + x * self.deriv(x, order)

    def value_np(self, x):
        """g over a float array (domain not checked)."""
        return self.at(x, np.log)

    def default_start_n(self):
        """Smallest integer where g is defined and positive."""
        return 3 if self.family == "loglog" else 2   # log x > 1, > 0


# ---------------------------------------------------------------------------
# set specifications


@dataclass(frozen=True)
class SpecialSetSpec:
    """Carrier sequence whose prime members form the special set."""

    kind: str                                  # "all" | "beatty" | "floorprod"
    alpha: Optional[IrrationalConstant] = None
    g: Optional[GFamily] = None

    @staticmethod
    def all_primes():
        return SpecialSetSpec(kind="all")

    @staticmethod
    def beatty(alpha):
        if float(alpha) <= 1.0:
            raise DomainError(
                f"Beatty slope must exceed 1, got {float(alpha)}")
        return SpecialSetSpec(kind="beatty", alpha=alpha)

    @staticmethod
    def floor_product(g):
        # B <= 0: n * g(n) need not increase; B infinite: g(n) is not finite
        if not 0 < g.B < math.inf:
            raise DomainError(
                f"floor products need a finite power B > 0, got {g.B}")
        return SpecialSetSpec(kind="floorprod", g=g)

    def descriptor(self):
        if self.kind == "all":
            return "all"
        if self.kind == "beatty":
            return f"beatty:{self.alpha.name}"
        return f"floorprod:{self.g.label()}"


def beatty_member(alpha, m):
    """Whether m = floor(n * alpha) for some positive integer n.

    Exact: an integer n exists in [m/alpha, (m+1)/alpha) iff
    floor(ceil(m/alpha) * alpha) == m. Comparisons the constant's
    bracket cannot decide raise PrecisionExhausted.
    """
    if m < 1:
        raise InvalidRange(f"membership defined for m >= 1, got {m}")
    if float(alpha) <= 1.0:
        raise DomainError("Beatty slope must exceed 1")
    n0 = alpha.ceil_div(m)
    return alpha.floor_mul(n0) == m


def _side_floors(n0, c, bits, i, pad):
    """floor((n0 + i) * c / 2^bits) from below (pad 0) or above.

    n0 * c and c split once into whole and fractional parts. The
    fractions keep _FRAC_BITS bits, rounded down, or up when pad is
    2^(bits - _FRAC_BITS) - 1, so i * step < 2^60 fits in int64.
    """
    whole, frac = divmod(n0 * c, 1 << bits)
    step_whole, step = divmod(c, 1 << bits)
    shift = bits - _FRAC_BITS
    frac, step = (frac + pad) >> shift, (step + pad) >> shift
    return whole + i * step_whole + ((i * step + frac) >> _FRAC_BITS)


def _beatty_block(alpha, n_lo, n_hi):
    """floor(n * alpha) for n in [n_lo, n_hi), exactly, vectorized.

    The constant carries one bracket lo/2^b <= alpha <= hi/2^b (alpha.lo,
    alpha.hi, b = alpha.bits), fixed at construction, so
    floor(n lo/2^b) <= floor(n alpha) <= floor(n hi/2^b). Both sides
    are evaluated in int64 over chunks of _CHUNK indices, with
    rounding that only widens the bracket, by at most
    _CHUNK * 2^-_FRAC_BITS = 2^-20 (_side_floors). Where the two sides
    agree they equal floor(n alpha); the few n where they differ
    (frac(n alpha) within about 2^-20 of an integer) are decided by the
    exact floor_mul.
    """
    bits = alpha.bits
    pad = (1 << (bits - _FRAC_BITS)) - 1
    vals = np.empty(max(0, n_hi - n_lo), dtype=np.int64)
    for n0 in range(n_lo, n_hi, _CHUNK):
        i = np.arange(min(_CHUNK, n_hi - n0), dtype=np.int64)
        lo = _side_floors(n0, alpha.lo, bits, i, 0)
        hi = _side_floors(n0, alpha.hi, bits, i, pad)
        for j in np.flatnonzero(lo != hi):
            lo[j] = alpha.floor_mul(n0 + int(j))
        vals[n0 - n_lo:n0 - n_lo + i.size] = lo
    return vals


def enumerate_special(spec, lo, hi):
    """Ascending members of the carrier sequence in [lo, hi)."""
    if not 0 <= lo <= hi:
        raise InvalidRange(f"bad range [{lo}, {hi})")
    if hi > MAX_ENUM_HI:
        raise RangeTooLarge(f"hi {hi} > {MAX_ENUM_HI}")
    if spec.kind == "all":
        return np.arange(max(lo, 1), max(hi, 1), dtype=np.int64)
    if spec.kind == "beatty":
        alpha = spec.alpha
        n_lo = max(1, alpha.ceil_div(max(lo, 0)))
        n_hi = alpha.ceil_div(hi)        # first n with floor(n*alpha) >= hi
        return _beatty_block(alpha, n_lo, n_hi)
    return _floorprod_range(spec, lo, hi)


def _floorprod_first_n(spec, target):
    """Smallest n >= g.default_start_n() with f(n) >= target."""
    g = spec.g
    n = g.default_start_n()
    if g.f_value(n) >= target:
        return n
    step = 1
    while g.f_value(n + step) < target:
        step *= 2
    lo, hi = n + step // 2, n + step
    while lo < hi:
        mid = (lo + hi) // 2
        if g.f_value(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _floorprod_floor(g, n):
    """floor(n * g(n)) at _MP_DPS digits; PrecisionExhausted when n * g(n)
    is within 10^(10 - _MP_DPS) of an integer, relative to its size (10
    digits of margin for the rounding in the logs and the power)."""
    with mpmath.workdps(_MP_DPS):
        v = n * g.at(n, mpmath.log)
        f = int(mpmath.nint(v))
        if abs(v - f) <= v * mpmath.mpf(10) ** (10 - _MP_DPS):
            raise PrecisionExhausted(
                f"{g.label()}: n * g(n) at n = {n} cannot be told from "
                f"the integer {f} at {_MP_DPS} digits")
    return f if v > f else f - 1


def _floorprod_range(spec, lo, hi):
    g = spec.g
    lo = max(lo, 2)                      # values below 2 are skipped
    # the float bisection can land one index off either way
    n_lo = max(g.default_start_n(), _floorprod_first_n(spec, lo) - 1)
    n_hi = _floorprod_first_n(spec, hi) + 1
    n = np.arange(n_lo, n_hi, dtype=np.float64)
    prod = n * g.value_np(n)
    vals = np.floor(prod).astype(np.int64)
    frac = prod - np.floor(prod)
    eps = prod * 2.0 ** -46 + 2.0 ** -40
    for i in np.flatnonzero((frac < eps) | (frac > 1.0 - eps)):
        vals[i] = _floorprod_floor(g, n_lo + int(i))
    # floors of an increasing f never fall, so repeats are adjacent
    keep = (vals >= lo) & (vals < hi)
    keep[1:] &= vals[1:] != vals[:-1]
    return vals[keep]


def floorprod_member(spec, m):
    """Whether m = floor(n g(n)) for an n >= g.default_start_n(), m < 2^48."""
    if m >= MAX_ENUM_HI:
        raise RangeTooLarge(f"floor-product membership is decided only "
                            f"below 2^48 = {MAX_ENUM_HI}, got {m}")
    return m >= 2 and enumerate_special(spec, m, m + 1).size > 0


def member(spec, m):
    """Membership of m in the carrier sequence."""
    if spec.kind == "all":
        return m >= 1
    if spec.kind == "beatty":
        return m >= 1 and beatty_member(spec.alpha, m)
    return floorprod_member(spec, m)


def special_primes(spec, lo, hi, workers=1):
    """Ascending primes in the carrier sequence, within [lo, hi)."""
    primes = sieve_range(lo, hi, workers=workers)
    if spec.kind == "all":
        return primes
    members = enumerate_special(spec, lo, hi)
    return np.intersect1d(members, primes, assume_unique=True)


# ---------------------------------------------------------------------------
# numeric class-condition evidence


@dataclass
class AlphaReport:
    """Numeric evidence about the growth class of a g-family.

    alpha_g are fits of x g^(i)/g^(i-1) + i at the largest grid point;
    alpha_f are the matching fits for f = x g without the +i shift.
    samples holds the per-point series. Flags are pure functions of the
    recorded estimates and tolerance; they report evidence and never
    assert class membership.
    """

    grid: tuple
    alpha_g: tuple
    alpha_f: tuple
    samples: list
    flags: dict
    tolerance: float


def _alpha_fits(g, x):
    d0 = g.deriv(x, 0)
    d1 = g.deriv(x, 1)
    d2 = g.deriv(x, 2)
    d3 = g.deriv(x, 3)
    a_g = (x * d1 / d0 + 1 if d0 else math.nan,
           x * d2 / d1 + 2 if d1 else math.nan,
           x * d3 / d2 + 3 if d2 else math.nan)
    f0 = x * d0
    f1 = g.f_deriv(x, 1)
    f2 = g.f_deriv(x, 2)
    f3 = g.f_deriv(x, 3)
    a_f = (x * f1 / f0 if f0 else math.nan,
           x * f2 / f1 if f1 else math.nan,
           x * f3 / f2 if f2 else math.nan)
    return a_g, a_f


def _log_growth_trend(g, grid):
    """True when log g / (loglog * llll / lll) decreases on the tail."""
    ratios = []
    for x in grid:
        L = math.log(x)
        if L <= 0:
            continue
        LL = math.log(L)
        if LL <= 0:
            continue
        LLL = math.log(LL)
        if LLL <= 0:
            continue
        LLLL = math.log(LLL)
        if LLLL <= 0:
            continue
        gv = g.value(x)
        if gv <= 0:
            continue
        ratios.append(math.log(gv) / (LL * LLLL / LLL))
    if len(ratios) < 2:
        return False
    return all(b < a for a, b in zip(ratios, ratios[1:]))


def validate_g(g, grid, tolerance=0.05):
    """Fit growth exponents and evaluate the class conditions numerically.

    Requires at least 5 grid points spanning at least 3 decades. The
    derivative ratios are evaluated pointwise; headline estimates come
    from the largest grid point.
    """
    grid = sorted(float(x) for x in grid)
    if len(grid) < 5:
        raise GridTooSmall(f"need >= 5 grid points, got {len(grid)}")
    if grid[0] <= 0 or grid[-1] / grid[0] < 1000.0:
        raise GridTooSmall("grid must span at least 3 decades")
    samples = []
    for x in grid:
        a_g, a_f = _alpha_fits(g, x)
        samples.append({"x": x, "alpha_g": a_g, "alpha_f": a_f,
                        "g": g.deriv(x, 0),
                        "dg": g.deriv(x, 1),
                        "second_order": 2 * g.deriv(x, 1) + x * g.deriv(x, 2)})
    a1, a2, a3 = samples[-1]["alpha_g"]
    tol = tolerance
    flags = {
        "alpha1_positive": a1 > tol,
        "alpha2_nonnegative": a2 > -tol,
        "alpha1_ne_alpha2": abs(a1 - a2) > tol,
        "alpha3_ne_3alpha1": abs(a3 - 3 * a1) > tol,
        "two_alpha1_plus_alpha3_ne_3alpha2": abs(2 * a1 + a3 - 3 * a2) > tol,
        "second_order_positive": all(s["second_order"] > 0 for s in samples),
        "increasing_unbounded": (all(s["dg"] > 0 for s in samples)
                                 and samples[-1]["g"] > samples[0]["g"]),
        "codomain_ge_2": all(s["g"] >= 2 for s in samples),
        "log_growth": _log_growth_trend(g, grid),
    }
    return AlphaReport(grid=tuple(grid),
                       alpha_g=samples[-1]["alpha_g"],
                       alpha_f=samples[-1]["alpha_f"],
                       samples=samples, flags=flags, tolerance=tol)
