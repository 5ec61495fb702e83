"""Special integer sequences and their prime subsets.

Three carriers are supported: the natural numbers ("all", so the prime
subset is every prime), Beatty sequences floor(n * alpha) for
irrational alpha > 1, and floor-product sequences floor(n * g(n)) for
g = (log log n)^B or (log n)^B, defined once by GFamily (formula,
derivatives and family names). Both irrational carriers are decided by
one exact mask over an ascending array, one _CHUNK-wide span at a time:
a Beatty span tests frac((m+1)/alpha) < 1/alpha on one int64 fraction
from each end of a bracket of 1/alpha, a floor-product span sets in a
bitmap the floors of f(n) = n g(n) from one _MP_DPS-digit anchor f(n0)
plus float rises f(n) - f(n0) (GFamily.rise); only a floor whose float
lies within the rise's proved error bound of an integer is decided at
_MP_DPS digits, or raises PrecisionExhausted. Those floors run in a
private mpmath context, so scan threads take them with no lock.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainError, GridTooSmall, InvalidQuery, InvalidRange,
                     PrecisionExhausted, RangeTooLarge)
from .fixedpoint import IrrationalConstant
from .sieve import MAX_SCAN_HI, _check_window, sieve_range

_CHUNK = 1 << 18           # widest span of values one mask kernel takes
_FRAC_BITS = 40            # fraction bits kept in the int64 Beatty floors
_MP_DPS = 50               # digits for floor-product floors near an integer
_RISE_ERR = 2.0 ** -42     # GFamily.rise error bound / ((1 + B)(R + 1))
_FLAG_TOL = 0.05           # validate_g's margin on each alpha condition


# ---------------------------------------------------------------------------
# g-families for floor-product sequences


_FAMILIES = ("loglog", "log")      # u(x) = log log x, u(x) = log x


@dataclass(frozen=True)
class GFamily:
    """g(x) = u(x)^B, where u(x) is log log x ("loglog") or log x ("log").

    The formula is written once, in at(), and evaluated with the log
    function the caller passes: math.log for a float, np.log for an
    array, the log of a _MP_DPS-digit mpmath context. derivs() applies
    one chain rule for u^B to the analytic u', u'', u''' of the family.
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

    def rise(self, n0, i):
        """(f(n0 + i) - f(n0), one bound on its float error at every i)
        for f = x g, an integer n0 >= default_start_n() and an ascending
        float64 array i >= 0.

        Every term is a relative difference, so none cancels: each log
        rises by log1p of its relative step, u^B by u0^B expm1(B log1p(
        du / u0)) (du itself at B = 1), and then R = i (g0 + dg) + n0 dg,
        each in this order, in place. The bound is _RISE_ERR (1 + B) (R
        + 1) at the last i, where R is largest; _floorprod_mask proves it.
        """
        u0, dg = math.log(n0), np.empty_like(i)     # du, then dg
        np.log1p(np.divide(i, n0, out=dg), out=dg)
        if self.family == "loglog":
            np.log1p(np.divide(dg, u0, out=dg), out=dg)
            u0 = math.log(u0)
        g0 = u0 ** self.B
        if self.B != 1.0:
            np.log1p(np.divide(dg, u0, out=dg), out=dg)
            np.expm1(np.multiply(dg, self.B, out=dg), out=dg)
            dg *= g0
        r = dg + g0
        r *= i
        r += np.multiply(dg, n0, out=dg)
        return r, _RISE_ERR * (1.0 + self.B) * (r[-1] + 1.0)

    def derivs(self, x):
        """(g, g', g'', g''') at x, from one u, u', u'', u'''."""
        L = self._log(x)
        if self.family == "loglog":
            u = math.log(L)
            u1 = 1.0 / (x * L)
            u2 = -(L + 1.0) / (x * L) ** 2
            u3 = -1.0 / (x ** 3 * L ** 2) + 2.0 * (L + 1.0) ** 2 / (x * L) ** 3
        else:
            u, u1, u2, u3 = L, 1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3
        B = self.B
        return (u ** B,
                B * u ** (B - 1) * u1,
                B * ((B - 1) * u ** (B - 2) * u1 ** 2 + u ** (B - 1) * u2),
                B * ((B - 1) * (B - 2) * u ** (B - 3) * u1 ** 3
                     + 3 * (B - 1) * u ** (B - 2) * u1 * u2
                     + u ** (B - 1) * u3))

    def f_derivs(self, x):
        """(f, f', f'', f''') at x for f = x g: f^(k) = k g^(k-1) + x g^(k)."""
        d = self.derivs(x)
        return (x * d[0],) + tuple(k * d[k - 1] + x * d[k] for k in (1, 2, 3))

    def default_start_n(self):
        """Smallest integer where g is defined and positive."""
        return 3 if self.family == "loglog" else 2   # log x > 1, > 0

    def least_power(self):
        """Least B, rounded up to two digits, at which _floorprod_floor
        tells every n g(n) from the integer n.

        n g(n) = n e^(B log u(n)) lies within a relative B |log u(n)| of
        n, and _floorprod_floor needs more than 10^(10 - _MP_DPS). u
        rises through 1 at e^e ~ 15.15 (loglog) or e ~ 2.72 (log), so the
        least |log u(n)| over the integers n >= default_start_n() falls
        next to that point: at n = 15 for loglog (0.0038), at n = 3 for
        log (0.094).
        """
        one = math.exp(math.e) if self.family == "loglog" else math.e
        least = min(abs(math.log(GFamily(self.family).at(n, math.log)))
                    for n in (math.floor(one), math.ceil(one))
                    if n >= self.default_start_n())
        bound = 10.0 ** (10 - _MP_DPS) / least
        exp = math.floor(math.log10(bound)) - 1
        # through a decimal string, so the bound as printed is accepted
        return float(f"{math.ceil(bound / 10.0 ** exp)}e{exp}")

    def below(self, x, X):
        """Whether f(x) = x g(x) < X in float64. An f too large for a
        float is not: at a large B, u^B overflows wherever u > 1."""
        try:
            return x * self.value(x) < X
        except OverflowError:
            return False

    def inverse(self, X):
        """f^{-1}(X) for f(x) = x g(x), as the float lo with
        f(lo) < X <= f(next float above lo); default_start_n() when
        f is already >= X there.

        hi doubles from 4.0 until f(hi) >= X, then [lo, hi] is halved
        until lo and hi are adjacent floats. g is only evaluated above
        default_start_n(), where it is defined.
        """
        lo, hi = float(self.default_start_n()), 4.0
        while self.below(hi, X):
            lo, hi = hi, hi * 2
        mid = (lo + hi) / 2
        while lo < mid < hi:
            if self.below(mid, X):
                lo = mid
            else:
                hi = mid
            mid = (lo + hi) / 2
        return lo


# ---------------------------------------------------------------------------
# set specifications


def _check_slope(alpha):
    """DomainError unless alpha's bracket lies above 1."""
    one = 1 << alpha.bits
    if alpha.hi <= one:
        raise DomainError(f"Beatty slope must exceed 1, got {alpha.name}")
    if alpha.lo <= one:
        raise DomainError(f"Beatty slope {alpha.name} cannot be told from "
                          f"1 at {alpha.bits} bits")


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
        _check_slope(alpha)
        return SpecialSetSpec(kind="beatty", alpha=alpha)

    @staticmethod
    def floor_product(g):
        # B <= 0: n * g(n) need not increase; B infinite: g(n) is not finite
        if not 0 < g.B < math.inf:
            raise DomainError(
                f"floor products need a finite power B > 0, got {g.B}")
        least = g.least_power()
        if g.B < least:
            raise DomainError(
                f"floor products over {g.family} need a power B >= "
                f"{least:g}, got {g.B:g}: below it n * g(n) "
                f"cannot be told from the integer n at {_MP_DPS} digits")
        return SpecialSetSpec(kind="floorprod", g=g)

    def descriptor(self):
        if self.kind == "all":
            return "all"
        if self.kind == "beatty":
            return f"beatty:{self.alpha.name}"
        return f"floorprod:{self.g.label()}"


def beatty_member(alpha, m):
    """Whether m = floor(n * alpha) for some positive integer n.

    Exact: [m/alpha, (m+1)/alpha) is shorter than 1, so it holds an
    integer n iff floor((m+1)/alpha) - floor(m/alpha) = 1 (Fraenkel
    1969). Floors the bracket cannot decide raise PrecisionExhausted.
    """
    if m < 1:
        raise InvalidRange(f"membership defined for m >= 1, got {m}")
    _check_slope(alpha)
    return alpha.floor_div(m + 1) - alpha.floor_div(m) == 1


def _beatty_mask(alpha, part):
    """beatty_member(alpha, m) for each m of one span of _mask.

    With beta = 1/alpha < 1, m is a member iff frac((m+1) beta) < beta.
    alpha's bracket lo/2^b <= alpha <= hi/2^b (b = alpha.bits) gives
    rlo/2^b <= beta <= rhi/2^b, rlo = floor(2^(2b)/hi), rhi =
    ceil(2^(2b)/lo). From each end, (m+1) beta less its whole part W0
    at the span's start m0 is one int64 in 2^-_FRAC_BITS units, rounded
    down from rlo and up from rhi (i * step <= 2^58 for i < _CHUNK), so
    the two sides bound it. Above the lower side's whole part, an upper
    side below beta rounded down (blo) puts frac((m+1) beta) below beta:
    a member. Above the upper side's whole part, a lower side at or above
    beta rounded up (bhi) puts it at or above beta (a tie is impossible
    for irrational beta): not a member. beatty_member decides the rest,
    such as sides of unequal whole parts.
    """
    bits, m0 = alpha.bits, int(part[0])
    shift = bits - _FRAC_BITS
    rlo = (1 << 2 * bits) // alpha.hi
    rhi = -(-(1 << 2 * bits) // alpha.lo)
    blo, bhi = rlo >> shift, -(-rhi >> shift)           # also the steps
    w0 = (m0 + 1) * rlo >> bits << bits
    i = part - m0
    lo = i * blo + (((m0 + 1) * rlo - w0) >> shift)
    hi = i * bhi - ((w0 - (m0 + 1) * rhi) >> shift)     # rounded up
    whole = -1 << _FRAC_BITS                    # clears the fraction bits
    keep = hi - (lo & whole) < blo
    for j in np.flatnonzero(~keep & (lo - (hi & whole) < bhi)):
        keep[j] = beatty_member(alpha, int(part[j]))
    return keep


@functools.cache
def _mp_context():
    """This module's own mpmath context, at _MP_DPS digits. Made on
    first use, so the other sets never load mpmath."""
    import mpmath
    ctx = mpmath.MPContext()
    ctx.dps = _MP_DPS
    return ctx


def _floorprod_floor(g, n):
    """floor(n * g(n)) and the float of its fraction, at _MP_DPS digits;
    PrecisionExhausted when n * g(n) is within 10^(10 - _MP_DPS) of an
    integer, relative to its size (10 digits of margin for the rounding
    in the logs and the power). They run in _mp_context(), apart from
    mpmath's global precision, so scan threads take them with no lock."""
    mp = _mp_context()
    v = n * g.at(n, mp.log)
    f = int(mp.nint(v))
    if abs(v - f) <= v * mp.mpf(10) ** (10 - _MP_DPS):
        raise PrecisionExhausted(
            f"{g.label()}: n * g(n) at n = {n} cannot be told from "
            f"the integer {f} at {_MP_DPS} digits")
    f = f if v > f else f - 1
    return f, float(v - f)


def _floorprod_mask(g, part):
    """floorprod_member for each m of one span of _mask, from the floors
    of f(n) = n g(n) over the n whose floors can reach the span.

    The floors are A + floor(a + R(i)) for n = n0 + i: A + a = f(n0) at
    _MP_DPS digits (A an integer, 0 <= a < 1) and R(i) = f(n0 + i) -
    f(n0) in float64 (GFamily.rise), or _MP_DPS-digit floors where a +
    R(i) is within the rise's bound of an integer. Exact, they ascend
    with n: those in the span are one slice, set in a bitmap m reads.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 2-3). Say each math.log, np.log1p, np.expm1 and float power
    result is within a relative eta = 2^-49 (8 ulp) of the exact value;
    numpy's own accuracy tests hold its float64 log, log1p and expm1,
    which it may compute with SIMD code in place of the C library's,
    to 1 ulp. Each +, -, *, / is correctly rounded (relative 2^-53 <=
    eta). log1p(x) for x >= 0 and expm1(v) for v >= 0 magnify the
    relative error of their argument at most 1 and 1 + v times, and
    log n0 >= log 3 > 1 makes u0 = log log n0 > 0.094, so to first
    order in eta:
      du                      relative 5 eta (2 eta for "log");
      u0                      relative 12 eta (eta for "log");
      g0 = u0^B               relative (12 B + 1) eta;
      dg, B != 1              relative (20 (1 + v) + 12 B + 3) eta, v =
                              B log(u(n0 + i) / u0) < 4 B, since
                              u(2^48) / u(3) < e^4 for both families;
      R = i (g0 + dg) + n0 dg adds 3 roundings to terms >= 0 (g rises),
                              so relative 92 (1 + B) eta.
    Rounding a once (the 50 digits add under 10^-25) and a + R once
    more adds 3 (R + 1) 2^-53, so the float a + R is within 93 (1 + B)
    eta (R + 1) of the exact one, and _RISE_ERR = 2^-42 = 128 eta
    covers it, with R taken at the span's last index. The products of
    errors left out add under 1% for B < 2^30, and from B = 2^18 on no
    integer n has f(n) in [2, 2^48) (|u(n) - 1| > 0.0037 at every
    integer n), so no floor is left to decide there.
    """
    m0, w = int(part[0]), int(part[-1] - part[0]) + 1
    # the float inverse can land one index off either way; below an n_lo
    # whose floor A is at most m0, every n floors at most to A
    n_lo = max(g.default_start_n(), math.ceil(g.inverse(m0)) - 1)
    A, a = _floorprod_floor(g, n_lo)
    while A > m0 and n_lo > g.default_start_n():
        n_lo -= 1
        A, a = _floorprod_floor(g, n_lo)
    # an n with f(n) >= 2 (m + 1) for the span's last m floors above it,
    # whatever the float's rounding; at a large B its f can pass 2^63
    n_hi = math.ceil(g.inverse(m0 + w)) + 1
    cut = False
    while n_hi - 1 > n_lo and not g.below(n_hi - 1, 2.0 * (m0 + w)):
        n_hi, cut = n_hi - 1, True
    s, err = g.rise(n_lo, np.arange(n_hi - n_lo, dtype=np.float64))
    s += a
    whole = s.astype(np.int64)              # floor(a + R), as a + R >= 0
    s -= whole
    for i in np.flatnonzero((s < err) | (s > 1.0 - err)):
        whole[i] = _floorprod_floor(g, n_lo + int(i))[0] - A
    # unless the trim cut an n above the span, step n_hi up until its floor
    # reaches the span's last value; one past it is kept as m0 + w (int64)
    while not cut and A + whole[-1] < m0 + w - 1:
        F = _floorprod_floor(g, n_hi)[0]
        whole = np.append(whole, min(F, m0 + w) - A)
        n_hi += 1
    lo, hi = np.searchsorted(whole, (max(m0, 2) - A, m0 + w - A))
    hit = np.zeros(w, dtype=bool)
    hit[whole[lo:hi] - (m0 - A)] = True
    return hit[part - m0]


def _mask(spec, m):
    """member(spec, v) for each v of an ascending, possibly empty int64
    array m >= 1, one kernel call per _CHUNK-wide span of values."""
    kernel, arg = ((_beatty_mask, spec.alpha) if spec.kind == "beatty"
                   else (_floorprod_mask, spec.g))
    keep = np.empty(m.size, dtype=bool)
    s = 0
    while s < m.size:
        e = int(np.searchsorted(m, m[s] + _CHUNK))
        keep[s:e] = kernel(arg, m[s:e])
        s = e
    return keep


def enumerate_special(spec, lo, hi):
    """Ascending members of the carrier sequence in [lo, hi).

    The window is at most MAX_SCAN_SPAN wide, as in sieve_range. It is
    masked one _CHUNK at a time, so temporaries are those of one chunk.
    """
    _check_window(lo, hi)
    lo, hi = max(lo, 1), max(hi, 1)
    if spec.kind == "all":
        return np.arange(lo, hi, dtype=np.int64)
    parts = [np.empty(0, dtype=np.int64)]
    for s in range(lo, hi, _CHUNK):
        m = np.arange(s, min(s + _CHUNK, hi), dtype=np.int64)
        parts.append(np.compress(_mask(spec, m), m))
    return np.concatenate(parts)


def floorprod_member(spec, m):
    """Whether m = floor(n g(n)) for an n >= g.default_start_n(), m < 2^48."""
    if m >= MAX_SCAN_HI:
        raise RangeTooLarge(f"floor-product membership is decided only "
                            f"below 2^48 = {MAX_SCAN_HI}, got {m}")
    return m >= 2 and bool(_floorprod_mask(spec.g, np.array([m]))[0])


def member(spec, m):
    """Membership of m in the carrier sequence."""
    if spec.kind == "all":
        return m >= 1
    if spec.kind == "beatty":
        return m >= 1 and beatty_member(spec.alpha, m)
    return floorprod_member(spec, m)


def special_primes(spec, lo, hi, workers=1):
    """Ascending primes in the carrier sequence, within [lo, hi).

    Runs in one process: workers is kept for callers that pass 1, and
    any other value raises InvalidQuery.
    """
    if workers != 1:
        raise InvalidQuery(
            f"special_primes runs in one process, got workers={workers}; "
            f"find_first_string, scan_all_strings and residue_census take "
            f"workers")
    primes = sieve_range(lo, hi)
    if spec.kind == "all":
        return primes
    return np.compress(_mask(spec, primes), primes)


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


def _fits(x, d):
    """x d[i] / d[i - 1] for i = 1, 2, 3; nan where d[i - 1] is 0."""
    return tuple(x * d[i] / d[i - 1] if d[i - 1] else math.nan
                 for i in (1, 2, 3))


def _log_growth_trend(samples):
    """True when log g / (loglog * llll / lll) decreases over the points
    where g and the iterated logs log x, ..., llll x are all positive."""
    ratios = []
    for s in samples:
        logs = [math.log(s["x"])]
        while logs[-1] > 0 and len(logs) < 4:
            logs.append(math.log(logs[-1]))
        if logs[-1] > 0 and s["g"] > 0:
            _, LL, LLL, LLLL = logs
            ratios.append(math.log(s["g"]) / (LL * LLLL / LLL))
    return len(ratios) > 1 and all(b < a for a, b in zip(ratios, ratios[1:]))


def validate_g(g, grid):
    """Fit growth exponents and evaluate the class conditions numerically.

    Requires at least 5 grid points spanning at least 3 decades. The
    derivative ratios are evaluated pointwise; headline estimates come
    from the largest grid point. The flags compare them with a margin of
    _FLAG_TOL = 0.05, which the report records as its tolerance.
    """
    grid = sorted(float(x) for x in grid)
    if len(grid) < 5:
        raise GridTooSmall(f"need >= 5 grid points, got {len(grid)}")
    if grid[0] <= 0 or grid[-1] / grid[0] < 1000.0:
        raise GridTooSmall("grid must span at least 3 decades")
    samples = []
    for x in grid:
        d, f = g.derivs(x), g.f_derivs(x)
        a_g = tuple(a + i for i, a in enumerate(_fits(x, d), 1))
        samples.append({"x": x, "alpha_g": a_g, "alpha_f": _fits(x, f),
                        "g": d[0], "dg": d[1], "second_order": f[2]})
    a1, a2, a3 = samples[-1]["alpha_g"]
    tol = _FLAG_TOL
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
        "log_growth": _log_growth_trend(samples),
    }
    return AlphaReport(grid=tuple(grid),
                       alpha_g=samples[-1]["alpha_g"],
                       alpha_f=samples[-1]["alpha_f"],
                       samples=samples, flags=flags, tolerance=tol)
