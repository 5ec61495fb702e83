"""Maier-matrix constructions over special residue classes.

The matrix has entries r*Q + i with rows r = 1..R and columns i from an
interval I of length y*z. Q is q times a product of primes P_a chosen
by the residue case of a mod q, so columns carry fixed residues mod q
and coprimality to Q is a column property. S columns are coprime and
= a (mod q); T columns are coprime with other residues. Row scans count
"good" primes (= a mod q) against "bad" ones and track the longest good
run per row.

All Q-sized arithmetic is exact big-int; only column indices (bounded
by y*z) go through numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import euler_phi, prime_factors, crt_pair
from .errors import (EmptyProductWarning, IntervalTooLarge, InvalidQuery,
                     ParameterDomain)
from .sieve import (_strike, is_prime, primality_is_deterministic,
                    sieve_range)
from .special import member, SpecialSetSpec

E_POW_E = math.exp(math.e)              # ~15.154, threshold for t
X_FLOOR = math.exp(math.exp(math.e))    # loglog X must exceed e
MAX_INTERVAL = 10 ** 8
_PRESIEVE_B = 1 << 16                   # row presieve: primes up to this

PHI_NOTE = ("k-bound exponents are evaluated with phi(q); the asymptotic "
            "statement they mirror uses phi(Q), which is far larger")


# ---------------------------------------------------------------------------
# carrier density


D = 2.0                                 # remainder quality D(X), every set


def carrier_F(spec, X):
    """F(X) = X / (E(X) log X): how much sparser the set's carrier is
    than the primes (F is 1 for the full primes).

    The carrier density is E(X) = f^{-1}(X) / log X for a floor product
    f(x) = x g(x) and E(X) = X / log X for every other set.
    """
    E = spec.g.inverse(X) / math.log(X) if spec.kind == "floorprod" \
        else X / math.log(X)
    if E <= 0:
        raise ParameterDomain(f"E({X}) = {E} must be positive")
    return X / (E * math.log(X))


# ---------------------------------------------------------------------------
# residue classification and parameters


def classify_residue(a, q):
    """Residue case of a mod q: A_plus, A_minus, both, or other.

    a is in A_plus when a = 1 mod every prime dividing q, in A_minus
    when a = -1 mod every such prime; prime powers of 2 make the two
    coincide.
    """
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise InvalidQuery(f"need gcd(a, q) = 1, got gcd({a}, {q})")
    ps = prime_factors(q) if q > 1 else []
    plus = all(a % p == 1 % p for p in ps)
    minus = all(a % p == (p - 1) % p for p in ps)
    if plus and minus:
        return "both"
    if plus:
        return "A_plus"
    if minus:
        return "A_minus"
    return "other"


@dataclass(frozen=True)
class ChosenParams:
    y: int
    p0: int
    t: Optional[float]
    z: int


def _smallest_prime_above(x, avoid_divisor_of):
    n = max(2, math.floor(x) + 1)
    while True:
        if is_prime(n) and avoid_divisor_of % n != 0:
            return n
        n += 1


def choose_parameters(X, q, spec, y_override=None):
    """Derive (y, p0, t, z) for a construction over spec at scale X.

    z = ceil(max(F(X)^3, D^3)) with F = carrier_F; y defaults to
    ceil(log X / D);
    t = exp(log y * logloglog y / (4 loglog y)), undefined (None) when
    y <= e^e; p0 is the smallest prime above log y not dividing q.
    """
    if X <= X_FLOOR:
        raise ParameterDomain(
            f"X must exceed e^(e^e) ~ {X_FLOOR:.0f} so loglog X > e")
    if y_override is not None and y_override < 7:
        raise ParameterDomain(f"y override must be >= 7, got {y_override}")
    z = max(1, math.ceil(max(carrier_F(spec, X) ** 3, D ** 3)))
    y = int(y_override) if y_override is not None else \
        math.ceil(math.log(X) / D)
    if y > E_POW_E:
        ly = math.log(y)
        t = math.exp(0.25 * ly * math.log(math.log(ly)) / math.log(ly))
    else:
        t = None
    p0 = _smallest_prime_above(math.log(y), q)
    return ChosenParams(y=y, p0=p0, t=t, z=z)


# ---------------------------------------------------------------------------
# the product Q and the column interval


@dataclass(frozen=True)
class QProduct:
    Q: int
    P_a: tuple
    case: str


def build_Q(q, a, y, p0, t=None, yz_over_t=None):
    """Assemble the prime support P_a and the modulus Q = q * prod(P_a).

    A_plus/A_minus (and both): P_a holds primes p <= y with p not
    dividing q, p != p0, p != 1 mod q. Otherwise three prime blocks are
    joined: p <= y with p != 1, a; t <= p <= y with p = 1; and
    p <= y*z/t with p = a, again excluding p0 and divisors of q; t and
    yz_over_t are read only in that case.
    """
    cls = classify_residue(a, q)
    if y < 2:
        raise ParameterDomain(f"y must be >= 2, got {y}")
    if not is_prime(p0) or q % p0 == 0:
        raise ParameterDomain(f"p0 = {p0} must be a prime not dividing q")
    a_mod = a % q
    small = [int(p) for p in sieve_range(0, y + 1)]
    if cls != "other":
        pa = [p for p in small if p % q != 1 % q]
    else:
        if t is None:
            raise ParameterDomain("non-A± case needs t (y too small?)")
        if yz_over_t is None:
            raise ParameterDomain("non-A± case needs yz/t")
        if t > yz_over_t:
            raise ParameterDomain(
                f"need t <= sqrt(y z): t = {t}, yz/t = {yz_over_t}")
        pa = [p for p in small if p % q not in (1 % q, a_mod)]
        pa += [p for p in small if p >= t and p % q == 1 % q]
        wide = [int(p) for p in sieve_range(0, math.floor(yz_over_t) + 1)]
        pa += [p for p in wide if p % q == a_mod]
    pa = sorted({p for p in pa if p != p0 and q % p != 0})
    if not pa:
        warnings.warn(f"P_a is empty for a={a}, q={q}, y={y}; Q = q",
                      EmptyProductWarning)
    Q = q
    for p in pa:
        Q *= p
    tag = "A_plus" if cls == "both" else cls
    return QProduct(Q=Q, P_a=tuple(pa), case=tag)


@dataclass(frozen=True)
class MaierConfig:
    q: int
    a: int
    y: int
    p0: int
    t: Optional[float]
    z: int
    Q: int
    case_tag: str
    P_a: tuple


def make_config(q, a, y, p0, t, z, product: QProduct):
    return MaierConfig(q=q, a=a, y=y, p0=p0, t=t, z=z,
                       Q=product.Q, case_tag=product.case,
                       P_a=product.P_a)


def crt_anchor(config, sign):
    """Smallest positive x with x = 0 mod rad(Q/q) and x = a-+1 mod q.

    sign "plus" targets a-1 (anchoring m with m+1 = a mod q after the
    coprime shift), "minus" targets a+1.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be plus or minus, got {sign!r}")
    R = config.Q // config.q
    residue = (config.a - 1) % config.q if sign == "plus" else \
        (config.a + 1) % config.q
    x = crt_pair(0, R, residue, config.q)
    return x if x > 0 else R * config.q


def anchored_interval(config, yz):
    """The CRT anchors and the column interval I as (start, length).

    A_plus: {m+1 .. m+yz}; A_minus: {n-yz+1 .. n}, with n lifted by
    multiples of Q until the start is positive; other: {1 .. yz}.
    """
    if yz < 1:
        raise InvalidQuery(f"yz must be >= 1, got {yz}")
    if yz > MAX_INTERVAL:
        raise IntervalTooLarge(f"yz = {yz} > {MAX_INTERVAL}")
    anchors = {"plus": crt_anchor(config, "plus"),
               "minus": crt_anchor(config, "minus")}
    if config.case_tag == "A_plus":
        return anchors, (anchors["plus"] + 1, yz)
    if config.case_tag == "A_minus":
        n = anchors["minus"]
        if n < yz:
            n += -(-(yz - n) // config.Q) * config.Q
            anchors["minus"] = n
        return anchors, (n - yz + 1, yz)
    return anchors, (1, yz)


# ---------------------------------------------------------------------------
# column sets and row sampling


@dataclass(frozen=True)
class STCount:
    S: int
    T: int
    S_members: tuple


def _coprime_mask(config, start, length):
    """Coprimality to Q over the interval, via the prime support of Q."""
    if length > MAX_INTERVAL:
        raise IntervalTooLarge(f"interval length {length} > {MAX_INTERVAL}")
    support = sorted(set(prime_factors(config.q)) | set(config.P_a)) \
        if config.q > 1 else sorted(config.P_a)
    shared = np.zeros(length, dtype=bool)
    first = np.array([(-start) % p for p in support], dtype=np.int64)
    _strike(shared, first, np.array(support, dtype=np.int64))
    return ~shared


def _s_columns(config, start, mask):
    """Indices of the coprime columns = a (mod q): the set S."""
    good = np.arange((config.a - start) % config.q, mask.size, config.q)
    return good[mask[good]]


def count_S_T(config, interval):
    """Split coprime columns into S (= a mod q) and T (the rest)."""
    start, length = interval
    mask = _coprime_mask(config, start, length)
    s_idx = _s_columns(config, start, mask)
    return STCount(S=int(s_idx.size), T=int(mask.sum()) - int(s_idx.size),
                   S_members=tuple(start + int(j) for j in s_idx))


@dataclass
class MaierCensus:
    """Sampled row statistics of the Maier matrix."""

    S_count: int
    T_count: int
    rows_sampled: int
    per_row: list            # (r, good, bad, longest_good_run)
    good_total: int
    bad_total: int
    rows_with_bad: int
    max_good_run: int
    deterministic: bool      # primality testing stayed below 2^64


def _presieve_primes(Q, start):
    """Primes p <= _PRESIEVE_B not dividing Q, with Q and start mod p."""
    ps = [p for p in sieve_range(0, _PRESIEVE_B + 1).tolist() if Q % p]
    return (np.array(ps, dtype=np.int64),
            np.array([Q % p for p in ps], dtype=np.int64),
            np.array([start % p for p in ps], dtype=np.int64))


def sample_rows_census(config, interval, rows, spec=None):
    """Scan rows r = 1..rows of the matrix for good and bad primes.

    A prime at column i is good when i = a (mod q). Only columns
    coprime to Q can contribute primes beyond Q's own support, so the
    scan walks those columns. Every entry r*Q + i keeps its column's
    residue i mod q, which holds for all rows exactly when q divides Q.

    Before any primality test, each row is presieved by the primes
    p <= _PRESIEVE_B = 2^16 that do not divide Q: an entry c with
    p | c is composite unless c = p. Each p strikes every p-th column
    from the first one it divides, through sieve._strike, the kernel
    of the segment sieve; that start moves up by p when the entry
    there is p itself (entries fall below the bound when Q is small).
    Only the unstruck coprime entries reach is_prime and the set filter.
    """
    if rows < 1:
        raise InvalidQuery(f"rows must be >= 1, got {rows}")
    if config.Q % config.q != 0:
        raise ParameterDomain(
            f"Q = {config.Q} is not a multiple of q = {config.q}, so rows "
            f"do not keep the column residues mod q")
    start, length = interval
    mask = _coprime_mask(config, start, length)
    q, a, Q = config.q, config.a, config.Q
    ps, q_mod, res = _presieve_primes(Q, start)
    per_row = []
    good_total = bad_total = 0
    rows_with_bad = 0
    max_run = 0
    deterministic = primality_is_deterministic(rows * Q + start + length)
    for r in range(1, rows + 1):
        base = r * Q + start
        res = (res + q_mod) % ps                    # base mod p
        first = (ps - res) % ps                     # first column p divides
        if base <= _PRESIEVE_B:
            keep = base + first == ps               # the entry c = p
            first[keep] += ps[keep]
        struck = np.zeros(length, dtype=bool)
        _strike(struck, first, ps)
        good = bad = 0
        run = best = 0
        for j in np.flatnonzero(mask & ~struck).tolist():
            c = base + j
            if not is_prime(c):
                continue
            if spec is not None and spec.kind != "all" \
                    and not member(spec, c):
                continue
            if c % q == a % q:
                good += 1
                run += 1
                best = max(best, run)
            else:
                bad += 1
                run = 0
        per_row.append((r, good, bad, best))
        good_total += good
        bad_total += bad
        rows_with_bad += 1 if bad else 0
        max_run = max(max_run, best)
    s_count = int(_s_columns(config, start, mask).size)
    return MaierCensus(S_count=s_count, T_count=int(mask.sum()) - s_count,
                       rows_sampled=rows,
                       per_row=per_row, good_total=good_total,
                       bad_total=bad_total, rows_with_bad=rows_with_bad,
                       max_good_run=max_run, deterministic=deterministic)


# ---------------------------------------------------------------------------
# counting functions and bound evaluation


def _count_products(ps, bound, return_members):
    """Count n <= bound whose prime factors all lie in ps; 1 counts.

    ps is ascending. Exact enumeration over nondecreasing
    factorizations; with return_members the sorted n are returned.
    """
    if bound < 1:
        return [] if return_members else 0
    members = [] if return_members else None
    count = 0

    def rec(idx, value, budget):
        nonlocal count
        count += 1
        if members is not None:
            members.append(value)
        for j in range(idx, len(ps)):
            p = ps[j]
            if p > budget:
                break
            rec(j, value * p, budget // p)

    rec(0, 1, int(bound))
    if return_members:
        members.sort()
        return members
    return count


def count_S_q(q, z, return_members=False):
    """Count n <= z whose prime factors are all = 1 (mod q); 1 counts."""
    if q < 1:
        raise InvalidQuery(f"q must be >= 1, got {q}")
    ps = [int(p) for p in sieve_range(0, max(1, int(z) + 1))
          if p % q == 1 % q]
    return _count_products(ps, z, return_members)


def count_psi(x, t, return_members=False):
    """Psi(x, t): count n <= x with every prime factor strictly below t."""
    ps = [int(p) for p in sieve_range(0, max(2, math.ceil(t))) if p < t]
    return _count_products(ps, x, return_members)


def estimate_string_bound(x_scales, d_value, f_value, q, case):
    """Evaluate the guaranteed-string-length exponent at scale X.

    x_scales = (loglog X, logloglog X, loglogloglog X). The A± cases
    use (loglog X / log max(D, F))^(1/phi(q)); other residues carry the
    extra logloglog factors. See PHI_NOTE for the phi(q) caveat.
    """
    loglog_x, logloglog_x, loglogloglog_x = x_scales
    m = max(d_value, f_value)
    if m <= 1:
        raise ParameterDomain(f"max(D, F) = {m} must exceed 1")
    denom = math.log(m)
    if case in ("A_plus", "A_minus", "both"):
        base = loglog_x / denom
    else:
        if logloglog_x <= 0 or loglogloglog_x <= 0:
            raise ParameterDomain("iterated logs of X must be positive")
        base = loglog_x * loglogloglog_x / (logloglog_x * denom)
    if base <= 0:
        raise ParameterDomain(f"bound base {base} must be positive")
    return base ** (1.0 / euler_phi(q))


def case1_proxy(log_y_t, log_z, q):
    """Pigeonhole run-length proxy (log(y,t) / log z)^(1/phi(q))."""
    if log_y_t <= 0 or log_z <= 0:
        raise ParameterDomain("log(y,t) and log z must be positive")
    return (log_y_t / log_z) ** (1.0 / euler_phi(q))


def log_y_t(config):
    """log y for A± residues, log t otherwise."""
    if config.case_tag in ("A_plus", "A_minus"):
        return math.log(config.y)
    if config.t is None:
        raise ParameterDomain("non-A± case needs t")
    return math.log(config.t)


def bound_report(config, X, spec):
    """All bound evaluations for a config over spec at scale X, JSON-ready."""
    ll = math.log(math.log(X))
    lll = math.log(ll)
    llll = math.log(lll)
    f_value = carrier_F(spec, X)
    scales = (ll, lll, llll)
    report = {
        "loglog_X": ll,
        "phi_q": euler_phi(config.q),
        "case": config.case_tag,
        "bound_A_pm": estimate_string_bound(scales, D, f_value, config.q,
                                            "A_plus"),
        "bound_other": estimate_string_bound(scales, D, f_value, config.q,
                                             "other"),
        "phi_note": PHI_NOTE,
    }
    report["bound"] = report["bound_A_pm"] \
        if config.case_tag in ("A_plus", "A_minus") else \
        report["bound_other"]
    try:
        report["case1_proxy"] = case1_proxy(
            log_y_t(config), math.log(config.z), config.q)
    except (ParameterDomain, ValueError):
        report["case1_proxy"] = None
    return report


# ---------------------------------------------------------------------------
# end-to-end construction


def run_construction(q, a, y=None, p0=None, yz=None, rows=1000, spec=None,
                     X=10.0 ** 8):
    """Assemble a full construction: parameters, Q, interval, row census.

    Explicit y/p0/yz win over the chosen defaults. The carrier density
    in z and the bounds follows the set (carrier_F): floor products
    use f^{-1}(X) / log X, all other sets X / log X. Returns (config,
    interval, census, bounds).
    """
    spec = spec or SpecialSetSpec.all_primes()
    chosen = choose_parameters(X, q, spec, y_override=y)
    y = chosen.y
    p0 = p0 if p0 is not None else chosen.p0
    t = chosen.t
    z = chosen.z if yz is None else max(1, -(-yz // y))
    yz = yz if yz is not None else y * z
    if classify_residue(a, q) == "other" and t is None:
        raise ParameterDomain(
            f"a = {a} is not an A± residue mod {q}, so t is needed and y "
            f"must exceed e^e ~ {E_POW_E:.2f}; got y = {y}, use "
            f"--y {math.floor(E_POW_E) + 1} or more")
    product = build_Q(q, a, y, p0, t=t, yz_over_t=yz / t if t else None)
    config = make_config(q, a, y, p0, t, z, product)
    anchors, interval = anchored_interval(config, yz)
    census = sample_rows_census(config, interval, rows, spec=spec)
    bounds = bound_report(config, X, spec)
    bounds["anchors"] = {k: str(v) for k, v in anchors.items()}
    return config, interval, census, bounds


def census_json(config, interval, census, bounds=None):
    """JSON-ready dict for a construction census (Q as decimal string)."""
    start, length = interval
    doc = {
        "q": config.q,
        "a": config.a,
        "y": config.y,
        "p0": config.p0,
        "t": config.t,
        "z": config.z,
        "Q": str(config.Q),
        "case": config.case_tag,
        "interval_start": str(start),
        "interval_length": length,
        "S": census.S_count,
        "T": census.T_count,
        "rows": census.rows_sampled,
        "good": census.good_total,
        "bad": census.bad_total,
        "rows_with_bad": census.rows_with_bad,
        "max_good_run": census.max_good_run,
        "per_row": [{"row": r, "good": g, "bad": b, "longest_good_run": l}
                    for r, g, b, l in census.per_row],
        "case_summary": {
            "case1_rows_with_bad": census.rows_with_bad,
            "case2_rows_without_bad":
                census.rows_sampled - census.rows_with_bad,
            "case2_good_in_clean_rows":
                sum(g for _, g, b, _ in census.per_row if b == 0),
            "max_good_run": census.max_good_run,
        },
        "exceptionality": "unverified",
        "primality": "deterministic" if census.deterministic
                     else "probabilistic",
    }
    if bounds is not None:
        doc["bounds"] = bounds
    return doc
