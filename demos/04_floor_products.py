"""
Floor-product sets and the slow-growth diagnostics
==================================================

Beyond Beatty sequences, the package enumerates sets floor(n * g(n))
for slowly growing g.  Two families are built in:
g(x) = (log log x)^B (GFamily.loglog) and g(x) = (log x)^B
(GFamily.log_pow).  This demo uses GFamily.loglog(1.0), so its set is
floor(n log log n), the paper's example of a set of density zero.
Floors are exact below 2^48: each span of values takes one 50-digit
anchor f(n0) and float rises f(n) - f(n0) built from log1p and expm1,
and only a floor whose float lies within the rises' proved error bound
of an integer is recomputed at 50 digits, so a window near 1e13 costs
little more than one near 1e7.

validate_g fits local power-law exponents ("alpha hats") to g on a
grid and reports a panel of evidence flags.  It never *asserts* that g
belongs to the admissible class -- several conditions are asymptotic
and no finite grid can prove them -- it only reports what the grid
shows.
"""

from primestrings import (GFamily, SpecialSetSpec, enumerate_special,
                          special_primes, validate_g)
from primestrings.special import floorprod_member

g = GFamily.loglog(1.0)
spec = SpecialSetSpec.floor_product(g)

print("g starts being usable at n =", g.default_start_n())
print("first floor-product values:",
      [int(v) for v in enumerate_special(spec, 1, 40)])
print("152 in the set?", floorprod_member(spec, 152))
print("its primes in [1e13, 1e13 + 300):",
      [int(p) for p in special_primes(spec, 10 ** 13, 10 ** 13 + 300)])

# generous grid: five points over many decades
report = validate_g(g, [1650.0, 1.65e4, 1.2e5, 1e6, 2e6])
print()
print("alpha-hat fits at the grid top (g-relative):", report.alpha_g)
print("fits at x = 1e6:", report.samples[3]["alpha_g"])
print()
print("evidence flags at tolerance", report.tolerance)
for name, value in report.flags.items():
    print(f"   {name:<34s} {value}")

# log_growth compares log g against (LL x)(LLLL x)/(LLL x), which with
# constant 1 only turns positive near x ~ 4e6; on a far grid it holds
wide = validate_g(g, [1e7, 1e9, 1e12, 1e16, 1e20])
print()
print("log_growth on a 1e7..1e20 grid:", wide.flags["log_growth"])
