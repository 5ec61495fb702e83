"""
Beatty primes and strings of congruent ones
===========================================

A Beatty sequence is the integer part of n*alpha for n = 1, 2, 3, ...
For irrational alpha > 1 no value repeats, and some of the values are
prime.  This walkthrough lists the first few primes in B_pi, then asks
the search engine for runs of *consecutive* B_pi primes that all land
in the same residue class.
"""

from primestrings import (StringQuery, beatty_member, enumerate_special,
                          find_first_string, hit_record, named_constant,
                          special_primes, verify_hit, SpecialSetSpec)

pi = named_constant("pi")
b_pi = SpecialSetSpec.beatty(pi)

# the sequence starts 3, 6, 9, 12, 15, 18, 21, 25, ...
print("first Beatty values: ", [int(v) for v in enumerate_special(b_pi, 1, 30)])

# membership is decided exactly -- no floating point anywhere
print("100 = floor(32*pi) in B_pi?", beatty_member(pi, 100))
print("99 in B_pi?               ", beatty_member(pi, 99))

# the primes among them below 100
print("B_pi primes below 100:", [int(p) for p in special_primes(b_pi, 1, 100)])

# Now the search: six consecutive B_pi primes, all congruent to
# 5 mod 7.  "Consecutive" means adjacent in the ordering of B_pi
# primes themselves -- no qualifying prime may be skipped in between.
query = StringQuery(spec=b_pi, k=6, q=7, a=5, limit=30_000_000)
hit = find_first_string(query)
print()
print("first 6-string of B_pi primes = 5 (mod 7):")
for p in hit.primes:
    print(f"   {p}  ({p} mod 7 = {p % 7})")
print("starts at set-prime ordinal", hit.start_index)

# every reported hit can be re-checked independently of the scanner
verify_hit(query, hit, check_index=True)
print("re-verified: primality, membership, congruence, adjacency")

print()
print("record:", hit_record(query, hit))
