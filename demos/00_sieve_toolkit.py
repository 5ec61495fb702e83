# Segmented sieve, AP counts, and primality -- the substrate the rest
# of the package is built on.

from primestrings import count_primes_ap, is_prime, sieve_range
from primestrings.sieve import primality_is_deterministic

# windows never materialize more than one segment at a time
window = sieve_range(10 ** 12, 10 ** 12 + 200)
print("primes just past 1e12:", [int(p) for p in window])

# the same primes come out for any segment size
print("pi(1e6) =", len(sieve_range(0, 1_000_000)),
      "=", len(sieve_range(0, 1_000_000, segment_size=4_999)))

ap = count_primes_ap(100_000, 12)
print("primes <= 1e5 by class mod 12:", ap.counts)

# BPSW primality: exact through 64 bits, probabilistic above
for n in (2 ** 61 - 1, 2 ** 67 - 1, 2 ** 89 - 1):
    kind = "det." if primality_is_deterministic(n) else "prob."
    print(f"is_prime(2^{n.bit_length()} - 1) = {is_prime(n)!s:5s} ({kind})")
