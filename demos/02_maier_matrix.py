"""
A Maier matrix small enough to print
====================================

Take Q = 2*3*5 = 30 and lay out the numbers rQ + i for rows r and
column offsets i in 1..30.  Every column is an arithmetic progression
mod Q, so the residue of a column never changes as you walk down it.
Columns whose offset is coprime to Q and congruent to a mod q are the
"good" columns (S); the other coprime columns are "bad" (T).  Primes
can only show up in coprime columns, and a prime in a good column is a
prime = a (mod q).
"""

from primestrings import (SpecialSetSpec, anchored_interval, bound_report,
                          build_Q, census_json, count_S_T, is_prime,
                          make_config, sample_rows_census)

q, a = 5, 4                      # looking for primes = 4 (mod 5)
product = build_Q(q, a, y=4, p0=7)
print("Q =", product.Q, " prime support:", product.P_a, "+ q =", q)

config = make_config(q, a, 4, 7, None, 8, product)
anchors, interval = anchored_interval(config, 30)
print("interval I =", f"{interval[0]}..{interval[0] + interval[1] - 1}")

st = count_S_T(config, interval)
print("good offsets S =", st.S_members, " |S| =", st.S, " |T| =", st.T)

# print a few rows of the matrix, marking primes and their class
print()
for r in range(1, 4):
    cells = []
    for i in range(interval[0], interval[0] + interval[1]):
        n = r * product.Q + i
        if is_prime(n):
            tag = "G" if n % q == a else "b"
            cells.append(f"{n}{tag}")
    print(f"row {r}:  " + "  ".join(cells))
print("(G = good: congruent to", a, "mod", q, "; b = bad)")

census = sample_rows_census(config, interval, rows=25)
print()
print("over 25 rows: good =", census.good_total, " bad =", census.bad_total,
      " longest good run in a row =", census.max_good_run)

# the whole construction, serialized (numbers as decimal strings so
# nothing is lost when Q outgrows doubles)
doc = census_json(config, interval, census,
                  bounds=bound_report(config, 10 ** 8,
                                      SpecialSetSpec.all_primes()))
print("census keys:", ", ".join(sorted(doc)))
print("string-length bound at X=1e8:", doc["bounds"]["bound"])
