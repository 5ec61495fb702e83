"""Strings of congruent primes in special integer sequences.

Library layout:

- sieve: segmented prime sieve, primality
- fixedpoint: directed fixed-point arithmetic for irrational constants
- special: Beatty and floor-product sequences, class-condition evidence
- search: segmented scans for strings and residue counts of set-primes
- maier: Maier-matrix constructions, counting functions, bound evaluation
- cli: command line front end
"""

__version__ = "0.1.0"

from .errors import (DomainError, EmptyProductWarning, GridTooSmall,
                     IntervalTooLarge, InvalidModulus, InvalidQuery,
                     InvalidRange, ParameterDomain, PrecisionExhausted,
                     PrimestringsError, RangeExceeded, RangeTooLarge)
from .fixedpoint import IrrationalConstant, named_constant
from .sieve import is_prime, sieve_range
from .special import (AlphaReport, GFamily, SpecialSetSpec, beatty_member,
                      enumerate_special, member, special_primes, validate_g)
from .search import (NotFound, SetCensus, StringHit, StringQuery,
                     count_primes_ap, find_first_string, hit_record,
                     residue_census, scan_all_strings, verify_hit)
from .maier import (ChosenParams, MaierCensus, MaierConfig, QProduct,
                    STCount, anchored_interval, bound_report, build_Q,
                    carrier_F, case1_proxy, census_json, choose_parameters,
                    classify_residue, count_S_T, count_S_q, count_psi,
                    crt_anchor, estimate_string_bound, log_y_t, make_config,
                    run_construction, sample_rows_census)

__all__ = [n for n in dir() if not n.startswith("_")]
