"""Exception types shared across the package.

Every error raised on a documented contract path derives from
PrimestringsError so the CLI can map library failures to exit code 4
without enumerating modules.
"""


class PrimestringsError(Exception):
    pass


class InvalidRange(PrimestringsError):
    """lo/hi bounds are malformed (lo > hi, negative, ...)."""


class RangeTooLarge(PrimestringsError):
    """Requested scan exceeds the configured maximum."""


class InvalidModulus(PrimestringsError):
    """q < 1 where a positive modulus is required."""


class InvalidQuery(PrimestringsError):
    """String query is malformed (gcd(a, q) != 1, k < 1, ...)."""


class PrecisionExhausted(PrimestringsError):
    """A floor/membership decision stayed ambiguous at max precision."""


class DomainError(PrimestringsError):
    """A function evaluation left its domain of definition."""


class DerivativeUnavailable(PrimestringsError):
    """Custom g-family queried for a derivative it does not carry."""


class GridTooSmall(PrimestringsError):
    """validate_g sample grid has too few points or too little span."""


class ParameterDomain(PrimestringsError):
    """Maier parameter outside its domain (e.g. t needs y > e^e)."""


class IntervalTooLarge(PrimestringsError):
    """Row interval exceeds the configured maximum."""


class RangeExceeded(PrimestringsError):
    """Candidate magnitude beyond the primality test range."""


class EmptyProductWarning(UserWarning):
    """P_a came out empty; Q degenerates to q."""
