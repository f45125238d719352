"""The additive function B and the shifted map B_a.

B(n) sums the prime divisors of n with multiplicity, beta(n) the distinct
ones; tables.py streams B in bulk, stats.py reads B - beta off the prime
powers, and the package never builds beta.  The shifted variant B_a
agrees with B on composites but sends a prime p to p + a.
"""

from __future__ import annotations

from .errors import DomainError, RangeOverflowError
from .sieve import WORD_MAX, SieveTable, factorize, is_prime, prime_below


def check_shift(a: int) -> int:
    """The shift a >= 0 applied at primes, as an int; a = 0 is the unshifted case."""
    a = int(a)
    if a < 0:
        raise DomainError(f"--a must be >= 0, got {a}")
    return a


def prime_step(p: int, a: int) -> int:
    """B_a(p) = p + a for a prime p, or RangeOverflowError past 2^63 - 1."""
    if p + a > WORD_MAX:
        raise RangeOverflowError(f"{p} + {a} exceeds the 64-bit range")
    return p + a


def check_prime_steps(top: int, a: int) -> None:
    """RangeOverflowError when B_a carries the largest prime <= top past 2^63 - 1."""
    if top + a > WORD_MAX:
        prime_step(prime_below(top + 1), a)


def _check_domain(n: int, a: int, extend_domain: bool) -> None:
    """DomainError unless n >= 2, or n >= 0 under extend_domain (B(0) = 0, B(1) = 1)."""
    if extend_domain and n < 0:
        raise DomainError(f"--n must be >= 0 under a={a} with --extend-domain, got {n}")
    if not extend_domain and n < 2:
        raise DomainError(f"--n must be >= 2 under a={a}, got {n}; pass --extend-domain for 0 and 1")


def big_B(n: int, table: SieveTable) -> int:
    """Sum of prime divisors of n >= 2 with multiplicity."""
    return sum(p * r for p, r in factorize(n, table))


def shifted_B(n: int, a: int, table: SieveTable) -> int:
    """B_a(n) for n >= 2: n + a when n is prime, otherwise B(n).  The bare
    map: callers check n and a once (see dynamics.iterate_orbit), not per step."""
    if is_prime(n, table):
        return prime_step(n, a)
    return big_B(n, table)
