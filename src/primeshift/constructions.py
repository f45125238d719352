"""Constructive procedures: amicable 2-cycles and ascending prime chains."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import big_B
from .errors import ConsistencyError, DomainError, RangeOverflowError
from .sieve import SHARED_LIMIT, WORD_MAX, covering, factorize, is_prime, prime_below


@dataclass(frozen=True)
class AmicablePair:
    """A 2-cycle (p, n) under B_a: p prime, n composite, a = n - p."""

    p: int
    n: int
    a: int


@dataclass(frozen=True)
class ChainWitness:
    """A strictly ascending orbit segment n < B_a(n) < ... < B_a^k(n)."""

    n: int
    a: int
    k: int
    chain: tuple[int, ...]


def build_amicable(p: int) -> AmicablePair:
    """Produce the 2-cycle through p: a composite n with B(n) = p.

    Let q be the largest prime below p and d = p - q.  The pair uses
    n = q * a'**b with a' the largest prime divisor of d and b = d / a', so
    n = q*d when d is prime.  This is not always the smallest composite
    preimage of p: for 91 of the 166 primes 5 <= p <= 10^3 a smaller one
    exists.
    """
    table = covering(SHARED_LIMIT)
    if p <= 3 or not is_prime(p, table):
        raise DomainError(f"--p must be a prime > 3, got {p}")
    q = prime_below(p, table)
    d = p - q
    aprime = factorize(d, table)[-1][0]
    b = d // aprime
    n = q
    for _ in range(b):
        n *= aprime
        if n > WORD_MAX:
            raise RangeOverflowError(f"{q}*{aprime}^{b} exceeds the 64-bit range")
    if is_prime(n, table):
        raise ConsistencyError(f"constructed n={n} is prime")
    if big_B(n, table) != p:
        raise ConsistencyError(f"constructed n={n} has B(n) != {p}")
    return AmicablePair(p, n, n - p)


def find_ascending_chain(k: int, search_bound: int) -> ChainWitness | None:
    """Search for primes p, p+a, ..., p+ka (all prime), p and a <= search_bound.

    Such a progression climbs under B_a: each prime term maps to the next.
    Returns the witness with the smallest p, ties broken by smallest a, or
    None when no witness exists below the bound.  Only odd starting primes
    are considered; an even start cannot extend past one step.

    For every prime s <= k, s must divide a (otherwise some term in the
    first s steps is divisible by s), so the search strides by the product
    of those primes, which prunes large k to almost nothing.  The product
    is built in ascending order and the search gives up as soon as it
    passes the bound, so large k costs a few primality tests.
    """
    if k < 1:
        raise DomainError(f"--k must be >= 1, got {k}")
    table = covering(SHARED_LIMIT)
    stride = 1
    small = []
    for s in range(2, k + 1):
        if is_prime(s, table):
            stride *= s
            if stride > search_bound:
                return None
            small.append(s)
    p = 3
    while p <= search_bound:
        if is_prime(p, table) and p not in small:
            for a in range(stride, search_bound + 1, stride):
                chain = [p]
                v = p
                ok = True
                for _ in range(k):
                    v += a
                    if not is_prime(v, table):
                        ok = False
                        break
                    chain.append(v)
                if ok:
                    return ChainWitness(p, a, k, tuple(chain))
        p += 2
    return None
