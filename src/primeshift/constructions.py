"""Constructive procedures: amicable 2-cycles and ascending prime chains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import Shift, big_B, shifted_B
from .errors import ConsistencyError, DomainError, RangeOverflowError
from .sieve import WORD_MAX, SieveTable, factorize, is_prime
from .tables import ValueTable, build_value_table


@dataclass(frozen=True)
class AmicablePair:
    """A 2-cycle (p, n) under B_a: p prime, n composite, a = n - p."""

    p: int
    n: int
    shift: Shift


@dataclass(frozen=True)
class ChainWitness:
    """A strictly ascending orbit segment n < B_a(n) < ... < B_a^k(n)."""

    n: int
    shift: Shift
    k: int
    chain: tuple[int, ...]


def _previous_prime(p: int, table: SieveTable) -> int:
    q = p - 1
    while q >= 2:
        if is_prime(q, table):
            return q
        q -= 1
    raise DomainError(f"no prime below {p}")


def build_amicable(
    p: int, table: SieveTable, prime_divisor: int | None = None
) -> AmicablePair:
    """Produce the 2-cycle through p: a composite n with B(n) = p.

    Let q be the largest prime below p and d = p - q.  If d is prime the
    pair uses n = q*d; otherwise d = a'*b for a prime divisor a' of d and
    n = q * a'**b.  By default a' is the largest prime divisor of d.  This
    is not always the smallest composite preimage of p: for 91 of the 166
    primes 5 <= p <= 10^3 a smaller one exists.  A different prime divisor
    of d may be forced via prime_divisor for experimentation.
    """
    if p <= 3 or not is_prime(p, table):
        raise DomainError(f"p must be a prime > 3, got {p}")
    q = _previous_prime(p, table)
    d = p - q
    if is_prime(d, table) and prime_divisor is None:
        n = q * d
    else:
        divisors = [dp for dp, _ in factorize(d, table).factors]
        if prime_divisor is None:
            aprime = divisors[-1]
        else:
            if prime_divisor not in divisors:
                raise DomainError(f"{prime_divisor} does not divide {d}")
            aprime = prime_divisor
        b = d // aprime
        n = q
        for _ in range(b):
            n *= aprime
            if n > WORD_MAX:
                raise RangeOverflowError(
                    f"{q}*{aprime}^{b} exceeds the 64-bit range"
                )
    if is_prime(n, table):
        raise ConsistencyError(f"constructed n={n} is prime")
    if big_B(n, table) != p:
        raise ConsistencyError(f"constructed n={n} has B(n) != {p}")
    return AmicablePair(p, n, Shift(n - p))


def verify_amicable(pair: AmicablePair, table: SieveTable) -> bool:
    """Confirm the pair is a genuine 2-cycle under its shift."""
    return (
        shifted_B(pair.p, pair.shift, table) == pair.n
        and shifted_B(pair.n, pair.shift, table) == pair.p
    )


def min_composite_preimage(
    p: int,
    table: SieveTable,
    value_table: ValueTable | None = None,
) -> int:
    """Least composite n with B(n) = p, by direct scan of B-values.

    Independent of build_amicable; used as the oracle for its minimality
    claim.  Scans the whole sieve range, so it requires the answer to lie
    below table.limit.
    """
    if p < 5:
        raise DomainError(f"p must be >= 5, got {p}")
    vt = value_table if value_table is not None else build_value_table(table)
    hits = np.nonzero((vt.big_b == p) & ~vt.prime_mask)[0]
    hits = hits[hits >= 4]
    if hits.size == 0:
        raise DomainError(
            f"no composite preimage of {p} within sieve limit {table.limit}"
        )
    return int(hits[0])


def _primes_upto(k: int) -> list[int]:
    return [s for s in range(2, k + 1) if is_prime(s)]


def validate_chain(witness: ChainWitness, table: SieveTable) -> bool:
    """Recompute each step; all terms but the last must be prime to climb."""
    c = witness.chain
    if len(c) != witness.k + 1 or c[0] != witness.n:
        return False
    for i in range(witness.k):
        if not is_prime(c[i], table):
            return False
        if shifted_B(c[i], witness.shift, table) != c[i + 1]:
            return False
        if c[i + 1] <= c[i]:
            return False
    return True


def find_ascending_chain(
    k: int, search_bound: int, table: SieveTable
) -> ChainWitness | None:
    """Search for primes p, p+a, ..., p+ka (all prime), p and a <= search_bound.

    Such a progression climbs under B_a: each prime term maps to the next.
    Returns the witness with the smallest p, ties broken by smallest a, or
    None when no witness exists below the bound.  Only odd starting primes
    are considered; an even start cannot extend past one step.

    For every prime s <= k, s must divide a (otherwise some term in the
    first s steps is divisible by s), so the search strides by the product
    of those primes, which prunes large k to almost nothing.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    stride = 1
    small = _primes_upto(k)
    for s in small:
        stride *= s
    if stride > search_bound:
        return None
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
                    return ChainWitness(p, Shift(a), k, tuple(chain))
        p += 2
    return None
