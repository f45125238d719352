"""Bulk value tables: vectorized B, beta and the orbit step map.

The census and partial-sum modules never call the scalar functions in a
loop; they work off flat numpy arrays built here in one ascending pass
over the sieve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import Shift, as_shift
from .errors import DomainError
from .sieve import SieveTable


@dataclass(frozen=True)
class ValueTable:
    """Flat arrays over [0, limit]: big_b[n] = B(n), beta[n] = beta(n).

    Entries at n = 0, 1 are 0 and are never consulted by census code.
    prime_mask[n] is True exactly at primes.
    """

    limit: int
    big_b: np.ndarray
    beta: np.ndarray
    prime_mask: np.ndarray

    def prime_count(self, x: int) -> int:
        """pi(x) for x <= limit."""
        return int(np.count_nonzero(self.prime_mask[: x + 1]))

    def check_x(self, x: int) -> None:
        """Raise DomainError unless 2 <= x <= limit, the range of n <= x sums."""
        if x < 2:
            raise DomainError(f"x must be >= 2, got x={x}")
        if x > self.limit:
            raise DomainError(f"x={x} exceeds table limit {self.limit}")


def build_value_table(table: SieveTable) -> ValueTable:
    """Fill B and beta over the whole sieve range in ascending blocks.

    With p = spf(n) and m = n // p, B(n) = p + B(m), and beta(n) =
    beta(m) + p unless p already divides m.  Since m <= n/2, every m in
    the block [lo, 2*lo) lies in an earlier block, so each block is a few
    vectorized gathers over values already computed.
    """
    limit = table.limit
    spf = table.spf
    big_b = np.zeros(limit + 1, dtype=np.int64)
    beta = np.zeros(limit + 1, dtype=np.int64)
    prime_mask = np.zeros(limit + 1, dtype=bool)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int64) // p
        big_b[lo:hi] = big_b[m] + p
        beta[lo:hi] = beta[m] + np.where(spf[m] == p, 0, p)
        prime_mask[lo:hi] = m == 1
        lo = hi
    for arr in (big_b, beta, prime_mask):
        arr.setflags(write=False)
    return ValueTable(limit, big_b, beta, prime_mask)


def step_map(vt: ValueTable, shift: Shift | int, dtype=np.int64) -> np.ndarray:
    """f[n] = B_a(n) for 2 <= n <= limit, as a writable array of dtype.

    f[0] = 0 and f[1] = 1 (self-loops, matching the domain extension).
    Entries at primes near the top of the table may exceed the limit;
    callers that index with f must patch those first.  A narrower dtype
    is the caller's promise that limit + a fits in it.
    """
    a = as_shift(shift).a
    f = vt.big_b.astype(dtype)
    primes = np.flatnonzero(vt.prime_mask)
    f[primes] = primes + a
    f[0] = 0
    f[1] = 1
    return f
