"""Bulk value tables: vectorized B, beta and the orbit step map.

The census and partial-sum modules never call the scalar functions in a
loop; they work off flat numpy arrays built here in one ascending pass
over the sieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import Shift, as_shift
from .errors import DomainError
from .sieve import SieveTable, index_dtype

#: Entries per pass of the chunked loops, which bounds their temporaries.
CHUNK = 1 << 18


@dataclass(frozen=True)
class ValueTable:
    """Flat arrays over [0, limit]: big_b[n] = B(n), in the sieve's dtype.

    beta[n] = beta(n) is built from spf on first use and then kept; the
    census never reads it.  Entries at n = 0, 1 are 0 and are never
    consulted by census code.  prime_mask[n] is True exactly at primes.
    """

    limit: int
    spf: np.ndarray
    big_b: np.ndarray
    prime_mask: np.ndarray

    @cached_property
    def beta(self) -> np.ndarray:
        """beta(n) = beta(m) + p with p = spf(n) and m = n // p, unless p | m."""
        return _block_sum(self.spf, lambda p, m: np.where(self.spf[m] == p, 0, p))

    def check_x(self, x: int) -> None:
        """Raise DomainError unless 2 <= x <= limit, the range of n <= x sums."""
        if x < 2:
            raise DomainError(f"x must be >= 2, got x={x}")
        if x > self.limit:
            raise DomainError(f"x={x} exceeds table limit {self.limit}")


def _block_sum(spf, term):
    """out[n] = out[m] + term(p, m) with p = spf[n] and m = n // p, for n >= 2.

    Since m <= n/2, every m in a block [lo, hi) with hi <= 2*lo lies in an
    earlier block, so each block is a few vectorized gathers over values
    already computed.  Blocks stop doubling at CHUNK entries, which bounds
    the temporaries.
    """
    out = np.zeros(spf.size, dtype=spf.dtype)
    lo = 2
    while lo < spf.size:
        hi = min(2 * lo, lo + CHUNK, spf.size)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=spf.dtype) // p
        out[lo:hi] = out[m] + term(p, m)
        lo = hi
    out.setflags(write=False)
    return out


def build_value_table(table: SieveTable) -> ValueTable:
    """B(n) = p + B(m) with p = spf(n) and m = n // p, plus the prime mask.

    beta is built on demand, on first use of ValueTable.beta.
    """
    big_b = _block_sum(table.spf, lambda p, m: p)
    prime_mask = big_b == table.spf  # B(n) = spf(n) exactly at primes and 0, 1
    prime_mask[:2] = False
    prime_mask.setflags(write=False)
    return ValueTable(table.limit, table.spf, big_b, prime_mask)


def step_map(vt: ValueTable, shift: Shift | int) -> np.ndarray:
    """f[n] = B_a(n) for 2 <= n <= limit, as a writable array.

    f[0] = 0 and f[1] = 1 (self-loops, matching the domain extension).
    The dtype is index_dtype(limit + a): int32 unless some B_a value
    needs int64.  Entries at primes near the top of the table may exceed
    the limit; callers that index with f must patch those first.
    """
    a = as_shift(shift).a
    f = vt.big_b.astype(index_dtype(vt.limit + a))
    primes = np.flatnonzero(vt.prime_mask)
    f[primes] = primes + a
    f[0] = 0
    f[1] = 1
    return f
