"""Bulk tables over a sieve: vectorized B, beta and the orbit step map.

The census and partial-sum modules never call the scalar functions in a
loop; they work off flat numpy arrays built here in one ascending pass
over the sieve.  Each function returns a fresh writable array over
[0, limit]; its entries at n = 0, 1 are 0 unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from .arith import Shift, as_shift
from .errors import RangeOverflowError
from .sieve import CHUNK, WORD_MAX, SieveTable, index_dtype


def _block(out, p, lo, term):
    """out[m] + term(p, m) over the block [lo, lo + p.size), where p = spf[lo:]
    and m = n // p.  Every out[m] must already hold its value."""
    m = np.arange(lo, lo + p.size, dtype=p.dtype) // p
    return out[m] + term(p, m)


def _b_term(p, m):
    return p


def _block_sum(spf, term, dtype=None):
    """out[n] = out[m] + term(p, m) with p = spf[n] and m = n // p, for n >= 2.

    Since m <= n/2, every m in a block [lo, hi) with hi <= 2*lo lies in an
    earlier block, so each block is a few vectorized gathers over values
    already computed.  Blocks stop doubling at CHUNK entries, which bounds
    the temporaries.  out has the sieve's dtype unless dtype is given.
    """
    out = np.zeros(spf.size, dtype=dtype or spf.dtype)
    lo = 2
    while lo < spf.size:
        hi = min(2 * lo, lo + CHUNK, spf.size)
        out[lo:hi] = _block(out, spf[lo:hi], lo, term)
        lo = hi
    return out


def big_b(table: SieveTable) -> np.ndarray:
    """B(n) = p + B(m) with p = spf(n) and m = n // p, in the sieve's dtype."""
    return _block_sum(table.spf, _b_term)


def big_b_window(b: np.ndarray, spf: np.ndarray, lo: int) -> np.ndarray:
    """B over the window [lo, lo + spf.size) from its spf, by big_b's recurrence.

    b must hold B below lo, and the window must end by 2*lo, so that every
    n // spf(n) lies below lo.
    """
    return _block(b, spf, lo, _b_term)


def beta(table: SieveTable) -> np.ndarray:
    """beta(n) = beta(m) + p with p = spf(n) and m = n // p, unless p | m."""
    spf = table.spf
    return _block_sum(spf, lambda p, m: np.where(spf[m] == p, 0, p))


def step_map(table: SieveTable, shift: Shift | int) -> np.ndarray:
    """f[n] = B_a(n) for 2 <= n <= limit; f[0] = 0 and f[1] = 1.

    The dtype is index_dtype(limit + a): int32 unless some B_a value
    needs int64.  B is built straight into f, and a is added wherever
    B(n) = spf(n), which holds exactly at the primes.  Entries at primes
    near the top of the table may exceed the limit; callers that index
    with f must patch those first.  A shift that carries the largest
    prime past 2^63 - 1 raises RangeOverflowError before any allocation.
    """
    a = as_shift(shift).a
    spf = table.spf
    p = table.limit
    while spf[p] != p:
        p -= 1
    if p + a > WORD_MAX:
        raise RangeOverflowError(f"{p} + {a} exceeds the 64-bit range")
    f = _block_sum(spf, _b_term, index_dtype(table.limit + a))
    for lo in range(2, f.size, CHUNK):
        seg = f[lo : lo + CHUNK]
        np.add(seg, a, out=seg, where=seg == spf[lo : lo + CHUNK])
    f[1] = 1
    return f
