"""Bulk values of B, streamed segment by segment: the one source for every bulk command.

B(n) = p + B(m) with p = spf(n) and m = n // p, and (B - beta)(n) =
(B - beta)(m) + p exactly when p | m, since beta(n) = beta(m) + p unless
p already divides m.  m <= n/2, so segments() fills each sieve segment
of sieve.spf_windows from the values below it, kept in one array over
[0, limit // 2], and no whole-range table of B, beta or B_a exists.  B_a differs from B only at
the primes, where B(n) = spf(n); shift_primes adds a there.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .sieve import index_dtype, spf_windows, zeros


def b_term(p, m):
    """B(n) - B(m) for n = p * m with p = spf(n)."""
    return p


def excess_term(p, m):
    """(B - beta)(n) - (B - beta)(m) for n = p * m with p = spf(n)."""
    return p * (m % p == 0)


def blocks(lo: int, end: int):
    """The blocks [b, min(2b, end)) that tile [max(lo, 2), end), as (b, hi) pairs.

    Every n in a block has n // spf(n) <= n/2 < b, and a composite n has
    B(n) <= n/2 + 2, so a block depends almost only on earlier ones.
    """
    b = max(lo, 2)
    while b < end:
        hi = min(2 * b, end)
        yield b, hi
        b = hi


def segments(limit: int, term):
    """Yield (s, spf, v) for the segments [s, s + spf.size) of spf_windows(limit).

    v[n - s] = V(n), where V(0) = V(1) = 0 and V(n) = V(m) + term(p, m):
    B with b_term, B - beta with excess_term.  v has spf's dtype and is
    filled block by block from the V below each block: in v itself in the
    first segment, else in back, V over [0, limit // 2], which is the only
    array that outlives a segment.
    """
    half = limit // 2
    back = zeros(half + 1, index_dtype(half), f"a stream to {limit}")
    for s, spf in spf_windows(limit):
        v = np.empty_like(spf)
        v[:2] = 0  # V(0) = V(1) = 0; the blocks overwrite all n >= 2
        below = v if s == 0 else back
        for lo, hi in blocks(s, s + spf.size):
            p = spf[lo - s : hi - s]
            m = np.arange(lo, hi, dtype=p.dtype)
            m //= p
            np.add(below[m], term(p, m), out=v[lo - s : hi - s])
        back[s : s + v.size] = v[: max(half + 1 - s, 0)]
        yield s, spf, v
        # Drop the segment before the next is sieved, but not m: freeing all
        # at once lets malloc trim the heap, and pages fault in again.
        del spf, v, below, p


def shift_primes(v: np.ndarray, spf: np.ndarray, a: int, top: int) -> np.ndarray:
    """B_a over a segment from its B and spf: v + a where v == spf (the primes).

    The result has index_dtype(top + a), where top bounds the segment's
    n; it is v itself when that is v's dtype.  Entries at n = 0, 1, where
    B = spf = 0, take a as well.
    """
    f = v.astype(index_dtype(top + a), copy=False)
    np.add(f, a, out=f, where=f == spf)
    return f


def check_x(x: int) -> None:
    """Raise DomainError unless x >= 2: the bulk sums and counts run over 2 <= n <= x."""
    if x < 2:
        raise DomainError(f"x must be >= 2, got x={x}")
