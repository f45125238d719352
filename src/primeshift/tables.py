"""Bulk values of B, streamed window by window: the one source for every bulk command.

B(n) = p + B(m) with p = spf(n) and m = n // p.  m <= n/2, and every
window of sieve.spf_windows past [0, 2) lies below twice the start of
the entries it adds, so segments() fills each window from the values
below that start, and no whole-range table of B or B_a exists.  Only the
values at the odd n <= limit // 2 outlive a window, 1 B per entry of the
range: an even n = 2^k o, o odd, takes its value from o's, as B(2^k o) =
2k + B(o).  B_a differs from B only at the primes, where B(n) = spf(n):
shifted_segments adds a there, once arith.check_prime_steps, the one
rule for p + a, has passed the largest prime.  The stream runs in its
caller's thread.
"""

from __future__ import annotations

import numpy as np

from .arith import check_prime_steps
from .errors import DomainError
from .sieve import index_dtype, spf_windows, zeros


def _fill(s: int, spf, back):
    """B over the window [s, s + spf.size) from back, whose entries for the
    window's odd n it then writes (see segments).  Its temporaries go with
    the call, so none is alive while the stream builds the next window."""
    top = s + spf.size
    v = np.zeros_like(spf)  # B(0) = B(1) = 0; every n >= 2 is written below
    if s:  # s is even, so the odd n sit at the odd offsets
        p = spf[1::2]
        m = np.arange(s + 1, top, 2, dtype=p.dtype)
        m //= p
        m >>= 1
        np.add(back.take(m), p, out=v[1::2])
        for k in range(1, (top - 1).bit_length()):  # the k with 2^k < top
            n0 = s + (((1 << k) - s) & ((2 << k) - 1))  # first n >= s of the class
            i0 = n0 >> (k + 1)
            run = v[n0 - s :: 2 << k]
            np.add(back[i0 : i0 + run.size], 2 * k, out=run)
    i = s >> 1
    kept = v[1::2][: max(back.size - i, 0)]
    back[i : i + kept.size] = kept
    return v


def back_size(limit: int) -> tuple[int, type]:
    """(size, dtype) of the values a stream to limit keeps: B at the odd n <= limit // 2."""
    half = limit // 2
    return (half + 1) // 2, index_dtype(half)


def segments(limit: int, overlap: int = 0):
    """Yield (s, spf, v) for the windows [s, s + spf.size) of
    spf_windows(limit, overlap).

    v[n - s] = B(n), in spf's dtype.  Only back outlives a window: back[i]
    = B(2i + 1) for the odd 2i + 1 <= limit // 2.  [0, 2) is all 0.  Every
    later window lies below twice the start w of the entries it adds, its
    overlap below w, so an odd n has an odd m = n // p below w, read from
    back, and the even n = 2^k (2i + 1), one class per k, read B(2i + 1)
    off a contiguous run of back and add 2k.

    A window is copied into back before it is yielded, and the next one
    computes its overlap again, so the caller may change spf and v in
    place.
    """
    back = zeros(*back_size(limit), f"a stream to {limit}")
    for s, spf in spf_windows(limit, overlap):
        v = _fill(s, spf, back)
        yield s, spf, v
        del spf, v  # so the next window is built without them


def shifted_segments(a: int, top: int, overlap: int = 0):
    """Yield (s, f), f[n - s] = B_a(n), for the windows of [0, top] (see
    segments for overlap).

    f is B plus a where B == spf, at the primes, in index_dtype(top + a);
    it is the stream's v itself when that is v's dtype.  Entries at n = 0,
    1, where B = spf = 0, take a as well.  A shift that carries the
    largest prime <= top past 2^63 - 1 raises RangeOverflowError before
    any window is built.
    """
    check_prime_steps(top, a)
    for s, spf, v in segments(top, overlap):
        f = v.astype(index_dtype(top + a), copy=False)
        f += (f == spf) * f.dtype.type(a)
        yield s, f
        del spf, v, f  # so the stream frees it before it builds another


def check_x(x: int, a: int | None = None) -> None:
    """Raise DomainError unless x >= 2: the bulk sums and counts run over
    2 <= n <= x.  The message names the shift a when the values depend on it."""
    if x < 2:
        under = "" if a is None else f" under a={a}"
        raise DomainError(f"--x must be >= 2{under}, got x={x}")
