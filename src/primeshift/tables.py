"""Bulk values of B, streamed window by window: the one source for every bulk command.

B is completely additive, so B(n) = q + B(n // q) for every prime q
dividing n, not only the smallest.  segments() sieves B itself over the
windows of sieve.windows: each odd n starts at n, which the primes keep,
and each odd prime q <= sqrt(n) writes q + B(n // q) at its multiples
from q^2 on; every odd composite takes one such write at least, and each
gives the same value, so neither a smallest prime factor, a division nor
an order of the writes is needed.  Only B at the odd n up to limit // 2
outlives a window, 1 B per entry of the range, as B(2^k o) = 2k + B(o)
for odd o, and no whole-range table of B or B_a exists.  B_a differs
from B only at the primes (see prime_marks): shifted_segments adds a
there, once arith.check_prime_steps, the one rule for p + a, has passed
the largest prime.  The stream runs in its caller's thread.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import check_prime_steps
from .errors import DomainError
from .sieve import index_dtype, windows, zeros


def _window(lo: int, hi: int, primes, back, dtype):
    """B over the window [lo, hi) from back, whose entries for the window's
    odd n it then writes (see segments).  Its temporaries go with the
    call, so none is alive while the stream builds the next window."""
    v = np.arange(lo, hi, dtype=dtype)
    odd = v[1::2]  # lo is even: odd[i] is n = lo + 1 + 2i
    # Each odd prime q <= sqrt(hi - 1) hits its odd multiples n = q m from
    # max(q^2, lo + 1) on: stride q in odd, and the cofactors m are
    # consecutive odd numbers, so back[m >> 1] is one contiguous run.
    q = primes[1 : np.searchsorted(primes, math.isqrt(hi - 1), "right")]
    m = np.maximum(q, (lo + q) // q) | 1
    i = (q * m - lo - 1) >> 1
    j = m >> 1
    c = (odd.size - i + q - 1) // q
    # A prime with q^2 <= 4 odd.size hits the window often enough for a
    # slice of its own; the rest write all their hits in one scatter.
    dense = int(np.searchsorted(q, math.isqrt(4 * odd.size), "right"))
    for qk, ik, jk, ck in zip(*(x[:dense].tolist() for x in (q, i, j, c))):
        np.add(back[jk : jk + ck], qk, out=odd[ik::qk])
    if dense < q.size:
        # Hit t of prime q is at odd[i + t q], from back[j + t]; an n hit by
        # two of these primes takes the same value from either.
        q, i, j, c = q[dense:], i[dense:], j[dense:], c[dense:]
        t = np.arange(int(c.sum()), dtype=dtype) - np.repeat((np.cumsum(c) - c).astype(dtype), c)
        step = np.repeat(q.astype(dtype), c)
        odd[np.repeat(i, c) + t * step] = back.take(np.repeat(j, c) + t) + step
    for k in range(1, (hi - 1).bit_length()):  # the k with 2^k < hi
        n0 = lo + (((1 << k) - lo) & ((2 << k) - 1))  # first n >= lo of the class
        i0 = n0 >> (k + 1)
        run = v[n0 - lo :: 2 << k]
        np.add(back[i0 : i0 + run.size], 2 * k, out=run)
    i = lo >> 1
    kept = odd[: max(back.size - i, 0)]
    back[i : i + kept.size] = kept
    return v


def back_size(limit: int) -> tuple[int, type]:
    """(size, dtype) of the values a stream to limit keeps: B at the odd n <= limit // 2."""
    half = limit // 2
    return (half + 1) // 2, index_dtype(half)


def segments(limit: int, overlap: int = 0):
    """Yield (s, v), v[n - s] = B(n) in index_dtype(limit), for [0, 2) and
    then the windows [s, hi) of sieve.windows(limit, overlap).

    Only back outlives a window: back[i] = B(2i + 1) for the odd 2i + 1 <=
    limit // 2.  [0, 2) is all 0.  Every later window lies below twice the
    start w of the entries it adds, its overlap below w, so an odd n = q m
    has m <= n/3 below w, read from back, and the even n = 2^k (2i + 1),
    one class per k, read B(2i + 1) off a contiguous run of back and add
    2k.  The sieving primes are the primes <= isqrt(limit) of the windows
    before (see prime_marks), as sqrt(hi - 1) < w, so the stream needs no
    sieve table.

    A window is copied into back before it is yielded, and the next one
    computes its overlap again, so the caller may change v in place.
    """
    back = zeros(*back_size(limit), f"a stream to {limit}")
    dtype, root = index_dtype(limit), math.isqrt(limit)
    primes = np.empty(0, dtype=np.int64)  # int64, so that q * m cannot wrap
    yield 0, np.zeros(2, dtype=dtype)
    for lo, w, hi in windows(limit, overlap):
        v = _window(lo, hi, primes, back, dtype)
        if w <= root:
            new = v[w - lo : root + 1 - lo]
            primes = np.append(primes, np.flatnonzero(prime_marks(w, new)) + w)
        yield lo, v
        del v  # so the next window is built without it


def prime_marks(s: int, v):
    """Whether each n in [s, s + v.size) is prime, given v[n - s] = B(n):
    B(n) = n at the primes, and else only at n = 0 and 4."""
    marks = v == np.arange(s, s + v.size, dtype=v.dtype)
    marks[[k - s for k in (0, 4) if s <= k < s + v.size]] = False
    return marks


def shifted_segments(a: int, top: int, overlap: int = 0):
    """Yield (s, f), f[n - s] = B_a(n), for the windows of [0, top] (see
    segments for overlap).

    f is B plus a at the primes, in index_dtype(top + a); it is the
    stream's v itself when that is v's dtype, and always at a = 0.
    Entries at n = 0, 1 take a as well.  A shift that carries the largest
    prime <= top past 2^63 - 1 raises RangeOverflowError before any window
    is built.
    """
    check_prime_steps(top, a)
    dtype = index_dtype(top + a)
    for s, v in segments(top, overlap):
        f = v.astype(dtype, copy=False)
        if a:
            f += prime_marks(s, f) * f.dtype.type(a)
            if not s:
                f += a  # n = 0, 1
        yield s, f
        del v, f  # so the stream frees it before it builds another


def check_x(x: int, a: int | None = None) -> None:
    """Raise DomainError unless x >= 2: the bulk sums and counts run over
    2 <= n <= x.  The message names the shift a when the values depend on it."""
    if x < 2:
        under = "" if a is None else f" under a={a}"
        raise DomainError(f"--x must be >= 2{under}, got x={x}")
