"""Bulk values of B, streamed segment by segment: the one source for every bulk command.

B(n) = p + B(m) with p = spf(n) and m = n // p, and (B - beta)(n) =
(B - beta)(m) + p exactly when p | m, since beta(n) = beta(m) + p unless
p already divides m.  m <= n/2, so segments() fills each sieve segment
of sieve.spf_windows from the values below it, and no whole-range table
of B, beta or B_a exists.  Only the values at the odd n <= limit // 2
outlive a segment, 1 B per entry of the range: an even n = 2^k o, o odd,
takes its value from o's, as B(2^k o) = 2k + B(o).  B_a differs from B
only at the primes, where B(n) = spf(n): shifted_segments adds a there,
once arith.check_prime_steps, the one rule for p + a, has passed the
largest prime.  From the second segment on, one worker thread builds the
next segment while the caller works on the current one.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .arith import check_prime_steps
from .errors import DomainError
from .sieve import index_dtype, spf_windows, zeros


class Term(NamedTuple):
    """How a quantity V with V(0) = V(1) = 0 grows along n = p * m, p = spf(n).

    step(p, m) = V(n) - V(m), and pow2(k) = V(2^k o) - V(o) for odd o and
    k >= 1.
    """

    step: Callable
    pow2: Callable


#: B: p at every prime factor, so 2k over 2^k.
b_term = Term(lambda p, m: p, lambda k: 2 * k)

#: B - beta: p when p | m, else 0, so 2k - 2 over 2^k, as beta(2^k o) = 2 + beta(o).
excess_term = Term(lambda p, m: p * (m % p == 0), lambda k: 2 * k - 2)


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


def segments(limit: int, term: Term):
    """Yield (s, spf, v) for the segments [s, s + spf.size) of spf_windows(limit).

    v[n - s] = V(n) for a Term: B with b_term, B - beta with excess_term.
    v has spf's dtype.  Only back outlives a segment: back[i] = V(2i + 1)
    for the odd 2i + 1 <= limit // 2.  The first segment is filled block
    by block (see blocks) from v itself, V(n) = V(m) + term.step(p, m).
    Each later one is one block: an odd n has an odd m, read from back,
    and the even n = 2^k (2i + 1), one class per k, read V(2i + 1) off a
    contiguous run of back and add term.pow2(k).

    The first segment is built in the caller's thread.  When the caller
    asks for the next one and the stream has more, one worker thread
    builds each following segment while the caller holds the one before,
    so at most two are alive.  A segment is copied into back before it is
    yielded and never touched after, so the caller may change spf and v
    in place.  Closing the stream stops the worker; an error in it is
    raised here, in the caller.
    """
    half = limit // 2
    back = zeros((half + 1) // 2, index_dtype(half), f"a stream to {limit}")
    windows = spf_windows(limit)

    def build():
        s, spf = next(windows)
        top = s + spf.size
        v = np.empty_like(spf)
        odd = (s + 1) & 1  # the position of the first odd n
        if s == 0:
            v[:2] = 0  # V(0) = V(1) = 0; the blocks overwrite all n >= 2
            for lo, hi in blocks(2, top):
                p = spf[lo:hi]
                m = np.arange(lo, hi, dtype=p.dtype)
                m //= p
                np.add(v[m], term.step(p, m), out=v[lo:hi])
        else:
            p = spf[odd::2]
            m = np.arange(s + odd, top, 2, dtype=p.dtype)
            m //= p
            step = term.step(p, m)
            m >>= 1
            np.add(back[m], step, out=v[odd::2])
            for k in range(1, (top - 1).bit_length()):  # the k with 2^k < top
                n0 = s + (((1 << k) - s) & ((2 << k) - 1))  # first n >= s of the class
                i0 = n0 >> (k + 1)
                run = v[n0 - s :: 2 << k]
                np.add(back[i0 : i0 + run.size], term.pow2(k), out=run)
        i = s >> 1
        kept = v[odd::2][: max(back.size - i, 0)]
        back[i : i + kept.size] = kept
        return s, spf, v

    seg = build()
    yield seg
    if seg[0] + seg[1].size > limit:
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as worker:
        job = worker.submit(build)
        while job is not None:
            seg = job.result()  # drops the segment before, which the caller let go
            job = worker.submit(build) if seg[0] + seg[1].size <= limit else None
            yield seg


def shifted_segments(a: int, top: int):
    """Yield (s, spf, f), f[n - s] = B_a(n), for the segments of [0, top].

    f is B plus a where B == spf, at the primes, in index_dtype(top + a);
    it is the stream's v itself when that is v's dtype.  Entries at n = 0,
    1, where B = spf = 0, take a as well.  A shift that carries the
    largest prime <= top past 2^63 - 1 raises RangeOverflowError before
    any segment is built.
    """
    check_prime_steps(top, a)
    for s, spf, v in segments(top, b_term):
        f = v.astype(index_dtype(top + a), copy=False)
        f += (f == spf) * f.dtype.type(a)
        yield s, spf, f
        del spf, v, f  # so the stream frees it before it builds another


def check_x(x: int, a: int | None = None) -> None:
    """Raise DomainError unless x >= 2: the bulk sums and counts run over
    2 <= n <= x.  The message names the shift a when the values depend on it."""
    if x < 2:
        under = "" if a is None else f" under a={a}"
        raise DomainError(f"--x must be >= 2{under}, got x={x}")
