"""Bulk values of B, streamed segment by segment: the one source for every bulk command.

B(n) = p + B(m) with p = spf(n) and m = n // p, and (B - beta)(n) =
(B - beta)(m) + p exactly when p | m, since beta(n) = beta(m) + p unless
p already divides m.  m <= n/2, so segments() fills each sieve segment
of sieve.spf_windows from the values below it, kept in one array over
[0, limit // 2], and no whole-range table of B, beta or B_a exists.  B_a
differs from B only at the primes, where B(n) = spf(n): shifted_segments
adds a there, once arith.prime_step, the one rule for p + a, has passed
the largest prime.  From the second segment on, one worker thread builds
the next segment while the caller works on the current one.
"""

from __future__ import annotations

import numpy as np

from .arith import prime_step
from .errors import DomainError
from .sieve import WORD_MAX, index_dtype, prime_below, spf_windows, zeros


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

    The first segment is built in the caller's thread.  When the caller
    asks for the next one and the stream has more, one worker thread
    builds each following segment while the caller holds the one before,
    so at most two are alive.  A segment is copied into back before it is
    yielded and never touched after, so the caller may change spf and v
    in place.  Closing the stream stops the worker; an error in it is
    raised here, in the caller.
    """
    half = limit // 2
    back = zeros(half + 1, index_dtype(half), f"a stream to {limit}")
    windows = spf_windows(limit)

    def build():
        s, spf = next(windows)
        v = np.empty_like(spf)
        v[:2] = 0  # V(0) = V(1) = 0; the blocks overwrite all n >= 2
        below = v if s == 0 else back
        for lo, hi in blocks(s, s + spf.size):
            p = spf[lo - s : hi - s]
            m = np.arange(lo, hi, dtype=p.dtype)
            m //= p
            np.add(below[m], term(p, m), out=v[lo - s : hi - s])
        back[s : s + v.size] = v[: max(half + 1 - s, 0)]
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
    if top + a > WORD_MAX:
        prime_step(prime_below(top + 1), a)
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
