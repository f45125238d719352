"""Smallest-prime-factor sieve, primality testing, and integer factorization.

build_sieve holds the table over [0, limit] whole, and covering sizes it
for the commands that look up a few numbers.  windows is the one window
schedule (Bays and Hudson's segmented sieve): the windows double up to
CHUNK entries, so the primes that sieve a window come from the windows
before it.  build_sieve sieves them one at a time with spf_windows, and
tables.segments, which every bulk command reads, sieves B over them, so
no bulk command holds a whole-range table.  An spf window (its start is
even) takes 2 at its even entries in one slice, finds the first odd
multiple of each odd sieving prime p in one numpy step and writes one
slice per p, at stride 2p.  Above the limit, factorization
uses trial division against the sieve primes, a deterministic
Miller-Rabin test (complete witness set for the 64-bit range), and a
Brent-variant rho splitter for the rare composites that survive both.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .errors import DomainError, RangeOverflowError

#: Largest integer the package commits to handling exactly (signed 64-bit).
WORD_MAX = 2**63 - 1

#: Entries per pass of the chunked loops, which bounds their temporaries
#: and keeps the sieve's windows in cache.
CHUNK = 1 << 17

#: Limit of covering's shared table: with primes up to 2^16, trial division
#: settles every n < 2^32, and Miller-Rabin plus rho are exact above that.
SHARED_LIMIT = 2**16

# Complete deterministic witness set for n < 3.3 * 10^24, covers WORD_MAX.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SieveTable:
    """Immutable smallest-prime-factor table for 2 <= n <= limit.

    spf[n] is the least prime dividing n; spf[p] == p exactly for primes.
    spf is int32 when limit < 2^31, else int64 (see index_dtype).
    The backing array is marked read-only, so instances are safe to share
    across threads and processes.
    """

    __slots__ = ("limit", "spf", "_primes")

    def __init__(self, limit: int, spf: np.ndarray):
        spf.setflags(write=False)
        self.limit = limit
        self.spf = spf
        self._primes = None

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending (computed once, then cached)."""
        if self._primes is None:
            # A composite n has spf[n] <= isqrt(n), so above r = isqrt(limit)
            # the primes are the n with spf[n] > r; only [0, r] needs an index.
            r = math.isqrt(self.limit)
            small = np.flatnonzero(self.spf[: r + 1] == np.arange(r + 1))[1:]
            primes = np.concatenate([small, np.flatnonzero(self.spf > r)])
            primes.setflags(write=False)
            self._primes = primes
        return self._primes


def index_dtype(top: int) -> type:
    """int32 when every value in [0, top] fits it, else int64."""
    return np.int32 if top < 2**31 else np.int64


def check_size(size: int, dtype, bound: str) -> int:
    """The bytes of size entries of dtype, or a MemoryError naming bound where
    numpy could hold no such array (it would raise ValueError)."""
    nbytes = size * np.dtype(dtype).itemsize
    if nbytes > np.iinfo(np.intp).max:
        raise MemoryError(f"{bound} needs a {nbytes}-byte table, past the largest array")
    return nbytes


def zeros(size: int, dtype, bound: str) -> np.ndarray:
    """np.zeros(size, dtype) after check_size; numpy's MemoryError is raised again naming bound."""
    nbytes = check_size(size, dtype, bound)
    try:
        return np.zeros(size, dtype=dtype)
    except MemoryError:
        raise MemoryError(f"{bound} needs a {nbytes}-byte table, more than is free") from None


def build_sieve(limit: int, bound: str | None = None) -> SieveTable:
    """Build the smallest-prime-factor table up to limit (inclusive); a
    refused allocation names bound, else the limit."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > WORD_MAX:
        raise RangeOverflowError(f"sieve limit {limit} exceeds the 64-bit range")
    spf = zeros(limit + 1, index_dtype(limit), bound or f"sieve limit {limit}")
    for w, seg in spf_windows(limit):
        spf[w : w + seg.size] = seg
    return SieveTable(limit, spf)


_shared = functools.cache(lambda: build_sieve(SHARED_LIMIT))


def covering(top: int, bound: str | None = None) -> SieveTable:
    """A table that reaches top: the shared read-only 2^16 table, built once
    per process, when it does, else a fresh build_sieve(top, bound).
    Factorization above a table's limit is exact, so which one never
    changes a result."""
    return _shared() if top <= SHARED_LIMIT else build_sieve(top, bound)


def windows(limit: int, overlap: int = 0):
    """Yield (lo, w, hi) for the windows [w, hi) that tile [2, limit]:
    [w, min(2w, w + CHUNK)), so they start at 2, 4, ..., CHUNK, 2 * CHUNK,
    ...  Every n in a window has its largest proper divisor n // spf(n) <=
    n/2 below it.  A window also covers the overlap entries before it, from
    2 on: lo = max(2, w - overlap), rounded down to even, and lo = w
    without overlap.  An overlap past CHUNK takes its place in the window
    sizes, so a window repeats about as many entries as it adds at most.
    """
    w = 2
    while w <= limit:
        hi = min(2 * w, w + max(CHUNK, overlap), limit + 1)
        yield max(2, (w - overlap) & -2), w, hi
        w = hi


def spf_windows(limit: int):
    """Yield (w, spf[w : hi]) for [0, 2) and then the windows of windows(limit).

    Each is sieved on its own, so no whole-range table exists.  The windows
    are fresh writable arrays in index_dtype(limit); n = 0, 1 get 0.
    build_sieve joins them into the whole table.
    """
    dtype, root = index_dtype(limit), math.isqrt(limit)
    # The primes <= root in the windows yielded, ascending, in int64 so
    # that p * p and w + (p - w) % (2 * p) below cannot wrap.
    primes = np.empty(0, dtype=np.int64)
    yield 0, np.zeros(2, dtype=dtype)
    for _, w, hi in windows(limit):
        seg = np.arange(w, hi, dtype=dtype)
        # A composite n with smallest prime factor p has n >= p * p, so the
        # multiples of p from p * p on reach it.  w is even: the even n take
        # 2 in one slice, and the odd primes p <= sqrt(hi - 1), all below w,
        # write their odd multiples (p mod 2p) in descending order, leaving
        # the smallest last at every odd composite; entries never written
        # (primes) keep n.  first is each one's first odd multiple in the
        # window from p * p on, as an offset.
        p = primes[1 : np.searchsorted(primes, math.isqrt(hi - 1), "right")][::-1]
        first = np.maximum(p * p, w + (p - w) % (2 * p)) - w
        seg[0::2] = 2
        for q, o in zip(p.tolist(), first.tolist()):
            seg[o :: 2 * q] = q
        if w <= root:
            small = seg[: root + 1 - w]
            primes = np.append(primes, np.flatnonzero(small == np.arange(w, w + small.size)) + w)
        yield w, seg


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int, table: SieveTable | None = None) -> bool:
    """Exact primality for 0 <= n <= WORD_MAX.

    Uses a sieve lookup when a table covering n is supplied, otherwise a
    deterministic strong-pseudoprime test.
    """
    if n < 2:
        return False
    if table is not None and n <= table.limit:
        return int(table.spf[n]) == n
    return _miller_rabin(n)


def prime_below(n: int, table: SieveTable | None = None) -> int:
    """The largest prime below n, or DomainError when there is none."""
    q = n - 1
    while q >= 2:
        if is_prime(q, table):
            return q
        q -= 1
    raise DomainError(f"no prime below {n}")


def _pollard_brent(n: int) -> int:
    """Return a nontrivial factor of composite, odd, non-prime-power n.

    The random walks are seeded by n, so each n splits the same way every
    run; any split serves, because the factors are verified and sorted.
    """
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_hard(n: int, out: dict[int, int]) -> None:
    """Factor n (no prime factor found by the trial-division stage)."""
    if n == 1:
        return
    if _miller_rabin(n):
        out[n] = out.get(n, 0) + 1
        return
    root = math.isqrt(n)
    if root * root == n:
        # rho is unreliable on perfect squares; split exactly instead
        _factor_hard(root, out)
        _factor_hard(root, out)
        return
    d = _pollard_brent(n)
    _factor_hard(d, out)
    _factor_hard(n // d, out)


def factorize(n: int, table: SieveTable) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending.

    Below the sieve limit this is a pure spf-chain walk. Above it, trial
    division by sieve primes strips small factors, then Miller-Rabin plus
    rho splitting finishes the cofactor. Every reported prime is verified,
    so results are always exact.
    """
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    if n > WORD_MAX:
        raise RangeOverflowError(f"{n} exceeds the supported 64-bit range")
    found: dict[int, int] = {}
    if n <= table.limit:
        spf = table.spf
        m = n
        while m > 1:
            p = int(spf[m])
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            found[p] = r
    else:
        m = n
        bound = math.isqrt(n)
        for p in table.primes():
            p = int(p)
            if p > bound:
                break
            if m % p == 0:
                r = 0
                while m % p == 0:
                    m //= p
                    r += 1
                found[p] = r
                bound = math.isqrt(m)
        if m > 1:
            _factor_hard(m, found)
    return tuple(sorted(found.items()))
