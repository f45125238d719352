"""Prime-partition counting and the fibres of B over a fixed value.

kappa(m) counts multisets of primes summing to m; by unique factorization
these biject with the solutions of B(n) = m (each partition corresponds
to n = product of its parts), which is what makes kappa the fibre size.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import check_shift
from .errors import DomainError, RangeOverflowError
from .sieve import WORD_MAX, covering, is_prime


@dataclass(frozen=True)
class KappaTable:
    """kappa[m] = number of partitions of m into primes, for 1 <= m <= limit.

    Values are exact Python integers (they grow superpolynomially).
    """

    limit: int
    kappa: tuple[int, ...]

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= self.limit:
            raise DomainError(f"kappa known only for 1..{self.limit}, got {m}")
        return self.kappa[m]


def build_kappa(limit: int) -> KappaTable:
    """Count prime partitions with the coin DP for prod_p 1 / (1 - x^p).

    Adding the prime p sends k[j] to k[j] + k[j - p] for j ascending; the
    j in one block [j0, j0 + p) read only the block before it, which is
    already final, so each block is one vectorized add of exact Python
    integers.  A prime with p * p <= limit would make p or more such
    calls; its full blocks, k[:rows * p] as (rows, p), take one running
    sum down the columns instead, and the tail one block add.  kappa(0) is
    stored as 0 (it is never consulted).
    """
    if limit < 1:
        raise DomainError(f"--limit must be >= 1, got {limit}")
    # Sized before the DP array, so a limit past any array fails in check_size.
    primes = covering(limit, f"kappa with --limit {limit}").primes()
    k = np.zeros(limit + 1, dtype=object)
    k[0] = 1
    for p in primes[: np.searchsorted(primes, limit, side="right")].tolist():
        if p * p <= limit:
            rows = (limit + 1) // p
            v = k[: rows * p].reshape(rows, p)
            np.add.accumulate(v, axis=0, out=v)
            k[rows * p :] += k[(rows - 1) * p : limit + 1 - p]
        else:
            for j in range(p, limit + 1, p):
                k[j : j + p] += k[j - p : min(j, limit + 1 - p)]
    k[0] = 0
    return KappaTable(limit, tuple(k.tolist()))


def enumerate_fibre(m: int, a: int, x_bound: int) -> list[int]:
    """All n <= x_bound with B_a(n) = m, ascending, built from the inverse of B_a.

    B_a agrees with B on composites, so the composite solutions are the
    products of the prime partitions of m with at least two parts (distinct
    by unique factorization).  Partitions are generated depth first with
    non-increasing parts, and a branch is dropped once no completion can
    stay <= x_bound: parts >= 2 multiply to at least their sum, and k parts
    in [2, cap] summing to rest, with k >= ceil(rest / cap), multiply to at
    least 2^(k-1) * (rest - 2(k-1)).  Every part is at most top =
    min(m - 2, x_bound // 2), and covering(top) holds them.  The one prime
    solution is m - a, when it is a prime in [2, x_bound].  A bound above
    2^63 - 1 raises RangeOverflowError.
    """
    a = check_shift(a)
    if m < 2:
        raise DomainError(f"--m must be >= 2, got {m}")
    if x_bound > WORD_MAX:
        raise RangeOverflowError(f"--bound {x_bound} exceeds the 64-bit range")
    top = max(min(m - 2, x_bound // 2), 0)  # a negative top would wrap the slice below
    table = covering(top, f"fibre with --m {m} and --bound {x_bound}")
    primes = table.primes()
    primes = primes[: np.searchsorted(primes, top, side="right")].tolist()
    out = []

    def rec(rest, prod, cap):
        # parts so far multiply to prod; the next part is at most cap
        k = -(-rest // cap)
        # both other factors are >= 1, so 2^(k-1) alone passes x_bound once
        # k - 1 reaches its bit length; testing that first builds no k-bit int
        if k - 1 >= x_bound.bit_length() or prod * ((rest - 2 * k + 2) << (k - 1)) > x_bound:
            return
        if rest <= cap and table.spf[rest] == rest:
            out.append(prod * rest)  # the part p = rest closes the partition
        q = x_bound // prod
        hi = bisect_right(primes, min(cap, rest - 2))
        # other parts leave rest - p >= 2, so prod * p * (rest - p) <= x_bound;
        # p * (rest - p) rises up to p = rest / 2 and falls after it, so the
        # admissible p are a prefix and a suffix of the primes below hi
        lo = 0
        while lo < hi and primes[lo] * (rest - primes[lo]) <= q:
            rec(rest - primes[lo], prod * primes[lo], primes[lo])
            lo += 1
        while hi > lo and primes[hi - 1] * (rest - primes[hi - 1]) <= q:
            hi -= 1
            rec(rest - primes[hi], prod * primes[hi], primes[hi])

    if top >= 2:
        rec(m, 1, top)
    if 2 <= m - a <= x_bound and is_prime(m - a, table):
        out.append(m - a)
    return sorted(out)

