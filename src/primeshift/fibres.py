"""Prime-partition counting and the fibres of B over a fixed value.

kappa(m) counts multisets of primes summing to m; by unique factorization
these biject with the solutions of B(n) = m (each partition corresponds
to n = product of its parts), which is what makes kappa the fibre size.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import Shift, as_shift
from .errors import ConsistencyError, DomainError
from .sieve import SieveTable, is_prime
from .tables import ValueTable


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


def build_kappa(limit: int, table: SieveTable, value_table: ValueTable | None = None) -> KappaTable:
    """Fill the kappa table from the beta-weighted recursion.

    n * kappa(n) = beta(n) + sum_{i=1}^{n-1} kappa(n - i) * beta(i), with
    kappa(1) = 0.  All arithmetic is exact; the division by n is asserted
    to be exact, a nonzero remainder would mean an implementation bug.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if value_table is not None and value_table.limit >= limit:
        beta = [int(v) for v in value_table.beta[: limit + 1]]
    else:
        if table.limit < limit:
            raise DomainError("sieve must cover the kappa limit")
        from .arith import small_beta

        beta = [0, 0] + [small_beta(i, table) for i in range(2, limit + 1)]
    kappa: list[int] = [0, 0]  # kappa[0] unused, kappa[1] = 0
    for n in range(2, limit + 1):
        # pairs kappa[j] with beta[n - j]; map/operator keeps the inner
        # loop in C, which matters at limit ~ 10^4
        conv = sum(map(operator.mul, kappa[1:n], beta[n - 1 : 0 : -1]))
        q, r = divmod(beta[n] + conv, n)
        if r:
            raise ConsistencyError(f"kappa recursion not divisible at n={n}")
        kappa.append(q)
    return KappaTable(limit, tuple(kappa))


def enumerate_fibre(
    m: int,
    shift: Shift | int,
    x_bound: int,
    table: SieveTable,
) -> list[int]:
    """All n <= x_bound with B_a(n) = m, ascending, built from the inverse of B_a.

    B_a agrees with B on composites, so the composite solutions are the
    products of the prime partitions of m with at least two parts (distinct
    by unique factorization).  Partitions are generated depth first with
    non-increasing parts, and a branch is dropped once no completion can
    stay <= x_bound: parts >= 2 multiply to at least their sum, and k parts
    in [2, cap] summing to rest, with k >= ceil(rest / cap), multiply to at
    least 2^(k-1) * (rest - 2(k-1)).  Every part is at most
    min(m - 2, x_bound // 2), which the sieve must cover.  The one prime
    solution is m - a, when it is a prime in [2, x_bound].
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    a = as_shift(shift).a
    top = min(m - 2, x_bound // 2)
    if top > table.limit:
        raise DomainError(f"fibre of m={m} at bound {x_bound} needs primes up to {top}, "
                          f"sieve limit is {table.limit}")
    idx = np.arange(2, top + 1)
    primes = idx[table.spf[2 : top + 1] == idx].tolist()
    out = []

    def rec(rest, prod, cap):
        # parts so far multiply to prod; the next part is at most cap
        k = -(-rest // cap)
        if prod * ((rest - 2 * k + 2) << (k - 1)) > x_bound:
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


def preimage_density(target_set, x: int, vt: ValueTable) -> tuple[int, float]:
    """(count, density) of {2 <= n <= x : B(n) in target_set}; density is count / x.

    target_set is a vectorised predicate, called exactly once, on the
    read-only array of B(n) for 2 <= n <= x, in the table's dtype (int32
    below 2^31; every entry lies in [2, x]).  It returns a bool array of
    that shape, or a scalar, which broadcasts.
    """
    vt.check_x(x)
    values = vt.big_b[2 : x + 1]
    hit = np.broadcast_to(np.asarray(target_set(values), dtype=bool), values.shape)
    count = int(np.count_nonzero(hit))
    return count, count / x
