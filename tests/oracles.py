"""Slow reference implementations the fast library paths are checked against.

None of these is reached from the CLI: each recomputes a result by a
plainer route (per-start iteration, scalar evaluation, full enumeration
or a direct scan) so the tests can compare.  COMPUTED_CORRECTIONS and
A39_CYCLES are cycles the tests expect the census to find.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from primeshift.arith import check_shift, shifted_B
from primeshift.census import CensusReport
from primeshift.constructions import AmicablePair, ChainWitness
from primeshift.dynamics import Cycle, iterate_orbit
from primeshift.errors import ConsistencyError, DomainError, RangeOverflowError
from primeshift.fibres import KappaTable
from primeshift.golden import min_first
from primeshift.sieve import WORD_MAX, SieveTable, factorize, is_prime

#: What the census actually finds for the inconsistent rows (verified by
#: direct iteration: each tuple is closed under B_a and reachable).
COMPUTED_CORRECTIONS = {
    9: ((5, 14, 9, 6), (13, 22)),
    11: ((5, 16, 8, 6),),
    13: ((5, 18, 8, 6),),
}

#: The four-cycle census at a = 39, the richest shift found for a <= 200.
A39_CYCLES = (
    (43, 82),
    (13, 52, 17, 56),
    (7, 46, 25, 10),
    (5, 44, 15, 8, 6),
)


def prime_power_sums(limit: int):
    """(B, beta, prime) over [0, limit] as int64, int64 and bool arrays.

    The primes come from a plain sieve of Eratosthenes; B(n) is the sum of
    p over the prime powers p^k dividing n, and beta(n) the sum of the
    primes p dividing n.  Entries at n = 0, 1 are 0 and False.
    """
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if prime[i]:
            prime[i * i :: i] = False
    b = np.zeros(limit + 1, dtype=np.int64)
    beta = np.zeros(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(prime).tolist():
        beta[p::p] += p
        q = p
        while q <= limit:
            b[q::q] += p
            q *= p
    return b, beta, prime


def shifted_map(b, prime, a: int):
    """B_a over [0, b.size) from B and the prime mask: n + a at the primes."""
    return np.where(prime, np.arange(b.size) + a, b)


def walked_cycles(f, prime, last: int) -> dict:
    """{minimum: (members, sign_pattern)} of the cycles reached from every
    start 2..last under the map list f, with '+' where prime is True.

    Each orbit is followed until it repeats one of its own values, which
    closes a new cycle, or meets a value an earlier orbit took, whose
    cycle it then shares.
    """
    known: dict[int, int] = {}  # value -> minimum of the cycle it reaches
    cycles = {}
    for start in range(2, last + 1):
        orbit: dict[int, int] = {}  # value -> its index in this orbit
        v = start
        while v not in known and v not in orbit:
            orbit[v] = len(orbit)
            v = f[v]
        if v in orbit:
            members = list(orbit)[orbit[v] :]
            k = members.index(min(members))
            members = tuple(members[k:] + members[:k])
            cycles[members[0]] = (members, "".join("+" if prime[m] else "-" for m in members))
            v = members[0]
        else:
            v = known[v]
        known.update(dict.fromkeys(orbit, v))
    return cycles


def canonicalize(raw_cycle, a: int, table: SieveTable) -> Cycle:
    """Rotate a verified cycle so its minimum is first and attach signs.

    Each member is checked by the scalar map, one shifted_B call at a time.
    """
    a = check_shift(a)
    members = [int(v) for v in raw_cycle]
    if not members:
        raise ConsistencyError("empty cycle")
    for v, nxt in zip(members, members[1:] + members[:1]):
        got = shifted_B(v, a, table)
        if got != nxt:
            raise ConsistencyError(f"not a cycle under a={a}: {v} -> {got}, expected {nxt}")
    rotated = min_first(members)
    pattern = "".join("+" if is_prime(v, table) else "-" for v in rotated)
    return Cycle(rotated, pattern)


def run_census_naive(
    a: int,
    start_limit: int,
    table: SieveTable,
    order=None,
) -> CensusReport:
    """Per-start reference census: no memoization, no vectorization.

    Slow by design; used to cross-check run_census on small ranges.  An
    explicit processing order may be supplied to confirm order-independence.
    """
    starts = list(order) if order is not None else list(range(2, start_limit + 1))
    basins: dict[tuple[int, ...], list] = {}
    hist: dict[int, int] = {}
    max_tail = 0
    for n in starts:
        rec = iterate_orbit(n, a)
        cyc = canonicalize(rec.cycle, a, table)
        basins.setdefault(cyc.members, [cyc, 0])[1] += 1
        tail = rec.total_stopping_time
        hist[tail] = hist.get(tail, 0) + 1
        max_tail = max(max_tail, tail)
    cycles, counts = zip(*(basins[m] for m in sorted(basins)))
    return CensusReport(
        a=a,
        start_limit=start_limit,
        cycles=cycles,
        basin_counts=counts,
        stopping_time_histogram=dict(sorted(hist.items())),
        max_total_stopping_time=max_tail,
    )


def sign_patterns_of_length(k: int, census) -> set[str]:
    """Distinct sign patterns among the length-k cycles of a census report.

    Accepts a single CensusReport or an iterable of them.
    """
    reports = [census] if hasattr(census, "cycles") else list(census)
    out = set()
    for rep in reports:
        for cyc in rep.cycles:
            if len(cyc) == k:
                out.add(cyc.sign_pattern)
    return out


def small_beta(n: int, table: SieveTable) -> int:
    """Sum of the distinct prime divisors of n >= 2, by scalar factorization."""
    return sum(p for p, _ in factorize(n, table))


def shifted_beta(n: int, a: int, table: SieveTable) -> int:
    """beta_a(n): n + a when n is prime, otherwise beta(n)."""
    if is_prime(n, table):
        if n + a > WORD_MAX:
            raise RangeOverflowError(f"{n} + {a} exceeds the 64-bit range")
        return n + a
    return small_beta(n, table)


def prime_count(table: SieveTable, x: int) -> int:
    """pi(x) for x <= table.limit, by a scan for spf[n] == n."""
    return int(np.count_nonzero(table.spf[2 : x + 1] == np.arange(2, x + 1)))


def prime_partitions(m: int, table: SieveTable):
    """Yield all multisets of primes summing to m, parts non-increasing."""
    primes = [p for p in range(2, m + 1) if is_prime(p, table)]

    def rec(remaining, max_idx, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for i in range(max_idx, -1, -1):
            p = primes[i]
            if p <= remaining:
                acc.append(p)
                yield from rec(remaining - p, i, acc)
                acc.pop()

    yield from rec(m, len(primes) - 1, [])


def enumerate_fibre_exact(m: int, table: SieveTable) -> list[int]:
    """All solutions of B(n) = m (unshifted), with no bound on n.

    Generates n as the product of each prime partition of m; products are
    pairwise distinct by unique factorization, which is asserted.
    """
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    out = []
    for parts in prime_partitions(m, table):
        n = 1
        for p in parts:
            n *= p
        out.append(n)
    if len(set(out)) != len(out):
        raise ConsistencyError("partition products collided")
    return sorted(out)


def kappa_recursion(limit: int, table: SieveTable) -> list[int]:
    """kappa[m] for 0 <= m <= limit from the paper's beta-weighted recursion.

    n * kappa(n) = beta(n) + sum_{i=1}^{n-1} kappa(n - i) * beta(i), with
    kappa(0) stored as 0 and kappa(1) = 0.  All arithmetic is exact; a
    nonzero remainder of the division by n raises ConsistencyError.
    """
    beta = [0, 0] + [small_beta(i, table) for i in range(2, limit + 1)]
    kappa = [0, 0]
    for n in range(2, limit + 1):
        # pairs kappa[j] with beta[n - j]; map/operator keeps the loop in C
        conv = sum(map(operator.mul, kappa[1:n], beta[n - 1 : 0 : -1]))
        q, r = divmod(beta[n] + conv, n)
        if r:
            raise ConsistencyError(f"kappa recursion not divisible at n={n}")
        kappa.append(q)
    return kappa[: limit + 1]


def kappa_asymptotic_ratio(m: int, ktable: KappaTable) -> float:
    """log kappa(m) normalized by its limiting growth 2*pi*sqrt(m / (3 log m))."""
    if m < 3:
        raise DomainError(f"m must be >= 3, got {m}")
    value = ktable[m]
    return math.log(value) / (2 * math.pi * math.sqrt(m / (3 * math.log(m))))


def verify_amicable(pair: AmicablePair, table: SieveTable) -> bool:
    """Confirm the pair is a genuine 2-cycle under its shift."""
    return (
        shifted_B(pair.p, pair.a, table) == pair.n
        and shifted_B(pair.n, pair.a, table) == pair.p
    )


def min_composite_preimage(p: int, table: SieveTable) -> int:
    """Least composite n with B(n) = p, by direct scan of B-values.

    Independent of build_amicable; used as the oracle for its minimality
    claim.  Scans ever longer prefixes of prime_power_sums, doubling up to
    table.limit, so it requires the answer to lie below table.limit.
    """
    if p < 5:
        raise DomainError(f"p must be >= 5, got {p}")
    k = p
    while k < table.limit:
        k = min(2 * k, table.limit)
        b, _, prime = prime_power_sums(k)
        # B(0) = B(1) = 0 < p, so every hit is some n >= 2 that is not prime
        hits = np.flatnonzero((b == p) & ~prime)
        if hits.size:
            return int(hits[0])
    raise DomainError(f"no composite preimage of {p} within sieve limit {table.limit}")


def validate_chain(witness: ChainWitness, table: SieveTable) -> bool:
    """Recompute each step; all terms but the last must be prime to climb."""
    c = witness.chain
    if len(c) != witness.k + 1 or c[0] != witness.n:
        return False
    for i in range(witness.k):
        if not is_prime(c[i], table):
            return False
        if shifted_B(c[i], witness.a, table) != c[i + 1]:
            return False
        if c[i + 1] <= c[i]:
            return False
    return True


def excess_tail_count(K: int, x: int, b_values, beta_values) -> int:
    """#{2 <= n <= x : B(n) - beta(n) > K}, the tail mass beyond K."""
    diff = b_values[2 : x + 1] - beta_values[2 : x + 1]
    return int(np.count_nonzero(diff > K))
