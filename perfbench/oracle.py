"""Reference answers for every command the benchmark issues.

Nothing here imports primeshift.  The cycle and orbit checks use a
trial-division B_a, the table checks use a sieve written for this file,
fibres are rebuilt from prime partitions and kappa from a coin DP over
primes.  Every check raises CheckError with the reason; run.py counts a
raised check as a failed operation.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

WORD_MAX = 2**63 - 1


class CheckError(Exception):
    """An output of the program disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Scalar arithmetic by trial division


def factor_td(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 2 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            r = 0
            while n % d == 0:
                n //= d
                r += 1
            out.append((d, r))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_td(n: int) -> bool:
    if n < 2:
        return False
    f = factor_td(n)
    return len(f) == 1 and f[0][1] == 1


def shifted_b_td(n: int, a: int) -> int:
    """B_a(n): n + a for prime n, else the sum of prime factors with multiplicity."""
    f = factor_td(n)
    if len(f) == 1 and f[0][1] == 1:
        return n + a
    return sum(p * r for p, r in f)


def primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


# ---------------------------------------------------------------------------
# The published cycle catalog (a = 1..20, starts up to 10^6), verbatim.
# Rows 9, 11 and 13 are not closed under B_a; CORRECTIONS holds what the
# map really has there, and A39 the four cycles of the richest shift.

CATALOG = {
    1: ((5, 6),),
    2: ((5, 7, 9, 6),),
    3: ((5, 8, 6), (7, 10)),
    4: ((5, 9, 6),),
    5: ((7, 12),),
    6: ((7, 13, 19, 25, 10),),
    7: ((5, 12, 7, 14, 9, 6),),
    8: ((5, 13, 21, 10, 7, 15, 8, 6),),
    9: ((5, 15, 9, 6), (13, 22)),
    10: ((5, 15, 8, 6),),
    11: ((5, 15, 8, 6),),
    12: ((5, 17, 29, 41, 53, 65, 18, 8, 6),),
    13: ((5, 16, 8, 6),),
    14: ((5, 19, 33, 14, 9, 6), (7, 21, 10)),
    15: ((5, 20, 9, 6), (19, 34)),
    16: ((7, 23, 39, 16, 8, 6, 5, 21, 10),),
    17: ((7, 24, 9, 6, 5, 22, 13, 30, 10), (11, 28)),
    18: ((5, 23, 41, 59, 77, 18, 8, 6), (7, 25, 10)),
    19: ((5, 24, 9, 6),),
    20: ((5, 25, 10, 7, 27, 9, 6),),
}
CORRECTIONS = {
    9: ((5, 14, 9, 6), (13, 22)),
    11: ((5, 16, 8, 6),),
    13: ((5, 18, 8, 6),),
}
A39 = ((43, 82), (13, 52, 17, 56), (7, 46, 25, 10), (5, 44, 15, 8, 6))
SWEEP_MAX, SWEEP_ARGMAX = 4, [39]


def rotate_min_first(members) -> tuple[int, ...]:
    members = tuple(int(v) for v in members)
    k = members.index(min(members))
    return members[k:] + members[:k]


def expected_nontrivial(a: int) -> set[tuple[int, ...]] | None:
    """Known nontrivial cycle set for shift a, or None when none is on file."""
    if a == 39:
        rows = A39
    elif a in CATALOG:
        rows = CORRECTIONS.get(a, CATALOG[a])
    else:
        return None
    return {rotate_min_first(r) for r in rows}


def check_cycle(members, a: int) -> None:
    """members, listed min first, must be closed under the trial-division B_a."""
    members = [int(v) for v in members]
    expect(len(members) > 0, "empty cycle")
    expect(members[0] == min(members), f"cycle {members} does not start at its minimum")
    expect(len(set(members)) == len(members), f"cycle {members} repeats a member")
    for v, nxt in zip(members, members[1:] + members[:1]):
        got = shifted_b_td(v, a)
        expect(got == nxt, f"cycle {members} not closed under B_{a}: {v} -> {got}, not {nxt}")


def sign_pattern(members) -> str:
    return "".join("+" if is_prime_td(v) else "-" for v in members)


# ---------------------------------------------------------------------------
# Tables over [0, limit] built here, for the stats and density checks


class Tables:
    """B, beta and primality for 0 <= n <= limit, by repeated spf division."""

    def __init__(self, limit: int):
        spf = np.zeros(limit + 1, dtype=np.int64)
        for p in primes_upto(math.isqrt(limit)):
            block = spf[p * p :: p]
            block[block == 0] = p
        n = np.arange(limit + 1, dtype=np.int64)
        self.prime = (spf == 0) & (n >= 2)
        spf[self.prime] = n[self.prime]
        big_b = np.zeros(limit + 1, dtype=np.int64)
        beta = np.zeros(limit + 1, dtype=np.int64)
        rest = n.copy()
        last = np.zeros(limit + 1, dtype=np.int64)
        live = np.nonzero(rest > 1)[0]
        while live.size:
            p = spf[rest[live]]
            big_b[live] += p
            beta[live] += np.where(p != last[live], p, 0)
            last[live] = p
            rest[live] //= p
            live = live[rest[live] > 1]
        self.limit = limit
        self.big_b = big_b
        self.beta = beta

    def shifted(self, a: int, x: int) -> np.ndarray:
        """B_a(n) for 2 <= n <= x."""
        n = np.arange(2, x + 1, dtype=np.int64)
        return np.where(self.prime[2 : x + 1], n + a, self.big_b[2 : x + 1])


def kappa_dp(limit: int) -> list[int]:
    """kappa[m] = partitions of m into primes (coin DP), kappa[0] unused."""
    ways = [1] + [0] * limit
    for p in primes_upto(limit):
        for s in range(p, limit + 1):
            ways[s] += ways[s - p]
    return [0, 0] + ways[2:]


def fibre_solutions(m: int, a: int, bound: int) -> list[int]:
    """All 2 <= n <= bound with B_a(n) = m.

    Composite solutions are the products of prime partitions of m with at
    least two parts (a product of parts >= 2 is at least their sum, which
    prunes the search); the only prime solution is m - a, when prime.
    """
    primes = primes_upto(m)
    out = set()

    def grow(remaining, max_idx, product, parts):
        if remaining == 0:
            if parts >= 2:
                out.add(product)
            return
        for i in range(min(max_idx, bisect.bisect_right(primes, remaining) - 1), -1, -1):
            p = primes[i]
            if remaining - p == 1:
                continue
            # the parts still to come multiply to at least their sum
            if product * p * max(remaining - p, 1) > bound:
                continue
            grow(remaining - p, i, product * p, parts + 1)

    grow(m, len(primes) - 1, 1, 0)
    if m - a >= 2 and m - a <= bound and is_prime_td(m - a):
        out.add(m - a)
    return sorted(out)


# ---------------------------------------------------------------------------
# Checks, one per command kind.  payload is the parsed stdout.


def check_census(payload, a: int, limit: int, probes=()) -> None:
    expect(payload["a"] == a and payload["start_limit"] == limit, "census echoes wrong a or limit")
    cycles = payload["cycles"]
    seen = []
    on_cycle = {}
    for cyc in cycles:
        members = cyc["members"]
        check_cycle(members, a)
        expect(cyc["sign_pattern"] == sign_pattern(members), f"wrong sign pattern for {members}")
        expect(cyc["basin_count"] >= 1, f"cycle {members} has an empty basin")
        seen.append((members[0], len(members)))
        for v in members:
            on_cycle[v] = tuple(members)
    expect(seen == sorted(seen), "cycles are not ordered by (minimum, length)")
    expect(len(on_cycle) == sum(len(c["members"]) for c in cycles), "two cycles share a member")
    expect(sum(c["basin_count"] for c in cycles) == limit - 1, "basin counts do not sum to limit - 1")
    hist = {int(k): v for k, v in payload["stopping_time_histogram"].items()}
    expect(sum(hist.values()) == limit - 1, "stopping-time histogram does not sum to limit - 1")
    expect(payload["max_total_stopping_time"] == max(hist), "max_total_stopping_time is not the largest tail")
    if all(v <= limit for v in on_cycle):
        expect(hist.get(0, 0) == len(on_cycle), "starts with tail 0 are not the cycle members")
    want = expected_nontrivial(a)
    if want is not None:
        got = {tuple(c["members"]) for c in cycles if len(c["members"]) > 1}
        expect(got == want, f"a={a}: cycles {sorted(got)} != reference {sorted(want)}")
    for n in probes:
        v, steps = n, 0
        while v not in on_cycle:
            v = shifted_b_td(v, a)
            steps += 1
            expect(steps <= 10_000, f"start {n} reaches no listed cycle")


def check_sweep(payload, a_max: int) -> None:
    counts = {int(k): v for k, v in payload["counts"].items()}
    expect(sorted(counts) == list(range(1, a_max + 1)), "sweep does not cover a = 1..a_max")
    expect(payload["max"] == max(counts.values()), "sweep max is not the largest count")
    expect(payload["argmax"] == sorted(a for a, c in counts.items() if c == payload["max"]),
           "sweep argmax disagrees with its counts")
    for a, c in counts.items():
        want = expected_nontrivial(a)
        if want is not None:
            expect(c == len(want), f"sweep a={a}: {c} cycles, reference has {len(want)}")
    if a_max >= 39:
        expect(payload["max"] == SWEEP_MAX and payload["argmax"] == SWEEP_ARGMAX,
               f"sweep max {payload['max']} at {payload['argmax']}, expected 4 at [39]")


def check_orbit(payload, n: int, a: int) -> None:
    traj = payload["trajectory"]
    e = payload["entry_index"]
    expect(payload["start"] == n and payload["a"] == a and traj[0] == n, "orbit echoes wrong input")
    expect(len(set(traj[:-1])) == len(traj) - 1 and traj[-1] == traj[e], "trajectory does not end at its first repeat")
    for v, nxt in zip(traj, traj[1:]):
        expect(shifted_b_td(v, a) == nxt, f"orbit step {v} -> {nxt} is not B_{a}")
    expect(payload["cycle"] == traj[e:-1], "cycle is not the trajectory's periodic part")
    expect(payload["total_stopping_time"] == e, "total stopping time is not the entry index")
    drop = next((k for k in range(1, len(traj)) if traj[k] < n), None)
    expect(payload["stopping_time"] == drop, "stopping time is not the first drop below the start")


def check_amicable(payload, p: int) -> None:
    n, a = payload["n"], payload["a"]
    expect(payload["p"] == p and a == n - p and a > 0, "amicable pair echoes wrong p or a")
    f = factor_td(n)
    expect(sum(r for _, r in f) >= 2, f"n={n} is not composite")
    expect(sum(q * r for q, r in f) == p, f"B({n}) != {p}")


def check_chain(payload, k: int, witness) -> None:
    expect([payload["n"], payload["a"], payload["chain"]] == list(witness),
           f"chain k={k}: got {payload}, reference {witness}")


def chain_witness(k: int, bound: int):
    """Smallest odd prime p, then smallest a, with p, p+a, ..., p+ka all prime."""
    for p in range(3, bound + 1, 2):
        if not is_prime_td(p):
            continue
        for a in range(1, bound + 1):
            chain = [p + i * a for i in range(k + 1)]
            if all(is_prime_td(v) for v in chain[1:]):
                return (p, a, chain)
    return None


def check_fibre(payload, m: int, a: int, bound: int) -> None:
    want = fibre_solutions(m, a, bound)
    expect(payload["solutions"] == want, f"fibre m={m} a={a}: {payload['solutions'][:8]} != {want[:8]}")


def check_kappa(payload, limit: int, ref: list[int]) -> None:
    got = payload["kappa"]
    expect(len(got) == limit, f"kappa lists {len(got)} values, expected {limit}")
    for m in range(1, limit + 1):
        expect(int(got[str(m)]) == ref[m], f"kappa({m}) = {got[str(m)]}, reference {ref[m]}")


def checkpoints(x: int) -> list[int]:
    cps, c = [], 10
    while c < x:
        cps.append(c)
        c *= 10
    return cps + [x]


def check_stats(payload, mode: str, a: int, x: int, q: int, tables: Tables) -> None:
    f = tables.shifted(a, x)
    if mode == "residue":
        counts = np.bincount(f % q, minlength=q)
        want = {str(h): int(counts[h]) for h in range(q)}
        expect(payload["counts"] == want, f"residue counts mod {q} disagree")
        return
    if mode == "avg":
        values, ref = f, lambda c: math.pi**2 * c * c / (12 * math.log(c))
        ratio = lambda c, s, r: s / r
    elif mode == "bmb":
        values = tables.big_b[2 : x + 1] - tables.beta[2 : x + 1]
        ref = lambda c: c * math.log(math.log(c))
        ratio = lambda c, s, r: (s - r) / c
    elif a % 2 == 0:  # parity, even shift
        values, ref = 1 - 2 * (f & 1), lambda c: 0.0
        ratio = lambda c, s, r: abs(s) / c
    else:
        values, ref = 1 - 2 * (f & 1), lambda c: 2 * c / math.log(c)
        ratio = lambda c, s, r: s / r
    csum = np.cumsum(values)
    rows = payload["rows"]
    cps = checkpoints(x)
    expect([r["x"] for r in rows] == cps, f"{mode} checkpoints {[r['x'] for r in rows]} != {cps}")
    for row, c in zip(rows, cps):
        s = int(csum[c - 2])
        expect(row["sum"] == s, f"{mode} partial sum at {c}: {row['sum']} != {s}")
        r = ref(c)
        expect(math.isclose(row["reference"], r, rel_tol=1e-9, abs_tol=1e-12), f"{mode} reference at {c}")
        expect(math.isclose(row["ratio"], ratio(c, s, r), rel_tol=1e-9, abs_tol=1e-12), f"{mode} ratio at {c}")


def check_density(payload, target: str, x: int, tables: Tables) -> None:
    values = tables.big_b[2 : x + 1]
    if target == "primes":
        hit = tables.prime[values]
    else:
        root = np.sqrt(values).astype(np.int64)
        hit = (root * root == values) | ((root + 1) ** 2 == values)
    count = int(np.count_nonzero(hit))
    expect(payload["count"] == count, f"density {target} x={x}: count {payload['count']} != {count}")
    expect(math.isclose(payload["density"], count / x, rel_tol=1e-12), "density is not count / x")


# ---------------------------------------------------------------------------
# The checker must be able to fail: these inputs are wrong and must be rejected.


def self_test() -> list[str]:
    """Run known-good and known-bad inputs through the checks; return problems."""
    problems = []

    def must(accept, label, fn, *args):
        try:
            fn(*args)
            ok = accept
        except CheckError:
            ok = not accept
        if not ok:
            problems.append(f"{label} was {'rejected' if accept else 'accepted'}")

    must(True, "corrected a=9 row (5, 14, 9, 6)", check_cycle, CORRECTIONS[9][0], 9)
    must(False, "verbatim a=9 catalog row (5, 15, 9, 6)", check_cycle, CATALOG[9][0], 9)
    fibre = {"solutions": [7, 10, 12]}  # B(n) = 7 for n <= 1000, from the README
    must(True, "fibre m=7", check_fibre, fibre, 7, 0, 1000)
    must(False, "corrupted fibre m=7", check_fibre, {"solutions": [7, 10, 14]}, 7, 0, 1000)
    known = [0, 1, 1, 1, 2, 2, 3, 3, 4, 5]  # kappa(1..10)
    good = {"kappa": {str(m): str(v) for m, v in enumerate(known, 1)}}
    bad = {"kappa": dict(good["kappa"], **{"10": "6"})}
    ref = kappa_dp(10)
    must(True, "kappa 1..10", check_kappa, good, 10, ref)
    must(False, "corrupted kappa(10) = 6", check_kappa, bad, 10, ref)
    return problems
