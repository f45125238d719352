"""The benchmark's workloads: seeded command lists and the check for each.

A plan is an endless iterator of children; a child is the list of Ops one
fresh process runs in a closed loop.  Only Op.argv reaches the program;
Op.kind and Op.params tell the parent which reference check applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

CENSUS_LIMIT = 10_000_000
SWEEP_A_MAX, SWEEP_LIMIT = 200, 1_000_000


@dataclass
class Op:
    argv: list[str]
    kind: str
    params: dict


def census_plan(seed: int):
    """One 10^7 census per child, shift A drawn from 1..200."""
    rng = random.Random(f"census-1e7/{seed}")
    while True:
        a = rng.randint(1, 200)
        probes = [rng.randint(2, CENSUS_LIMIT) for _ in range(4)]
        argv = ["--format", "json", "census", "--a", str(a), "--limit", str(CENSUS_LIMIT)]
        yield [Op(argv, "census", {"a": a, "limit": CENSUS_LIMIT, "probes": probes})]


def sweep_plan(seed: int):
    """The paper's sweep, serial; the seed does not change it."""
    argv = ["--threads", "1", "--format", "json", "sweep",
            "--a-max", str(SWEEP_A_MAX), "--limit", str(SWEEP_LIMIT)]
    while True:
        yield [Op(argv, "sweep", {"a_max": SWEEP_A_MAX})]


_PRIMES_1E6: list[int] = []


def _amicable_prime(rng: random.Random) -> int:
    """A prime 3 < p <= 10^6 whose 2-cycle stays in the signed 64-bit range.

    build_amicable takes q = the prime below p and d = p - q, and forms
    n = q * a'^(d / a') from the largest prime a' dividing d.  A few of the
    widest gaps below 10^6 (d = 96, 100, 108, ...) push n past 2^63 - 1,
    where the command exits 2 by design; those p are drawn again.
    """
    if not _PRIMES_1E6:
        _PRIMES_1E6.extend(oracle.primes_upto(10**6))
    while True:
        i = rng.randrange(2, len(_PRIMES_1E6))  # p >= 5
        p, q = _PRIMES_1E6[i], _PRIMES_1E6[i - 1]
        d = p - q
        factors = oracle.factor_td(d)
        big = factors[-1][0]
        if d == big or q * big ** (d // big) <= oracle.WORD_MAX:
            return p


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k draws from [lo, hi], the i-th from the i-th of k equal slices.

    Every child then holds the same spread of sizes, so per-child cost and
    latency quantiles vary little from child to child and seed to seed.
    """
    width = (hi - lo + 1) / k
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(k)]


def queries_child(rng: random.Random) -> list[Op]:
    """40 small commands: 28 cheap (orbit, amicable, chain), 12 table-bound.

    Most cheap commands cost one 10^6 sieve, so they form a tight cluster
    that holds the median command; with half of the commands cheap, the
    median fell between that cluster and the steep orbit/kappa range and
    moved by 20% from seed to seed.
    """
    ops = []
    for n in strata(rng, 2, 4_000_000, 8):
        a = rng.randint(0, 200)
        ops.append(Op(["--format", "json", "orbit", "--n", str(n), "--a", str(a)], "orbit", {"n": n, "a": a}))
    for _ in range(10):
        p = _amicable_prime(rng)
        ops.append(Op(["--format", "json", "amicable", "--p", str(p)], "amicable", {"p": p}))
    for _ in range(10):
        k = rng.randint(1, 5)
        ops.append(Op(["--format", "json", "chain", "--k", str(k), "--bound", "1000"], "chain", {"k": k, "bound": 1000}))
    for m in strata(rng, 2, 10_000, 2):
        a = rng.randint(0, 50)
        ops.append(Op(["--format", "json", "fibre", "--m", str(m), "--a", str(a), "--bound", "100000"],
                      "fibre", {"m": m, "a": a, "bound": 100_000}))
    modes = ["avg", "bmb", "parity", "residue"]
    rng.shuffle(modes)
    for mode, x in zip(modes, strata(rng, 100_000, 1_000_000, 4)):
        a, q = rng.randint(0, 200), rng.randint(3, 12)
        ops.append(Op(["--format", "json", "stats", mode, "--a", str(a), "--x", str(x), "--q", str(q)],
                      "stats", {"mode": mode, "a": a, "x": x, "q": q}))
    for target, k in (("primes", 2), ("squares", 1)):
        for x in strata(rng, 500_000, 1_000_000, k):
            ops.append(Op(["--format", "json", "density", "--set", target, "--x", str(x)],
                          "density", {"target": target, "x": x}))
    for limit in strata(rng, 100, 3000, 3):
        ops.append(Op(["--format", "json", "kappa", "--limit", str(limit)], "kappa", {"limit": limit}))
    rng.shuffle(ops)
    return ops


def queries_plan(seed: int):
    i = 0
    while True:
        yield queries_child(random.Random(f"queries/{seed}/{i}"))
        i += 1


PLANS = {"census-1e7": census_plan, "sweep-200": sweep_plan, "queries": queries_plan}

# Orbit starts one command resolves, for starts_per_s (census and sweep only).
STARTS_PER_OP = {"census-1e7": CENSUS_LIMIT - 1, "sweep-200": SWEEP_A_MAX * (SWEEP_LIMIT - 1)}


class Checker:
    """Applies the reference check for each op; builds shared references once."""

    def __init__(self):
        self._tables = None
        self._kappa: list[int] = []
        self._chains: dict[tuple[int, int], tuple] = {}

    def tables(self) -> oracle.Tables:
        if self._tables is None:
            self._tables = oracle.Tables(1_000_000)
        return self._tables

    def kappa(self, limit: int) -> list[int]:
        if len(self._kappa) <= limit:
            self._kappa = oracle.kappa_dp(max(limit, 3000))
        return self._kappa

    def check(self, op: Op, payload) -> None:
        p = op.params
        if op.kind == "census":
            oracle.check_census(payload, p["a"], p["limit"], p["probes"])
        elif op.kind == "sweep":
            oracle.check_sweep(payload, p["a_max"])
        elif op.kind == "orbit":
            oracle.check_orbit(payload, p["n"], p["a"])
        elif op.kind == "amicable":
            oracle.check_amicable(payload, p["p"])
        elif op.kind == "chain":
            key = (p["k"], p["bound"])
            if key not in self._chains:
                self._chains[key] = oracle.chain_witness(*key)
            oracle.check_chain(payload, p["k"], self._chains[key])
        elif op.kind == "fibre":
            oracle.check_fibre(payload, p["m"], p["a"], p["bound"])
        elif op.kind == "stats":
            oracle.check_stats(payload, p["mode"], p["a"], p["x"], p["q"], self.tables())
        elif op.kind == "density":
            oracle.check_density(payload, p["target"], p["x"], self.tables())
        elif op.kind == "kappa":
            oracle.check_kappa(payload, p["limit"], self.kappa(p["limit"]))
        else:
            raise oracle.CheckError(f"no check for {op.kind}")
