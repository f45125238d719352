import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    enumerate_fibre_exact,
    kappa_asymptotic_ratio,
    kappa_recursion,
    prime_partitions,
    prime_power_sums,
    shifted_map,
)
from primeshift import (
    DomainError,
    build_kappa,
    enumerate_fibre,
    preimage_density,
)
from primeshift import sieve as sieve_mod
from primeshift.arith import shifted_B
from primeshift.sieve import build_sieve, is_prime


def partition_count_oracle(limit, table):
    """Independent prime-partition counter (coin-style DP, no beta)."""
    ways = [0] * (limit + 1)
    ways[0] = 1
    for p in range(2, limit + 1):
        if is_prime(p, table):
            for v in range(p, limit + 1):
                ways[v] += ways[v - p]
    return ways


def test_kappa_examples(kappa60):
    assert kappa60[1] == 0
    assert kappa60[2] == 1
    assert kappa60[7] == 3  # {7}, {5,2}, {3,2,2}


def test_kappa_vs_oracle(table, kappa60):
    oracle = partition_count_oracle(60, table)
    for m in range(1, 61):
        assert kappa60[m] == oracle[m], f"m={m}"


def test_kappa_vs_enumeration(table, kappa60):
    for m in range(2, 31):
        assert kappa60[m] == sum(1 for _ in prime_partitions(m, table))


def test_kappa_matches_recursion_oracle(table):
    # the paper's beta-weighted recursion, with its exact-division check
    assert list(build_kappa(1000).kappa) == kappa_recursion(1000, table)


def test_kappa_positive_from_two(kappa60):
    assert all(kappa60[m] >= 1 for m in range(2, 61))


def test_kappa_domain():
    with pytest.raises(DomainError):
        build_kappa(0)
    kt = build_kappa(5)
    with pytest.raises(DomainError):
        kt[6]


def test_fibre_examples():
    assert enumerate_fibre(7, 0, 10**3) == [7, 10, 12]
    assert enumerate_fibre(4, 0, 10**2) == [4]
    # shifting only moves the prime preimage: 7 - 3 = 4 is composite, so
    # the solution set at a=3 is just the composite part {10, 12}
    assert enumerate_fibre(7, 3, 10**3) == [10, 12]
    # the bound is inclusive: twenty parts of 2 give 2^20
    assert enumerate_fibre(40, 0, 2**20)[-1] == 2**20


def test_fibre_scalar_path_matches_vectorized(table):
    for m, a in ((7, 0), (12, 5), (30, 2)):
        fast = enumerate_fibre(m, a, 500)
        slow = [n for n in range(2, 501) if shifted_B(n, a, table) == m]
        assert fast == slow


def test_fibre_matches_step_map_scan():
    rng = random.Random(20)
    cases = [(rng.randint(2, 10**4), rng.randint(0, 50)) for _ in range(20)]
    cases += [(m, a) for m in range(2, 60) for a in (0, 3, 17)]
    b, _, prime = prime_power_sums(10**5)
    maps = {a: shifted_map(b, prime, a) for _, a in cases}
    for m, a in cases:
        scan = (np.flatnonzero(maps[a][2:] == m) + 2).tolist()
        assert enumerate_fibre(m, a, 10**5) == scan, (m, a)


@pytest.mark.parametrize("a", [0, 3])
def test_fibre_tables_around_the_shared_limit(monkeypatch, a):
    # Parts of a composite solution are <= top = min(m - 2, bound // 2), and
    # enumerate_fibre reads covering(top): the shared 2^16 table up to 2^16,
    # a fresh one above.  Both ways of setting top are met at 2^16 - 1,
    # 2^16 and 2^16 + 1; 65537 is prime, so at 2^16 + 1 the part 65537
    # itself is a solution's part (2 * 65537 under m = 65539).
    built, build_sieve = [], sieve_mod.build_sieve
    monkeypatch.setattr(sieve_mod, "build_sieve", lambda limit: built.append(limit) or build_sieve(limit))
    b, _, prime = prime_power_sums(2 * (2**16 + 1) + 100)
    f = shifted_map(b, prime, a)
    for top in (2**16 - 1, 2**16, 2**16 + 1):
        cases = [(m, bound) for m in range(top + 2, top + 12) for bound in (2 * top, 2 * top + 1)]
        cases += [(top + 2, 2 * top + 100)]
        for m, bound in cases:
            del built[:]
            scan = (np.flatnonzero(f[2 : bound + 1] == m) + 2).tolist()
            assert enumerate_fibre(m, a, bound) == scan, (m, a, bound)
            assert built in ([], [2**16]) if top <= 2**16 else built == [top], (m, bound, built)
    assert enumerate_fibre(2**16 + 3, a, 2 * (2**16 + 1))[-1] == 2 * 65537


def test_fibre_partition_bijection(table, kappa60):
    # products of prime partitions enumerate the whole fibre of B over m
    for m in range(2, 41):
        exact = enumerate_fibre_exact(m, table)
        assert len(exact) == kappa60[m]
        bounded = enumerate_fibre(m, 0, max(exact))
        assert bounded == exact


def test_fibre_has_composite_solution(table):
    for m in range(5, 1001):
        fibre = enumerate_fibre(m, 0, table.limit)
        assert any(not is_prime(n, table) for n in fibre), f"m={m}"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=20))
def test_fibre_shift_independence(m, a):
    # fibres at shift a and shift 0 differ at most at {m - a, m}
    base = set(enumerate_fibre(m, 0, 10**4))
    shifted = set(enumerate_fibre(m, a, 10**4))
    assert base.symmetric_difference(shifted) <= {m - a, m}


def test_kappa_ratio_trend():
    kt = build_kappa(1000)
    r100 = kappa_asymptotic_ratio(100, kt)
    r1000 = kappa_asymptotic_ratio(1000, kt)
    assert 0 < r100 < r1000 < 1.1
    assert 0.5 < r1000 < 1.1
    # boundary case: kappa(3) = 1 so the ratio is exactly 0
    assert kappa_asymptotic_ratio(3, kt) == 0.0


def _ks(lo, spf):
    return np.arange(lo, lo + spf.size)


def test_preimage_density():
    count, density = preimage_density(lambda lo, spf: _ks(lo, spf) == 7, 10**3)
    assert count == 3 and density == 3 / 10**3
    count, density = preimage_density(lambda lo, spf: np.zeros(spf.size, dtype=bool), 10**3)
    assert (count, density) == (0, 0.0)


def test_preimage_density_calls_predicate_once(monkeypatch, b_values):
    # The target is called once per segment, in order, with that segment's
    # sieve: every k in [0, x] is offered once.  The segments double from
    # [2, 4) up to CHUNK entries.
    monkeypatch.setattr(sieve_mod, "CHUNK", 2**10)
    x = 5000
    spf = build_sieve(x).spf
    seen = []

    def counted(lo, seg):
        seen.append(lo)
        assert np.array_equal(seg, spf[lo : lo + seg.size])
        return _ks(lo, seg) % 2 == 0

    count, _ = preimage_density(counted, x)
    assert seen == [0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072, 4096]
    assert count == int(np.count_nonzero(b_values[2 : x + 1] % 2 == 0))


@pytest.mark.parametrize("x", [1, 0, -5])
def test_preimage_density_rejects_x_below_two(x):
    with pytest.raises(DomainError, match=f"x={x}"):
        preimage_density(lambda lo, spf: np.ones(spf.size, dtype=bool), x)
