import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primeshift import DomainError
from primeshift import sieve as sieve_mod
from primeshift.sieve import CHUNK, build_sieve, covering, factorize, is_prime, spf_windows, zeros


def trial_division_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def masked_sieve_oracle(limit):
    """Smallest prime factors by the masked ascending sieve (fill zeros only)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    spf[:2] = 0
    return spf


# build_sieve writes CHUNK-entry segments.  Besides every small limit, test
# the limits at and around segment ends, and around p^2 for the primes p
# just above sqrt(CHUNK) and sqrt(2 * CHUNK), where the set of primes that
# sieve a segment changes inside it.
LIMITS = [
    *range(2, 1001),
    *(CHUNK + d for d in (-1, 0, 1)),
    2 * CHUNK + 1,
    *(p * p + d for p in (521, 523, 727, 733) for d in (-1, 0, 1)),
    10**6,
]


def test_spf_matches_masked_sieve():
    for limit in LIMITS:
        spf = build_sieve(limit).spf
        assert spf.dtype == np.int32
        assert np.array_equal(spf, masked_sieve_oracle(limit)), limit


def test_windows_match_whole_sieve():
    # spf_windows streams the table build_sieve holds whole, 0 and 1
    # included, in windows [0, 2), then [w, min(2w, w + CHUNK)): they start
    # at 0, 2, 4, ..., CHUNK / 2, then every CHUNK entries.
    starts = [0, *(2**k for k in range(1, CHUNK.bit_length() - 1)), *range(CHUNK, 4 * CHUNK, CHUNK)]
    powers = (2**k + d for k in range(2, CHUNK.bit_length()) for d in (-1, 1))
    for limit in (2, 3, *powers, CHUNK, 3 * CHUNK + 5):
        windows = list(spf_windows(limit))
        assert [w for w, _ in windows] == [w for w in starts if w <= limit], limit
        got = np.concatenate([seg for _, seg in windows])
        assert np.array_equal(got, masked_sieve_oracle(limit)), limit


def test_primes_match_full_index_scan():
    # primes() makes no full-length index, and must agree with the scan
    # that did, here over the oracle's table.
    for limit in LIMITS:
        full = np.nonzero(masked_sieve_oracle(limit) == np.arange(limit + 1))[0]
        expected = full[full >= 2]
        got = build_sieve(limit).primes()
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), limit


def test_spf_small():
    t = build_sieve(10)
    assert t.spf.tolist()[2:] == [2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_spf_smallest_case():
    t = build_sieve(2)
    assert int(t.spf[2]) == 2


def test_spf_invariants(table):
    n = np.arange(table.limit + 1)
    spf = table.spf
    # spf divides n and spf <= sqrt(n) for composites
    composite = (spf != n) & (n >= 2)
    assert np.all(n[composite] % spf[composite] == 0)
    assert np.all(spf[composite].astype(np.int64) ** 2 <= n[composite])


def test_spf_large_prime(table):
    # 999983 is prime by trial division; the sieve must agree
    assert trial_division_is_prime(999983)
    assert int(table.spf[999983]) == 999983


def test_sieve_immutable(table):
    with pytest.raises(ValueError):
        table.spf[10] = 1


def test_sieve_domain():
    with pytest.raises(DomainError):
        build_sieve(1)


def test_covering_shares_one_table_up_to_2_16(monkeypatch):
    # covering(top) is one read-only 2^16 table, built once, for every top
    # it reaches, and a fresh table of limit top, built each call, above.
    built = []
    monkeypatch.setattr(sieve_mod, "build_sieve", lambda limit: built.append(limit) or build_sieve(limit))
    shared = covering(2**16)
    assert shared.limit == 2**16 and not shared.spf.flags.writeable
    assert covering(0) is shared and covering(2**16) is shared
    fresh = covering(2**16 + 1)
    assert fresh.limit == 2**16 + 1 and covering(2**16 + 1) is not fresh
    assert built == [2**16, 2**16 + 1, 2**16 + 1]


def test_zeros_names_its_input_when_numpy_refuses(monkeypatch):
    # numpy's own MemoryError names only the array's shape and dtype.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 4.66 GiB for an array with shape (5000131251,)")

    monkeypatch.setattr(np, "zeros", refuse)
    bound = "census of a=39 with --limit 10000000000"
    with pytest.raises(MemoryError, match="^census of a=39 with --limit 10000000000 needs a "
                                          "10000262502-byte table, more than is free$"):
        zeros(5000131251, np.uint16, bound)


def test_factorize_examples(table):
    assert factorize(12, table) == ((2, 2), (3, 1))
    assert factorize(97, table) == ((97, 1),)
    assert factorize(999999, table) == (
        (3, 3), (7, 1), (11, 1), (13, 1), (37, 1),
    )


def test_factorize_domain(table):
    with pytest.raises(DomainError):
        factorize(1, table)
    with pytest.raises(DomainError):
        factorize(0, table)


def test_factorize_above_limit():
    small = build_sieve(1000)
    # prime, semiprime and prime power beyond the sieve range
    assert factorize(10**6 + 3, small) == ((10**6 + 3, 1),)
    f = factorize(999983 * 999979, small)
    assert f == ((999979, 1), (999983, 1))
    f = factorize(999983**2, small)
    assert f == ((999983, 2),)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_roundtrip(table, n):
    f = factorize(n, table)
    assert math.prod(p**r for p, r in f) == n
    ps = [p for p, _ in f]
    assert ps == sorted(set(ps))
    assert all(is_prime(p, table) for p in ps)
    assert all(r >= 1 for _, r in f)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_is_prime_mr_agrees_with_sieve(table, n):
    assert is_prime(n) == is_prime(n, table)


def test_is_prime_examples(table):
    assert is_prime(2, table)
    assert not is_prime(1, table)
    assert not is_prime(0, table)
    assert trial_division_is_prime(10**6 + 3)
    assert is_prime(10**6 + 3)  # above any small table: Miller-Rabin path


def test_is_prime_mr_vs_trial_division_window():
    for n in range(10**6 + 1, 10**6 + 200):
        assert is_prime(n) == trial_division_is_prime(n)
