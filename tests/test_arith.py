import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import shifted_beta, small_beta
from primeshift import DomainError, RangeOverflowError
from primeshift.arith import big_B, check_shift, shifted_B
from primeshift.dynamics import iterate_orbit
from primeshift.sieve import WORD_MAX, is_prime
from primeshift.sieve import CHUNK
from primeshift.tables import segments, shifted_segments


def test_big_b_examples(table):
    assert big_B(12, table) == 7
    assert big_B(4, table) == 4  # the unique fixed point
    for p in (2, 3, 97, 999983):
        assert big_B(p, table) == p
        assert small_beta(p, table) == p


def test_small_beta_examples(table):
    assert small_beta(12, table) == 5
    assert small_beta(8, table) == 2
    assert small_beta(999999, table) == 3 + 7 + 11 + 13 + 37


def test_shifted_examples(table):
    assert shifted_B(5, 2, table) == 7
    assert shifted_B(9, 2, table) == 6
    assert shifted_B(4, 17, table) == 4
    assert shifted_beta(5, 2, table) == 7
    assert shifted_beta(12, 2, table) == 5


def test_domain_floor(table):
    for fn in (big_B, small_beta):
        with pytest.raises(DomainError):
            fn(1, table)
        with pytest.raises(DomainError):
            fn(0, table)
    with pytest.raises(DomainError):
        shifted_B(1, 3, table)


def test_extended_domain():
    # B(0) = 0 and B(1) = 1; neither is prime so the shift never applies.
    # Only a start can be 0 or 1, so the orbit, not the map, extends them.
    for a in (0, 50):
        for n in (0, 1):
            assert iterate_orbit(n, a, extend_domain=True).trajectory == (n, n)
        with pytest.raises(DomainError):
            iterate_orbit(-1, a, extend_domain=True)


def test_shift_validation():
    with pytest.raises(DomainError, match=r"^--a must be >= 0, got -1$"):
        check_shift(-1)


def test_overflow_reported(table):
    p = 999983  # prime
    with pytest.raises(RangeOverflowError):
        shifted_B(p, WORD_MAX, table)
    # 997 + a = 2^63 - 1 is the last prime step that fits.
    assert shifted_B(997, WORD_MAX - 997, table) == WORD_MAX
    message = r"^997 \+ 9223372036854774811 exceeds the 64-bit range$"
    with pytest.raises(RangeOverflowError, match=message):
        shifted_B(997, 9223372036854774811, table)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=2, max_value=3000),
    st.integers(min_value=0, max_value=20),
)
def test_additivity_iff_not_prime(table, m, n, a):
    # B_a(mn) = B_a(m) + B_a(n) exactly when neither factor is prime
    if math.gcd(m, n) != 1:
        return
    lhs = shifted_B(m * n, a, table)
    rhs = shifted_B(m, a, table) + shifted_B(n, a, table)
    both_composite = not is_prime(m, table) and not is_prime(n, table)
    if both_composite:
        assert lhs == rhs
    elif a > 0:
        assert lhs != rhs


def test_power_rule(table):
    # B(n^k) = k * B(n), and B_a agrees with B whenever n^k is composite
    for n in range(2, 1001):
        bn = big_B(n, table)
        for k in range(2, 6):
            assert big_B(n**k, table) == k * bn
            assert shifted_B(n**k, 7, table) == k * bn


def _streamed(limit, stream):
    """V over [0, limit] from a segment stream of (s, v)."""
    out = np.zeros(limit + 1, dtype=np.int64)
    for s, v in stream:
        out[s : s + v.size] = v
    return out


def test_beta_le_b_exhaustive(b_values, beta_values):
    # beta <= B with equality exactly on squarefree n, for all n <= 10^6,
    # in the oracle's sums
    n = np.arange(2, 10**6 + 1)
    b = b_values[2 : 10**6 + 1]
    beta = beta_values[2 : 10**6 + 1]
    assert np.all(beta <= b)
    spf_squarefree = np.ones(10**6 + 1, dtype=bool)
    for p in range(2, 1001):
        if is_prime(p):
            spf_squarefree[p * p :: p * p] = False
    assert np.array_equal(beta == b, spf_squarefree[n])


def test_value_table_matches_scalar(table, b_values, beta_values):
    # Fixed cases, every n <= 2*10^4, then seeded random n up to 10^6, and
    # every n within 50 of a multiple of CHUNK, where the stream changes
    # segments: the oracle's sums and the stream's B and B_a against the
    # scalar functions.
    rng = np.random.default_rng(20240)
    ns = [97, 360, 999999, 6469693230 % 10**6, *range(2, 2 * 10**4 + 1)]
    ns += rng.integers(2, 10**6 + 1, 2000).tolist()
    ns += [n for c in range(CHUNK, 10**6 + 1, CHUNK) for n in range(c - 50, c + 51)]
    b = _streamed(10**6, segments(10**6))
    for n in ns:
        big, beta = big_B(n, table), small_beta(n, table)
        assert (int(b_values[n]), int(beta_values[n])) == (big, beta), n
        assert int(b[n]) == big, n
    for a in (0, 1, 39):
        f = _streamed(10**6, shifted_segments(a, 10**6))
        for n in ns:
            assert int(f[n]) == shifted_B(n, a, table), (n, a)


def test_composite_decrease(table):
    # B(n) < n for composite n > 4
    for n in range(5, 5000):
        if not is_prime(n, table):
            assert big_B(n, table) < n
