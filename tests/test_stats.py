import math
import tracemalloc

import numpy as np
import pytest

from oracles import excess_tail_count, prime_count, shifted_beta, shifted_map, small_beta
from primeshift import (
    DomainError,
    RangeOverflowError,
    average_order_series,
    b_minus_beta_series,
    estimate_local_density,
    parity_sum,
    preimage_density,
    residue_distribution,
)
from primeshift import sieve as sieve_mod
from primeshift import stats as stats_mod
from primeshift.arith import big_B, shifted_B
from primeshift.tables import prime_marks


def test_average_order_hand_sum():
    # B(2..10) = 2,3,4,5,5,7,6,6,7 summing to 45; a shifts add a*pi(10) = 4a
    s = average_order_series(0, [10])
    assert s.sums == (45,)
    for a in (1, 4, 9):
        sa = average_order_series(a, [10])
        assert sa.sums[0] == 45 + 4 * a


def test_shift_decomposition_exact(table):
    # sum B_a - sum B = a * pi(x), exactly
    for a, x in ((1, 10**5), (10, 10**6), (7, 12345)):
        base = average_order_series(0, [x]).sums[0]
        shifted = average_order_series(a, [x]).sums[0]
        assert shifted - base == a * prime_count(table, x)


def test_average_order_ratio_band():
    s = average_order_series(0, [10**4, 10**5, 10**6])
    for r in s.ratios:
        assert 0.9 < r < 1.4
    assert abs(s.ratios[0] - 1) > abs(s.ratios[1] - 1) > abs(s.ratios[2] - 1)


def test_bmb_hand_sum():
    # non-squarefree n <= 16 contribute 4:2, 8:4, 9:3, 12:2, 16:6 -> 17
    s = b_minus_beta_series(0, [16])
    assert s.sums == (17,)


def test_bmb_shift_invariant(table):
    # B_a - beta_a = B - beta pointwise, hence identical partial sums
    for n in (9, 10, 97, 360, 1024):
        for a in (0, 1, 12):
            assert shifted_B(n, a, table) - shifted_beta(n, a, table) == big_B(
                n, table
            ) - small_beta(n, table)
    s0 = b_minus_beta_series(0, [10**5])
    for a in (1, 2, 33):
        assert b_minus_beta_series(a, [10**5]).sums == s0.sums


def test_bmb_bounded_error():
    s = b_minus_beta_series(0, [10**4, 10**5, 10**6])
    # (sum - x log log x) / x stays bounded
    assert all(abs(r) < 1.0 for r in s.ratios)


def test_local_density_squarefree():
    d = estimate_local_density(0, 10**6)
    assert abs(d - 6 / math.pi**2) < 0.01


def test_local_density_one_is_empty():
    # B - beta = 1 is impossible: any excess comes from p(r-1) >= 2
    for x in (10**4, 10**6):
        assert estimate_local_density(1, x) == 0.0


def test_local_density_two_stable():
    d5 = estimate_local_density(2, 10**5)
    d6 = estimate_local_density(2, 10**6)
    assert d6 > 0
    assert abs(d5 - d6) < 5e-4  # stable to three decimal places


def test_excess_tail_counts_monotone(b_values, beta_values):
    counts = [excess_tail_count(K, 10**6, b_values, beta_values) for K in (4, 8, 16)]
    assert counts[0] > counts[1] > counts[2] > 0


def test_parity_even_shift_matches_unshifted():
    # (-1)^(p + 2) = (-1)^p, so even shifts do not move the parity sum
    s0 = parity_sum(0, [10**5])
    s2 = parity_sum(2, [10**5])
    assert s0.sums == s2.sums


def test_parity_even_small():
    s = parity_sum(0, [10**6])
    assert abs(s.sums[0]) / 10**6 < 0.02


def test_parity_odd_tracks_primes(table):
    s = parity_sum(1, [10**6])
    assert 0.7 < s.sums[0] / (2 * prime_count(table, 10**6)) < 1.3


def test_residue_distribution():
    counts = residue_distribution(0, 3, 10**6)
    assert sum(counts) == 10**6 - 1
    for h in range(3):
        assert abs(counts[h] - 10**6 / 3) < 0.05 * 10**6 / 3
    with pytest.raises(DomainError):
        residue_distribution(0, 2, 100)


def test_residue_shifted_comparison():
    base = residue_distribution(0, 3, 10**6)
    shifted = residue_distribution(1, 3, 10**6)
    dev = lambda c: max(abs(v - 10**6 / 3) for v in c)
    # recorded for comparison; both stay within a few percent of uniform
    assert dev(shifted) < 0.05 * 10**6
    assert dev(base) < 0.05 * 10**6


def test_checkpoint_validation():
    # Every sum runs over 2 <= n <= x, so a checkpoint below 2 is a domain
    # error, named in the message, whatever the other checkpoints.
    for cps in ([1], [0, 10], [10, -3]):
        with pytest.raises(DomainError, match=f"x={min(cps)}"):
            average_order_series(0, cps)
    # bmb sums in int64, so it refuses an x past 2^63 - 1 before it sieves,
    # and so does the local density, from the same prime powers
    with pytest.raises(RangeOverflowError, match=f"--x {2**63} exceeds"):
        b_minus_beta_series(0, [10, 2**63])
    with pytest.raises(RangeOverflowError, match=f"--x {2**63} exceeds the 64-bit range"):
        estimate_local_density(0, 2**63)


def test_stats_across_segments(monkeypatch, oracle_values):
    # With 64-entry segments, x = 10^4 streams 157 of them; checkpoints
    # sit on both sides of every segment boundary.  The local density walks
    # [2, x] in 64-entry windows of its own, so the prime powers from 64 on
    # take its np.add.at and the shorter ones its strided slices.
    for mod in (sieve_mod, stats_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    x = 10**4
    cps = sorted({2, x, *(64 * k + d for k in range(1, 157) for d in (-1, 0, 1))})
    b, beta, prime = (v[: x + 1] for v in oracle_values)
    excess = b - beta
    # bmb sums over the prime powers p^k <= c with k >= 2: a checkpoint on
    # each, and on both sides of it, takes each term as it enters
    roots = np.flatnonzero(prime[: math.isqrt(x) + 1]).tolist()
    powers = [p**k for p in roots for k in range(2, x.bit_length()) if p**k <= x]
    bmb_cps = sorted({*cps, *(q + d for q in powers for d in (-1, 0, 1))})
    want = tuple(int(excess[2 : c + 1].sum()) for c in bmb_cps)
    assert b_minus_beta_series(0, bmb_cps).sums == want
    # the whole histogram of B - beta, and one N past its largest value, at
    # x on both sides of the first window edges
    for top in (2, 3, 63, 64, 65, 66, 128, 129, 130, x):
        values = excess[2 : top + 1]
        for N in range(int(values.max()) + 2):
            assert estimate_local_density(N, top) == int(np.count_nonzero(values == N)) / top, (N, top)
    for a in (0, 7):
        f = shifted_map(b, prime, a)
        signs = 1 - 2 * (f & 1)
        assert average_order_series(a, cps).sums == tuple(int(f[2 : c + 1].sum()) for c in cps)
        assert parity_sum(a, cps).sums == tuple(int(signs[2 : c + 1].sum()) for c in cps)
        counts = np.bincount(f[2:] % 5, minlength=5)
        assert residue_distribution(a, 5, x) == counts.tolist()


def test_stats_peak_memory():
    # avg's bytes per n at the peak, numpy buffers included: the stream's B
    # at the odd n <= x // 2 (int32, 1 B per n) and the buffers of the
    # segment held and the one built next; no table spans the range.  bmb
    # streams nothing: its peak is the shared 2^16 sieve that covering
    # builds for the primes up to isqrt(x) = 2000.  The local density
    # holds that sieve and one int64 window of 2^17 entries at a time.
    # Measured: 1.44 B per n, 466,099 B and 1,509,792 B, bounded with 10%
    # headroom.  Each query builds the shared sieve afresh, so none reads
    # it from the one before.
    x = 4 * 10**6
    for query, args, bound in (
        (average_order_series, (3, [x]), 1.59 * x),
        (b_minus_beta_series, (3, [x]), 513_000),
        (estimate_local_density, (0, x), 1_661_000),
    ):
        sieve_mod._shared.cache_clear()
        tracemalloc.start()
        try:
            query(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, query.__name__


def test_preimage_density_peak_memory():
    # Bytes per n at the peak: the target mask (1 B per n), the stream's
    # B at the odd n <= x // 2 (1 B per n) and the segments' buffers; B
    # itself is never gathered over the range.  Measured: 2.43 B, bounded
    # with 10% headroom.
    x = 4 * 10**6
    tracemalloc.start()
    try:
        preimage_density(prime_marks, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.68 * x
