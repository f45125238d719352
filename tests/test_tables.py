"""The segment stream: its values at the edges of the odd-only back array
and of the segments, all built in the caller's thread."""

import threading

import numpy as np
import pytest

from primeshift import average_order_series, cycle_count_sweep, preimage_density, run_census
from primeshift import census as census_mod
from primeshift import sieve as sieve_mod
from primeshift.arith import big_B, shifted_B
from primeshift.tables import prime_marks, segments, shifted_segments


@pytest.fixture
def small_chunk(monkeypatch):
    # Segments of at most 64 entries, so a stream to 10^3 has 21 of them:
    # [0, 2), [2, 4), ..., [32, 64), then 15 of 64 entries from 64 on.
    monkeypatch.setattr(sieve_mod, "CHUNK", 2**6)


def test_stream_edges_match_scalar(small_chunk, table):
    # Later segments read B(o) for odd o from back, which holds only the odd
    # n <= limit // 2, and an even n = 2^k o takes B(o) plus 2k.  The
    # limits make limit // 2 odd and even and put segment edges and powers
    # of two at the top.  A 64-entry window has 32 odd entries, so the
    # primes q with q^2 <= 128, up to 11, write one slice each and 13, 17,
    # 19, ... one scatter, in which an odd n with two such factors q, q^2
    # <= n, is written twice: 663 = 3 * 13 * 17, 741 = 3 * 13 * 19, 969 =
    # 3 * 17 * 19 and 2873 = 13^2 * 17 among those up to 4097.
    for limit in (2, 3, 127, 128, 129, 255, 256, 1000, 1001, 4097):
        b = {}
        for s, v in segments(limit):
            b.update(zip(range(s, s + v.size), v.tolist()))
        assert sorted(b) == list(range(limit + 1)), limit
        assert b[0] == b[1] == 0
        for n in range(2, limit + 1):
            assert b[n] == big_B(n, table), (limit, n)
        for k in range(1, limit.bit_length()):
            for p in (1, 3, 5, 61, 127, 1021):
                if p << k <= limit:
                    assert b[p << k] == 2 * k + p * (p > 1), (limit, p << k)


@pytest.mark.parametrize("overlap", [0, 5, 117])
def test_shifted_windows_at_the_small_n(small_chunk, table, overlap):
    # B(n) = n at the primes and at 4: a prime takes n + a, 4 stays 4, and
    # n = 0, 1 take a, in every window that holds them.  With an overlap of
    # 5 the windows that add the entries from 2, 4 and 8 all start at 2,
    # and with 117 those up to the one from 64.
    for a in (0, 1, 39):
        seen = []
        for s, f in shifted_segments(a, 300, overlap):
            for n in range(s, s + f.size):
                want = a if n < 2 else shifted_B(n, a, table)
                assert f[n - s] == want, (a, overlap, n)
            seen += [n for n in (0, 1, 2, 4) if s <= n < s + f.size]
        assert set(seen) == {0, 1, 2, 4} and f.dtype == np.int32, (a, overlap)
        assert seen.count(2) == {0: 1, 5: 3, 117: 6}[overlap], (a, overlap)


@pytest.mark.parametrize("overlap", [1, 2, 63, 117, 200])
def test_overlapping_windows_repeat_the_entries_before(small_chunk, table, overlap):
    # With an overlap each window past [0, 2) starts up to that many
    # entries before the end of the one before, from 2 on and at an even
    # n, and holds the same values there.
    want = [0, 0] + [big_B(n, table) for n in range(2, 1002)]
    end = 0
    for s, v in segments(1001, overlap):
        assert s == (max(2, (end - overlap) & -2) if end else 0), (overlap, end)
        assert v.tolist() == want[s : s + v.size], (overlap, s)
        end = s + v.size
    assert end == 1002


def test_streams_start_no_thread(monkeypatch):
    # Every stream is one loop in the caller's thread.  A stream to 100 has
    # seven windows and one up to CHUNK - 1 has 17; then, with 64-entry
    # windows, a census, a sweep, a series and a density each stream past
    # CHUNK.
    def no_thread(self):
        raise AssertionError(f"a stream started {self!r}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert [s for s, _ in segments(100)] == [0, 2, 4, 8, 16, 32, 64]
    starts = [s for s, _ in segments(sieve_mod.CHUNK - 1)]
    assert starts == [0, *(2**k for k in range(1, sieve_mod.CHUNK.bit_length() - 1))]
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    run_census(39, 10**4)
    cycle_count_sweep(200, 10**6)
    average_order_series(3, [10**4])
    preimage_density(prime_marks, 10**4)
