"""The segment stream: its values at the edges of the odd-only back array
and of the segments, all built in the caller's thread."""

import threading

import numpy as np
import pytest

from oracles import small_beta
from primeshift import average_order_series, cycle_count_sweep, preimage_density, run_census
from primeshift import census as census_mod
from primeshift import sieve as sieve_mod
from primeshift.arith import big_B
from primeshift.tables import b_term, excess_term, segments


@pytest.fixture
def small_chunk(monkeypatch):
    # Segments of at most 64 entries, so a stream to 10^3 has 21 of them:
    # [0, 2), [2, 4), ..., [32, 64), then 15 of 64 entries from 64 on.
    monkeypatch.setattr(sieve_mod, "CHUNK", 2**6)


def test_stream_edges_match_scalar(small_chunk, table):
    # Later segments read V(o) for odd o from back, which holds only the odd
    # n <= limit // 2, and an even n = 2^k o takes V(o) plus 2k (B) or
    # 2k - 2 (B - beta).  The limits make limit // 2 odd and even and put
    # segment edges and powers of two at the top.
    def streamed(limit, term):
        out = {}
        for s, _, v in segments(limit, term):
            out.update(zip(range(s, s + v.size), v.tolist()))
        return out

    for limit in (2, 3, 127, 128, 129, 255, 256, 1000, 1001, 4097):
        b, excess = streamed(limit, b_term), streamed(limit, excess_term)
        assert sorted(b) == sorted(excess) == list(range(limit + 1)), limit
        assert b[0] == b[1] == excess[0] == excess[1] == 0
        for n in range(2, limit + 1):
            big = big_B(n, table)
            assert (b[n], excess[n]) == (big, big - small_beta(n, table)), (limit, n)
        for k in range(1, limit.bit_length()):
            for p in (1, 3, 5, 61, 127, 1021):
                if p << k <= limit:
                    n = p << k
                    assert (b[n], excess[n]) == (2 * k + p * (p > 1), 2 * k - 2), (limit, n)


@pytest.mark.parametrize("overlap", [1, 2, 63, 117, 200])
def test_overlapping_windows_repeat_the_entries_before(small_chunk, table, overlap):
    # With an overlap each window past [0, 2) starts up to that many
    # entries before the end of the one before, from 2 on and at an even
    # n, and holds the same spf and values there.
    want = {t: [0, 0] + [big_B(n, table) for n in range(2, 1002)] for t in (b_term, excess_term)}
    want[excess_term][2:] = [b - small_beta(n, table) for n, b in enumerate(want[b_term][2:], 2)]
    for term, values in want.items():
        end = 0
        for s, spf, v in segments(1001, term, overlap):
            assert s == (max(2, (end - overlap) & -2) if end else 0), (overlap, end)
            assert np.array_equal(spf, table.spf[s : s + spf.size])
            assert v.tolist() == values[s : s + v.size], (overlap, s)
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
    assert [s for s, _, _ in segments(100, b_term)] == [0, 2, 4, 8, 16, 32, 64]
    starts = [s for s, _, _ in segments(sieve_mod.CHUNK - 1, b_term)]
    assert starts == [0, *(2**k for k in range(1, sieve_mod.CHUNK.bit_length() - 1))]
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    run_census(39, 10**4)
    cycle_count_sweep(200, 10**6)
    average_order_series(3, [10**4])
    preimage_density(lambda lo, spf: spf == np.arange(lo, lo + spf.size, dtype=spf.dtype), 10**4)
