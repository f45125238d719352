"""The segment stream: its values at the edges of the odd-only back array
and of the segments, and its worker thread, started only for a segment at
or past CHUNK, stopped when the stream closes, its errors raised in the
caller."""

import concurrent.futures
import threading

import pytest

from oracles import small_beta
from primeshift import ConsistencyError, cycle_count_sweep, run_census
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


def _no_executor(monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("a stream below CHUNK started a worker")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_executor)


def test_one_window_stream_starts_no_thread(monkeypatch):
    # The caller builds every segment below CHUNK itself: a stream to 100
    # has seven, and one up to CHUNK - 1 has 17.
    _no_executor(monkeypatch)
    assert [s for s, _, _ in segments(100, b_term)] == [0, 2, 4, 8, 16, 32, 64]
    starts = [s for s, _, _ in segments(sieve_mod.CHUNK - 1, b_term)]
    assert starts == [0, *(2**k for k in range(1, sieve_mod.CHUNK.bit_length() - 1))]


def test_sweep_starts_no_worker(monkeypatch):
    # A sweep over a <= 200 reads B up to 2,884, below CHUNK: no worker,
    # which would cost more than the stream itself.
    expected = cycle_count_sweep(200, 10**6)
    _no_executor(monkeypatch)
    assert cycle_count_sweep(200, 10**6) == expected


def test_closed_stream_stops_its_worker(small_chunk):
    before = threading.active_count()
    stream = segments(10**3, b_term)
    assert [next(stream)[0] for _ in range(6)] == [0, 2, 4, 8, 16, 32]
    assert threading.active_count() == before
    assert [next(stream)[0], next(stream)[0]] == [64, 128]
    assert threading.active_count() == before + 1
    stream.close()
    assert threading.active_count() == before


def test_worker_error_raised_in_caller(small_chunk):
    def step(p, m):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("no term off the main thread")
        return b_term.step(p, m)

    before = threading.active_count()
    with pytest.raises(ValueError, match=r"^no term off the main thread$"):
        for _ in segments(10**3, b_term._replace(step=step)):
            pass
    assert threading.active_count() == before


def test_census_error_mid_stream_stops_the_worker(small_chunk, monkeypatch):
    settle, calls = census_mod._settle, []

    def failing(*args):
        calls.append(threading.active_count())
        if len(calls) == 20:
            raise ConsistencyError("stopped mid-stream")
        return settle(*args)

    monkeypatch.setattr(census_mod, "_settle", failing)
    before = threading.active_count()
    with pytest.raises(ConsistencyError, match="stopped mid-stream") as caught:
        run_census(39, 10**4)
    assert calls[-1] == before + 1  # the worker was running
    # caught holds the census's frames, and with them its stream: the
    # census must have closed the stream itself.
    assert threading.active_count() == before, caught
