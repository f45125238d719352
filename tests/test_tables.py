"""The segment stream's worker thread: started only for a second segment,
stopped when the stream closes, its errors raised in the caller."""

import concurrent.futures
import threading

import pytest

from primeshift import ConsistencyError, run_census
from primeshift import census as census_mod
from primeshift import sieve as sieve_mod
from primeshift.tables import b_term, segments


@pytest.fixture
def small_chunk(monkeypatch):
    # 64-entry segments, so a stream to 10^3 has 16 of them.
    monkeypatch.setattr(sieve_mod, "CHUNK", 2**6)


def test_one_window_stream_starts_no_thread(monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("a one-window stream started a worker")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_executor)
    assert [s for s, _, _ in segments(100, b_term)] == [0]


def test_closed_stream_stops_its_worker(small_chunk):
    before = threading.active_count()
    stream = segments(10**3, b_term)
    assert [next(stream)[0], next(stream)[0]] == [0, 64]
    assert threading.active_count() == before + 1
    stream.close()
    assert threading.active_count() == before


def test_worker_error_raised_in_caller(small_chunk):
    def term(p, m):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("no term off the main thread")
        return p

    before = threading.active_count()
    with pytest.raises(ValueError, match=r"^no term off the main thread$"):
        for _ in segments(10**3, term):
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
