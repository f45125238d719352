import json
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import prime_power_sums, run_census_naive, shifted_map, walked_cycles
from primeshift import (
    ConsistencyError,
    cycle_count_sweep,
    iterate_orbit,
    reached_cycles,
    run_census,
)
from primeshift import census as census_mod
from primeshift import sieve as sieve_mod
from primeshift import tables as tables_mod
from primeshift.census import census_limit, climb_margin, dist_top, state_dtype
from primeshift.cli import run
from primeshift.dynamics import canonicalize, default_max_steps
from primeshift.golden import A39_CYCLES, CYCLE_TABLE, canonical_set
from primeshift.sieve import build_sieve, index_dtype
from primeshift.tables import b_term, segments


def _summary(rep):
    return (
        [c.members for c in rep.cycles],
        {c.members: n for c, n in zip(rep.cycles, rep.basin_counts)},
        rep.stopping_time_histogram,
        rep.max_total_stopping_time,
    )


def test_census_a1():
    rep = run_census(1, 10**6)
    assert {c.members for c in rep.cycles if len(c) > 1} == {(5, 6)}
    assert [c.members for c in rep.cycles if len(c) == 1] == [(4,)]


def test_census_a12():
    rep = run_census(12, 10**6)
    assert {c.members for c in rep.cycles if len(c) > 1} == {(5, 17, 29, 41, 53, 65, 18, 8, 6)}


def test_census_a39():
    rep = run_census(39, 10**6)
    assert {c.members for c in rep.cycles if len(c) > 1} == canonical_set(A39_CYCLES)


def test_basin_counts_sum():
    rep = run_census(3, 10**4)
    assert sum(rep.basin_counts) == 10**4 - 1
    assert sum(rep.stopping_time_histogram.values()) == 10**4 - 1


def test_naive_agrees_with_memoized(table):
    # a = 0 packs 11-bit labels (1,229 primes and 4) beside each dist: a
    # 16-bit state would wrap from dist 32 on.
    for a in range(6):
        fast = run_census(a, 10**4)
        slow = run_census_naive(a, 10**4, table)
        assert {c.members for c in fast.cycles} == {c.members for c in slow.cycles}
        assert {c.members: n for c, n in zip(fast.cycles, fast.basin_counts)} == {
            c.members: n for c, n in zip(slow.cycles, slow.basin_counts)
        }
        assert fast.stopping_time_histogram == slow.stopping_time_histogram
        assert fast.max_total_stopping_time == slow.max_total_stopping_time


def test_naive_agrees_across_windows(table, monkeypatch):
    # With 64-entry segments a 10^4 census streams 157 to 169 of them,
    # after its walks have read 1 to 26 from a short stream of their own:
    # successors carried from segment to segment, the primes near the top
    # whose successor passes the limit, and at a = 0 the primes ranked
    # segment by segment.  From the second segment on, the stream's worker
    # thread builds them.
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    builders = set()

    def step(p, m):
        builders.add(threading.get_ident())
        return b_term.step(p, m)

    monkeypatch.setattr(tables_mod, "b_term", b_term._replace(step=step))
    for a in (0, 1, 2, 3, 39, 137, 200):
        assert census_limit(a, climb_margin(a) + 4) < 10**4 // 2
        fast = run_census(a, 10**4)
        assert _summary(fast) == _summary(run_census_naive(a, 10**4, table)), f"a={a}"
    assert builders - {threading.get_ident()}


def test_prime_chains_cross_window_edges(table, monkeypatch):
    # Above H = limit // 2 + 2 the census keeps its state in a window of
    # CHUNK + climb_margin(a) nodes that slides up with the stream.  At
    # a = 210 and 420 (smallest prime not dividing a is 11, so a prime
    # climbs up to 12a: 2,520 and 5,040) a chain spans dozens of 64-entry
    # segments, so pending chains ride through many slides.  At 10^4 and
    # 2 * 10^4 starts the walked cycles lie below H; at 2 and 20 starts
    # H = climb_margin(a) + 4 and walked cycle members lie above it.
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    sizes, zeros = [], census_mod.zeros

    def recorded(size, dtype, bound):
        sizes.append(size)
        return zeros(size, dtype, bound)

    monkeypatch.setattr(census_mod, "zeros", recorded)
    for a, big in ((210, 10**4), (420, 2 * 10**4)):
        for start_limit in (2, 20, big):
            limit = census_limit(a, start_limit)
            if start_limit == big:
                assert census_limit(a, climb_margin(a) + 4) < limit // 2 + 2
            sizes.clear()
            fast = run_census(a, start_limit)
            slow = run_census_naive(a, start_limit, table)
            assert _summary(fast) == _summary(slow), f"a={a}, start_limit={start_limit}"
            # One state, a window smaller than the range only at `big`.
            assert len(sizes) == 1 and (sizes[0] < limit) == (start_limit == big)


def test_naive_agrees_on_reached_cycles(table):
    # reached_cycles against the per-start oracle's nontrivial cycles, also
    # at 20 starts, below climb_margin(a) + 4 from a = 6 on, where (31, 58)
    # at a = 27 and (43, 82) at a = 39 are not reached.
    for a in [*range(41), 97, 150, 199, 200, 15000]:
        slow = run_census_naive(a, 3000, table)
        assert _summary(run_census(a, 3000)) == _summary(slow), f"a={a}"
        for start_limit, naive in ((3000, slow), (20, run_census_naive(a, 20, table))):
            want = [(c.members, c.sign_pattern) for c in naive.cycles if len(c) > 1]
            got = [(c.members, c.sign_pattern) for c in reached_cycles([a], start_limit)[a]]
            assert got == want, f"a={a}, start_limit={start_limit}"


def test_prime_starts_meet_every_walked_cycle(oracle_values):
    # The _find_cycles lemma: walks from 4 and the primes <= last meet the
    # cycles that walks from every start 2..last meet, with the same members
    # and signs.  a = 951 has the most cycles at a <= 1000 (5), and 1680
    # and 1890 the largest climb margins at a <= 2000 (12a), so one prefix
    # of B reaches census_limit(1890, climb_margin(1890) + 4) = 45,364.
    b, _, prime = oracle_values
    walks = [(a, last) for a in [*range(401), 951, 1680, 1890]
             for last in (climb_margin(a) + 4, 20)]
    top = max(census_limit(a, last) for a, last in walks)
    assert top == 45_364
    B, table = b[: top + 1], build_sieve(top)
    for a, last in walks:
        top = census_limit(a, last)
        want = walked_cycles(shifted_map(b[: top + 1], prime[: top + 1], a).tolist(), prime, last)
        got = census_mod._walks(a, last, B, table)
        assert {m: (c.members, c.sign_pattern) for m, c in got.items()} == want, f"a={a}, last={last}"


def test_sweep_reads_one_stream(monkeypatch):
    # Every shift of a sweep walks over one prefix of B, up to the largest
    # census_limit(a, climb_margin(a) + 4) at a <= 200: 2,884 at a = 180.
    # canonicalize checks every cycle against that prefix's one table.
    limits, spf_windows = [], tables_mod.spf_windows
    tables_seen = set()

    def counted(limit):
        limits.append(limit)
        return spf_windows(limit)

    def checked(raw_cycle, a, table):
        tables_seen.add(id(table))
        return canonicalize(raw_cycle, a, table)

    monkeypatch.setattr(tables_mod, "spf_windows", counted)
    monkeypatch.setattr(census_mod, "canonicalize", checked)
    counts, _ = cycle_count_sweep(200, 10**6)
    assert limits == [2884] == [census_limit(180, climb_margin(180) + 4)]
    assert len(tables_seen) == 1 and counts[39] == 4


def test_unreached_cycles_not_listed():
    # (31, 58) for a=27 and (43, 82) for a=39 have minima below the walk
    # bound but are not reached from starts <= 20.
    small = build_sieve(10**4)
    for a in (27, 39, 53, 57):
        fast = run_census(a, 20)
        assert _summary(fast) == _summary(run_census_naive(a, 20, small)), f"a={a}"
        listed = {c.members for c in fast.cycles}
        assert (31, 58) not in listed and (43, 82) not in listed


def test_census_on_table_below_cycle_bound():
    tiny = build_sieve(20)
    for a in range(61):
        fast = run_census(a, 20)
        assert _summary(fast) == _summary(run_census_naive(a, 20, tiny)), f"a={a}"


def test_census_limit_bounds_orbits():
    # Twice the largest bound tested: an orbit that leaves this table
    # fails the test with an IndexError.
    b, _, prime = prime_power_sums(2 * census_limit(200, 3000))
    starts = np.arange(2, 3001)
    for a in range(201):
        m = climb_margin(a)
        f = shifted_map(b, prime, a)
        x = starts
        top = starts.copy()
        for _ in range(default_max_steps(3000, a)):
            x = f[x]
            np.maximum(top, x, out=top)
        for s in (20, m + 4, 3000):
            assert top[: s - 1].max() <= census_limit(a, s), f"a={a}, S={s}"


def test_order_independence(table):
    starts = list(range(2, 2001))
    shuffled = starts[:]
    random.Random(7).shuffle(shuffled)
    a_order = run_census_naive(7, 2000, table, order=starts)
    b_order = run_census_naive(7, 2000, table, order=shuffled)
    assert {c.members for c in a_order.cycles} == {c.members for c in b_order.cycles}
    assert {c.members: n for c, n in zip(a_order.cycles, a_order.basin_counts)} == {
        c.members: n for c, n in zip(b_order.cycles, b_order.basin_counts)
    }


def test_fate_matches_orbit_tail():
    rep = run_census(5, 10**4)
    member_sets = {c.members: set(c.members) for c in rep.cycles}
    for n in (2, 17, 100, 5040, 9973):
        rec = iterate_orbit(n, 5)
        landing = rec.trajectory[rec.total_stopping_time]
        assert any(landing in s for s in member_sets.values())


def test_climb_margin():
    assert climb_margin(0) == 0
    # a=1: smallest prime not dividing 1 is 2 -> margin 3
    assert climb_margin(1) == 3
    # a=6: 2 and 3 divide, 5 does not -> margin 36
    assert climb_margin(6) == 36


def test_table1_rows_match_catalog():
    # The 17 internally consistent catalog rows reproduce exactly at 10^6.
    for a, rows in CYCLE_TABLE.items():
        if a in (9, 11, 13):
            continue
        rep = run_census(a, 10**6)
        assert {c.members for c in rep.cycles if len(c) > 1} == canonical_set(rows), f"a={a}"


def test_sweep_counts():
    counts, argmax = cycle_count_sweep(20, 10**6)
    assert counts[1] == 1
    assert counts[17] == 2
    for a, rows in CYCLE_TABLE.items():
        if a in (9, 11, 13):
            continue
        assert counts[a] == len(rows), f"a={a}"


def test_sweep_matches_full_census():
    counts, _ = cycle_count_sweep(200, 10**6)
    for a in range(1, 201):
        full = run_census(a, 10**6)
        assert counts[a] == sum(1 for c in full.cycles if len(c) > 1), f"a={a}"


def test_csv_output(capsys):
    rep = run_census(3, 10**4)
    assert run(["--format", "csv", "census", "--a", "3", "--limit", "10000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,cycle_id,length,members,sign_pattern,basin_count"
    assert len(lines) == 1 + len(rep.cycles)
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["a"] == "3"
    members = tuple(int(v) for v in row["members"].split(";"))
    assert members in {c.members for c in rep.cycles}


def test_json_output(capsys):
    assert run(["--format", "json", "census", "--a", "3", "--limit", "10000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["a"] == 3
    cycles = {tuple(c["members"]) for c in payload["cycles"]}
    assert (5, 8, 6) in cycles and (7, 10) in cycles
    assert sum(c["basin_count"] for c in payload["cycles"]) == 10**4 - 1


def test_census_dtype_rules():
    # The rules themselves: tables of these sizes would not fit in memory.
    limit, a = 2**31 - 40, 39
    assert index_dtype(limit + a) is np.int32  # limit + a = 2^31 - 1
    assert index_dtype(limit + a + 1) is np.int64
    # The state (dist << bits | label) must hold dist = budget + 1 beside
    # the largest label: ((budget + 2) << bits) - 1.
    assert state_dtype(2, 2**14 - 2) is np.uint16  # 2^16 - 1
    assert state_dtype(2, 2**14 - 1) is np.uint32  # 2^16 + 3
    assert state_dtype(2, 2**30 - 2) is np.uint32  # 2^32 - 1
    assert state_dtype(2, 2**30 - 1) is np.uint64
    # A 10^7 census at a <= 200 has at most 5 cycles: 3 label bits.
    assert state_dtype(3, default_max_steps(census_limit(200, 10**7), 200)) is np.uint16
    # a = 0: every prime and 4 take a label, pi(10^7) + 1 = 664,580 of
    # them at 10^7: 20 bits and a 32-bit state, where labelling each
    # cycle by its minimum, a prime up to the limit, would take 64 bits.
    assert state_dtype((664_580).bit_length(), default_max_steps(10**7, 0)) is np.uint32
    assert state_dtype((9_999_991).bit_length(), default_max_steps(10**7, 0)) is np.uint64
    assert state_dtype((999983).bit_length(), default_max_steps(10**6, 0)) is np.uint32
    assert state_dtype((2**31 - 1).bit_length(), default_max_steps(2**31, 0)) is np.uint64
    # test_naive_agrees_on_reached_cycles runs both wide states at 3000
    # starts: a = 15000 (2 cycles) through its step budget, and a = 0
    # through its 431 labels.
    budget = default_max_steps(census_limit(15000, 3000), 15000)
    assert state_dtype(2, budget) is np.uint32
    assert state_dtype((431).bit_length(), default_max_steps(3000, 0)) is np.uint32
    # A census starts from state_dtype(bits, 0), the narrowest that holds
    # its labels and one step: one byte up to 7 label bits.
    assert state_dtype(7, 0) is np.uint8  # (2 << 7) - 1 = 255
    assert state_dtype(8, 0) is np.uint16
    assert state_dtype(3, 30) is np.uint8  # (32 << 3) - 1 = 255
    assert state_dtype(3, 31) is np.uint16
    assert state_dtype(0, 254) is np.uint8 and state_dtype(0, 255) is np.uint16
    # It widens on reading a successor at its largest dist.  One byte holds
    # dist 31 beside 3 label bits and 63 beside 2: at 10^7 and a <= 200 the
    # closest is 28 at a = 155 (4 cycles), and a = 168 (3 cycles) reaches 40.
    assert dist_top(np.uint8, 3) == 31 and dist_top(np.uint8, 2) == 63
    assert dist_top(np.uint16, 2) == 2**14 - 1 and dist_top(np.uint64, 60) == 15
    assert state_dtype(3, 0) is np.uint8 and state_dtype(3, 28) is np.uint8
    # a = 0 at 10^7: the 20 label bits take a 32-bit state from the start.
    assert state_dtype((664_580).bit_length(), 0) is np.uint32


def _widenings(monkeypatch):
    # A list that gets, for each widening of a census state, the wide dtype,
    # the function whose read widened and the window's shift then (0 below
    # limit // 2).
    widened, zeros = [], census_mod.zeros

    def recorded(size, wide, bound):
        if sys._getframe(1).f_code.co_name == "read":
            caller = outer = sys._getframe(2)
            while outer.f_code.co_name != "run_census":
                outer = outer.f_back
            widened.append((wide, caller.f_code.co_name, outer.f_locals["shift"]))
        return zeros(size, wide, bound)

    monkeypatch.setattr(census_mod, "zeros", recorded)
    return widened


def _narrow_top(monkeypatch, dtype, top):
    # States of dtype hold dists up to top only, so a census that starts in
    # dtype widens on reading a successor top steps from its cycle.
    real = census_mod.dist_top

    def narrowed(d, bits):
        return min(real(d, bits), top) if np.dtype(d) == dtype else real(d, bits)

    monkeypatch.setattr(census_mod, "dist_top", narrowed)
    return _widenings(monkeypatch)


def _never_narrowed(a, start_limit):
    # The census in the state dtype of its budget from the start.
    with pytest.MonkeyPatch.context() as mp:
        _narrow_top(mp, np.uint8, 0)
        _narrow_top(mp, np.uint16, 0)
        return run_census(a, start_limit)


@pytest.mark.parametrize(
    "a, dtype, top, chunk, where",
    [
        # a = 39 at 10^4: the first read of a successor 2 steps from its
        # cycle is in a resolve block, of one 3 steps away in a settle round.
        (39, np.uint8, 2, None, ("resolve", False)),
        (39, np.uint8, 3, None, ("_settle", False)),
        # With 64-entry segments: a = 137 first reads a successor 14 steps
        # away in a settle round above limit // 2, where the state is a
        # window; a = 0, with 11 label bits in 2 B, reads 9314's successor,
        # 9 steps away, in a resolve block there.
        (137, np.uint8, 14, 2**6, ("_settle", True)),
        (0, np.uint16, 9, 2**6, ("resolve", True)),
    ],
)
def test_widening_is_exact(monkeypatch, a, dtype, top, chunk, where):
    want = _summary(_never_narrowed(a, 10**4))
    if chunk:
        for mod in (sieve_mod, census_mod):
            monkeypatch.setattr(mod, "CHUNK", chunk)
    widened = _narrow_top(monkeypatch, dtype, top)
    assert _summary(run_census(a, 10**4)) == want
    [(wide, caller, shift)] = widened
    assert np.dtype(wide).itemsize > np.dtype(dtype).itemsize
    assert (caller, shift > 0) == where


def test_one_byte_state_widens_where_a_dist_would_wrap(table, monkeypatch):
    # a = 0 from 150 to 650 starts takes 6 or 7 label bits (its bound on
    # the labels' count is 38 to 126), so one byte holds dists up to 3 or 1
    # only, and the census widens to 2 B well before its largest dist, 6 or
    # 7.  Each step kept in one byte past that would wrap.
    widened = _widenings(monkeypatch)
    for start_limit in (150, 300, 650):
        widened.clear()
        fast = run_census(0, start_limit)
        assert _summary(fast) == _summary(run_census_naive(0, start_limit, table))
        assert widened == [(np.uint16, "resolve", 0)], start_limit


def test_budget_error_after_widening_names_the_budget(monkeypatch):
    # As test_dist_past_budget_raises_in_its_window, with the 2-byte state
    # of a = 0 holding dists up to 5 only: the census widens to 4 B well
    # below 9314, which still fails against the budget of 9 steps.
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 9)
    widened = _narrow_top(monkeypatch, np.uint16, 5)
    with pytest.raises(
        ConsistencyError,
        match=r"^node 9314 under a=0 with --limit 10000 is more than 9 steps from its cycle$",
    ):
        run_census(0, 10**4)
    assert [wide for wide, _, _ in widened] == [np.uint32]


def test_one_byte_census_never_widens(monkeypatch):
    # Every shift up to 200 stays below one byte's largest dist at 10^4
    # (31 beside 3 label bits): one state, allocated once.
    made, zeros = [], census_mod.zeros

    def recorded(size, dtype, bound):
        made.append(dtype)
        return zeros(size, dtype, bound)

    monkeypatch.setattr(census_mod, "zeros", recorded)
    for a in range(1, 201):
        made.clear()
        run_census(a, 10**4)
        assert made == [np.uint8], f"a={a}"



def test_dist_past_budget_raises(monkeypatch):
    # Under a = 0 the starts <= 100 are at most 5 steps from their fixed points.
    assert run_census(0, 100).max_total_stopping_time == 5
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 5)
    assert run_census(0, 100).max_total_stopping_time == 5
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 4)
    with pytest.raises(
        ConsistencyError, match=r"node \d+ under a=0 with --limit 100 is more than 4 steps"
    ):
        run_census(0, 100)


def test_dist_past_budget_raises_in_its_window(monkeypatch):
    # Under a = 0 only 9314 of the nodes up to 10^4 is more than 9 steps
    # from its fixed point, and it lies above H = 5002, where the state is
    # a window.  With 64-entry segments and a budget of 9 the census names
    # it as the window passes it, while the stream is short of its top.
    steps = [iterate_orbit(n, 0).total_stopping_time for n in range(2, 10**4 + 1)]
    assert [n for n, k in enumerate(steps, 2) if k > 9] == [9314]
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    windows, spf_windows = [], tables_mod.spf_windows

    def counted(limit):
        for w in spf_windows(limit):
            windows.append(w[0])
            yield w

    monkeypatch.setattr(tables_mod, "spf_windows", counted)
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 9)
    with pytest.raises(
        ConsistencyError,
        match=r"^node 9314 under a=0 with --limit 10000 is more than 9 steps from its cycle$",
    ):
        run_census(0, 10**4)
    assert max(windows) < 10**4 - 2**8


def test_walk_past_budget_raises(monkeypatch):
    # Under a = 39 the walk from 2 runs 2 -> 41 -> 80 -> ...: past a budget
    # of 1 step before it closes a cycle.
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 1)
    for find in (run_census, lambda a, start_limit: reached_cycles([a], start_limit)):
        with pytest.raises(ConsistencyError, match=r"^no cycle within 1 steps from 2 under a=39$"):
            find(39, 100)


def test_walk_stream_stops_its_worker(monkeypatch):
    # With segments of at most 64 entries the walks from 2..100 and from
    # 2..121 under a = 39 read B_a over [0, 238] in nine segments: [0, 2),
    # [2, 4), ..., [32, 64) built by the caller, and the three from 64 on by
    # the stream's worker thread.  The worker is gone when the walks
    # return, and when they fail, while the error and its frames live on.
    expected = reached_cycles([39], 100)
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    windows, spf_windows = [], tables_mod.spf_windows

    def counted(limit):
        for w in spf_windows(limit):
            windows.append((limit, threading.get_ident()))
            yield w

    monkeypatch.setattr(tables_mod, "spf_windows", counted)
    before = threading.active_count()
    assert reached_cycles([39], 100) == expected
    assert threading.active_count() == before
    assert [limit for limit, _ in windows] == [238] * 9
    assert {ident for _, ident in windows} - {threading.get_ident()}
    windows.clear()
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 1)
    with pytest.raises(ConsistencyError, match="^no cycle within 1 steps from 2 under a=39$") as caught:
        run_census(39, 10**4)
    assert threading.active_count() == before, caught.value
    assert [limit for limit, _ in windows] == [238] * 9


def test_unsettled_node_names_its_input(monkeypatch):
    # Under a = 39, 14 -> 9 -> 6 with 9 and 14 in one segment [8, 16): 14
    # is pending until a settle round after 9 resolves, and a budget of 0
    # rounds allows none.  The error names the first node pending, 2, which
    # waits for 2 + 39 = 41 from the segment [2, 4) on.  The budget is
    # patched for the census's own range only, so the walks over [0, 238]
    # keep theirs, and fold, which would name a node past a budget of 0
    # steps, starts only past 2 * 117 + 4 = 238.
    steps, top = census_mod.default_max_steps, census_limit(39, 10**4)
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 0 if n == top else steps(n, a))
    with pytest.raises(
        ConsistencyError, match=r"^node 2 under a=39 with --limit 10000 is unresolved after 0 rounds$"
    ):
        run_census(39, 10**4)


def test_census_peak_memory():
    # Bytes per table entry at the census's own peak, numpy buffers included.
    # Only the stream's B at the odd n up to limit // 2 (1 B per entry) and
    # the one-byte state up to limit // 2 (0.5 B per entry) span the range;
    # above that the state is a window of CHUNK + climb_margin(a) nodes.  The
    # CHUNK-sized buffers of each segment, two or three alive while the
    # worker builds the next, weigh most at 10^6, and vary with the worker's
    # timing.  At a = 0 the state takes 4 B per state, 2 B per entry, and
    # the 78,499 cycles, one per prime and 4, peak as Python objects.  The
    # bounds were set from 4.34 to 6.06, 2.51 and 16.51 B with 10% headroom;
    # with a 2-byte state they measured 4.97 to 6.89, 3.07 and 16.51.  The
    # stream alone measured 1.68 B per entry, and 2.81 B with B over all of
    # [0, limit // 2].
    for a, start_limit, per_entry in ((39, 10**6, 6.7), (39, 4 * 10**6, 2.8), (0, 10**6, 18.2)):
        tracemalloc.start()
        try:
            run_census(a, start_limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_entry * census_limit(a, start_limit), (a, start_limit)
    tracemalloc.start()
    try:
        for _ in segments(4 * 10**6, b_term):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.85 * 4 * 10**6


def test_prime_fixed_points_skip_the_scalar_check(monkeypatch):
    # At a = 0 only the walked cycles (2), (3) and (4) go through
    # canonicalize; the other 1,227 prime fixed points come from the sieve.
    calls = []

    def counted(raw_cycle, a, table):
        calls.append(tuple(raw_cycle))
        return canonicalize(raw_cycle, a, table)

    monkeypatch.setattr(census_mod, "canonicalize", counted)
    rep = run_census(0, 10**4)
    assert sorted(calls) == [(2,), (3,), (4,)]
    assert len(rep.cycles) == 1230
    assert all(c.sign_pattern == "+" for c in rep.cycles if c.members != (4,))


def _trial_division_factors(n):
    """Prime factors of n with multiplicity, by trial division (no sieve)."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_a951_cycles_close_under_trial_division():
    # cycle_count_sweep(1000, 10**6) peaks at 5 cycles, only at a = 951.
    cycles = reached_cycles([951], 10**6)[951]
    assert len(cycles) == 5
    for cyc in cycles:
        members = cyc.members
        assert len(set(members)) == len(members)
        assert members[0] == min(members)
        primes = [_trial_division_factors(v) == [v] for v in members]
        for v, prime, nxt in zip(members, primes, members[1:] + members[:1]):
            step = v + 951 if prime else sum(_trial_division_factors(v))
            assert step == nxt, cyc
        assert "".join("+" if p else "-" for p in primes) == cyc.sign_pattern
