import json
import random
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import prime_power_sums, run_census_naive, shifted_map
from primeshift import (
    ConsistencyError,
    build_sieve,
    cycle_count_sweep,
    iterate_orbit,
    reached_cycles,
    run_census,
)
from primeshift import census as census_mod
from primeshift import sieve as sieve_mod
from primeshift.census import census_limit, climb_margin, state_dtype
from primeshift.cli import run
from primeshift.dynamics import canonicalize, default_max_steps
from primeshift.golden import A39_CYCLES, CYCLE_TABLE, canonical_set
from primeshift.sieve import index_dtype
from primeshift.tables import b_term


def _summary(rep):
    return (
        [c.members for c in rep.cycles],
        {c.members: n for c, n in zip(rep.cycles, rep.basin_counts)},
        rep.stopping_time_histogram,
        rep.max_total_stopping_time,
    )


def test_census_a1():
    rep = run_census(1, 10**6)
    assert {c.members for c in rep.nontrivial_cycles} == {(5, 6)}
    assert [c.members for c in rep.cycles if len(c) == 1] == [(4,)]


def test_census_a12():
    rep = run_census(12, 10**6)
    assert {c.members for c in rep.nontrivial_cycles} == {(5, 17, 29, 41, 53, 65, 18, 8, 6)}


def test_census_a39():
    rep = run_census(39, 10**6)
    assert {c.members for c in rep.nontrivial_cycles} == canonical_set(A39_CYCLES)


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
    # With 64-entry segments a 10^4 census streams 157 to 169 of them, and
    # holds back the first 1 to 26 until the walks are done: successors
    # carried from segment to segment, the primes near the top whose
    # successor passes the limit, and at a = 0 the primes ranked segment
    # by segment.  From the second segment on, the stream's worker thread
    # builds them.
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    builders = set()

    def term(p, m):
        builders.add(threading.get_ident())
        return b_term(p, m)

    monkeypatch.setattr(census_mod, "b_term", term)
    for a in (0, 1, 2, 3, 39, 137, 200):
        assert census_limit(a, climb_margin(a) + 4) < 10**4 // 2
        fast = run_census(a, 10**4)
        assert _summary(fast) == _summary(run_census_naive(a, 10**4, table)), f"a={a}"
    assert builders - {threading.get_ident()}


def test_naive_agrees_on_reached_cycles(table):
    # reached_cycles against the per-start oracle's nontrivial cycles, also
    # at 20 starts, below climb_margin(a) + 4 from a = 6 on, where (31, 58)
    # at a = 27 and (43, 82) at a = 39 are not reached.
    for a in [*range(41), 97, 150, 199, 200, 15000]:
        slow = run_census_naive(a, 3000, table)
        assert _summary(run_census(a, 3000)) == _summary(slow), f"a={a}"
        for start_limit, naive in ((3000, slow), (20, run_census_naive(a, 20, table))):
            want = [(c.members, c.sign_pattern) for c in naive.nontrivial_cycles]
            got = [(c.members, c.sign_pattern) for c in reached_cycles(a, start_limit)]
            assert got == want, f"a={a}, start_limit={start_limit}"


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


def test_fate_matches_orbit_tail(table):
    rep = run_census(5, 10**4)
    member_sets = {c.members: set(c.members) for c in rep.cycles}
    for n in (2, 17, 100, 5040, 9973):
        rec = iterate_orbit(n, 5, table)
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
        assert {c.members for c in rep.nontrivial_cycles} == canonical_set(rows), f"a={a}"


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
        assert counts[a] == len(full.nontrivial_cycles), f"a={a}"


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



def test_dist_past_budget_raises(monkeypatch):
    # Under a = 0 the starts <= 100 are at most 5 steps from their fixed points.
    assert run_census(0, 100).max_total_stopping_time == 5
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 5)
    assert run_census(0, 100).max_total_stopping_time == 5
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 4)
    with pytest.raises(ConsistencyError, match=r"node \d+ under a=0 is more than 4 steps"):
        run_census(0, 100)


def test_walk_past_budget_raises(monkeypatch):
    # Under a = 39 the walk from 2 runs 2 -> 41 -> 80 -> ...: past a budget
    # of 1 step before it closes a cycle.
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 1)
    for find in (run_census, reached_cycles):
        with pytest.raises(ConsistencyError, match=r"^no cycle within 1 steps from 2 under a=39$"):
            find(39, 100)


def test_unsettled_node_names_its_input(monkeypatch):
    # Under a = 0, 14 -> 9 -> 6 -> 5 with 9 and 14 in one block [8, 16):
    # 14 is pending until a settle round after 9 resolves, and a budget of
    # 0 rounds allows none.
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 0)
    with pytest.raises(
        ConsistencyError, match=r"node 14 under a=0 with --limit 100 is unresolved after 0 rounds"
    ):
        run_census(0, 100)


def test_census_peak_memory():
    # Bytes per table entry at the census's own peak, numpy buffers included.
    # Only the state (2 B per entry) and B up to limit // 2 (2 B per entry)
    # span the range; the CHUNK-sized buffers of each segment and the
    # counts weigh most at 10^6.  At a = 0 the state takes 4 B and the
    # 78,499 cycles, one per prime and 4, peak as Python objects.  The
    # bounds were set from 9.32, 5.33 and 20.77 B with 10% headroom; the
    # segment stream, with two 2^17-entry segments alive while the worker
    # builds the next, measures 8.7, 5.0-5.1 and 17.8 B.
    for a, start_limit, per_entry in ((39, 10**6, 10.3), (39, 4 * 10**6, 5.9), (0, 10**6, 22.8)):
        tracemalloc.start()
        try:
            run_census(a, start_limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_entry * census_limit(a, start_limit), (a, start_limit)


def test_prime_fixed_points_skip_the_scalar_check(monkeypatch):
    # At a = 0 only the walked cycles (2), (3) and (4) go through
    # canonicalize; the other 1,227 prime fixed points come from the sieve.
    calls = []

    def counted(raw_cycle, shift, table):
        calls.append(tuple(raw_cycle))
        return canonicalize(raw_cycle, shift, table)

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
    cycles = reached_cycles(951, 10**6)
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
