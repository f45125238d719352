import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import A39_CYCLES, prime_power_sums, run_census_naive, shifted_map, walked_cycles
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
from primeshift.arith import shifted_B
from primeshift.census import check_cycles
from primeshift.dynamics import default_max_steps
from primeshift.golden import CYCLE_TABLE, canonical_set
from primeshift.sieve import build_sieve, index_dtype
from primeshift.tables import segments


def _summary(rep):
    return (
        [c.members for c in rep.cycles],
        {c.members: n for c, n in zip(rep.cycles, rep.basin_counts)},
        rep.stopping_time_histogram,
        rep.max_total_stopping_time,
    )


def _watch_streams(monkeypatch, seen):
    """Route every stream of B that the census and the sweep read, directly
    or under shifted_segments, through seen(limit, s), called at each
    window [s, ...)."""
    stream = tables_mod.segments

    def watched(limit, overlap=0):
        for s, v in stream(limit, overlap):
            seen(limit, s)
            yield s, v

    monkeypatch.setattr(tables_mod, "segments", watched)
    monkeypatch.setattr(census_mod, "segments", watched)


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
    # after its walks and its prefix have read short streams of their own:
    # primes whose climbs end in the entries a segment repeats from the
    # one before, the primes near the top whose climbs pass the limit, and
    # at a = 0 the primes ranked segment by segment.
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    for a in (0, 1, 2, 3, 39, 137, 200):
        assert census_limit(a, climb_margin(a) + 4) < 10**4 // 2
        fast = run_census(a, 10**4)
        assert _summary(fast) == _summary(run_census_naive(a, 10**4, table)), f"a={a}"


def test_prime_chains_cross_window_edges(table, monkeypatch):
    # At a = 210 and 420 (smallest prime not dividing a is 11, so a prime
    # climbs up to 12a: 2,520 and 5,040) a climb spans dozens of 64-entry
    # segments, and each segment repeats the climb_margin(a) entries
    # before it.  The state holds the nodes up to (S + m) // 2 + 2, all
    # that any node reads, or the prefix [0, 3m + 4] where that is more;
    # the nodes above it are counted and dropped segment by segment.  At
    # 10^4 and 2 * 10^4 starts the walked cycles lie below (S + m) // 2;
    # at 2 and 20 starts every node is in the prefix.
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
            # One state, smaller than the range only at `big`.
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
    # The _cycles lemma: orbits from 4 and the primes <= last meet the
    # cycles that orbits from every start 2..last meet, with the same members
    # and signs, where _cycles walks to last = min(start_limit,
    # climb_margin(a) + 4): at a = 0 to 4, as the census labels the primes
    # from 5 on from its stream.  a = 951 has the most cycles at a <= 1000
    # (5), and 1680 and 1890 the largest climb margins at a <= 2000 (12a),
    # so the largest prefix of B reaches census_limit(1890,
    # climb_margin(1890) + 4) = 45,364.
    b, _, prime = oracle_values
    walks = [(a, start_limit, min(start_limit, climb_margin(a) + 4))
             for a in [*range(401), 951, 1680, 1890] for start_limit in (climb_margin(a) + 4, 20)]
    top = max(census_limit(a, last) for a, _, last in walks)
    assert top == 45_364
    for a, start_limit, last in walks:
        got = census_mod._cycles([a], start_limit)[a]
        top = census_limit(a, last)
        want = walked_cycles(shifted_map(b[: top + 1], prime[: top + 1], a).tolist(), prime, last)
        assert {m: (c.members, c.sign_pattern) for m, c in got.items()} == want, f"a={a}, last={last}"


def _nontrivial(walked):
    return [w for _, w in sorted(walked.items()) if len(w[0]) > 1]


def test_sweep_batches_match_walked_cycles(monkeypatch, oracle_values):
    # With CHUNK = 2^6 a batch holds at most 64 nodes, so the 200 shifts
    # of a sweep go in many batches: several small shifts share one, and a
    # shift with more nodes than 64 is a batch alone.  Every shift still
    # gets the cycles of walks from every start 2..climb_margin(a) + 4,
    # with the same members and signs.
    b, _, prime = oracle_values
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    sizes, batch = [], census_mod._batch

    def counted(walks, *args):
        sizes.append(len(walks))
        return batch(walks, *args)

    monkeypatch.setattr(census_mod, "_batch", counted)
    counts, _ = cycle_count_sweep(200, 10**6)
    assert len(sizes) > 100 and max(sizes) > 1 and sum(sizes) == 200
    found = reached_cycles(range(1, 201), 10**6)
    for a in range(1, 201):
        last = climb_margin(a) + 4
        top = census_limit(a, last)
        want = _nontrivial(walked_cycles(shifted_map(b[: top + 1], prime[: top + 1], a).tolist(),
                                         prime, last))
        assert [(c.members, c.sign_pattern) for c in found[a]] == want, f"a={a}"
        assert counts[a] == len(want), f"a={a}"


def test_reached_cycles_at_the_smallest_limits(oracle_values):
    # At --limit 2 only 2 starts, and at 3 only 2 and 3; at a = 0 every
    # cycle is a fixed point, so 20 starts meet no nontrivial one.
    b, _, prime = oracle_values
    assert reached_cycles([0], 20) == {0: ()}
    for start_limit in (2, 3):
        found = reached_cycles(range(41), start_limit)
        for a in range(41):
            top = census_limit(a, start_limit)
            want = _nontrivial(walked_cycles(shifted_map(b[: top + 1], prime[: top + 1], a).tolist(),
                                             prime, start_limit))
            assert [(c.members, c.sign_pattern) for c in found[a]] == want, (a, start_limit)


def test_sweep_reads_one_stream(monkeypatch):
    # Every shift of a sweep walks over one prefix of B, up to the largest
    # census_limit(a, climb_margin(a) + 4) at a <= 200: 2,884 at a = 180.
    # check_cycles checks the cycles of every shift against that prefix's
    # one sieve table, built to 2,884 and not the shared 2^16 one.
    limits, built, tables_seen, shifts_seen = [], [], set(), set()

    def checked(shift, length, members, spf):
        tables_seen.add(id(spf))
        shifts_seen.update(shift.tolist())
        return check_cycles(shift, length, members, spf)

    def sieved(limit, bound=None):
        built.append(limit)
        return build_sieve(limit, bound)

    _watch_streams(monkeypatch, lambda limit, s: limits.append(limit))
    monkeypatch.setattr(census_mod, "check_cycles", checked)
    monkeypatch.setattr(census_mod, "build_sieve", sieved)
    counts, _ = cycle_count_sweep(200, 10**6)
    assert census_limit(180, climb_margin(180) + 4) == 2884
    assert limits == [2884] * len(list(segments(2884)))  # one stream, each of its windows
    assert built == [2884] and len(tables_seen) == 1 and not sieve_mod._shared.cache_info().currsize
    assert shifts_seen == set(range(1, 201)) and counts[39] == 4


def test_sweep_computes_each_margin_once_per_pass(monkeypatch):
    # _cycles passes over its shifts twice, once to size the prefix and
    # once to batch the walks; each pass needs climb_margin(a) once.
    calls, margin = [], census_mod.climb_margin

    def counted(a):
        calls.append(a)
        return margin(a)

    monkeypatch.setattr(census_mod, "climb_margin", counted)
    reached_cycles(range(1, 201), 10**6)
    assert sorted(calls) == sorted([*range(1, 201)] * 2)


def test_cycle_check_factors_through_the_sieve(monkeypatch):
    # With B(9) = 7 in the stream, a = 2's cycle (5, 7, 9, 6) reads as
    # (7, 9) on the prefix.  check_cycles factors 9 through the sieve, not
    # the stream's B, so both the sweep and the census name the member.
    stream = census_mod.segments

    def corrupted(limit):
        for s, v in stream(limit):
            if s <= 9 < s + v.size:
                v[9 - s] = 7
            yield s, v

    monkeypatch.setattr(census_mod, "segments", corrupted)
    message = re.escape("not a cycle under a=2: 9 -> 6, expected 7")
    with pytest.raises(ConsistencyError, match=message):
        reached_cycles([2], 20)
    with pytest.raises(ConsistencyError, match=message):
        run_census(2, 20)


def test_shifted_values_match_scalar_map():
    # The vector B_a of check_cycles against the scalar map, over every n
    # of the largest prefix in test_prime_starts_meet_every_walked_cycle.
    table = build_sieve(45_364)
    n = np.arange(2, 45_365)
    for a in (0, 1, 39, 1890):
        want = [shifted_B(v, a, table) for v in n.tolist()]
        assert census_mod.shifted_values(n, a, table.spf).tolist() == want, f"a={a}"


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


def test_successor_below_lemma(oracle_values, table):
    # run_census's lemma by brute force for every a <= 2000, with P = 2 *
    # climb_margin(a) + 4: no cycle member exceeds P (4, the one fixed
    # point, does not either), and each prime p in (P, 3P] climbs p + a,
    # p + 2a, ... to a first composite c <= p + climb_margin(a) with J(p) =
    # B(c) < p.  The climbs run on the oracle's B and primes; for the
    # least and the largest p of each a, the scalar shifted_B walks the
    # climb again and must end at the same J(p).
    b, _, prime = oracle_values
    primes = np.flatnonzero(prime)
    for a, cycles in reached_cycles(range(1, 2001), 10**6).items():
        m = climb_margin(a)
        top = 2 * m + 4
        assert all(max(c.members) <= top for c in cycles), a
        p = primes[np.searchsorted(primes, top, "right") : np.searchsorted(primes, 3 * top, "right")]
        c = p + a
        while (up := prime[c]).any():
            c[up] += a
        assert (c <= p + m).all() and (b[c] < p).all(), a
        for q, want in ((p[0], b[c[0]]), (p[-1], b[c[-1]])):
            x, y = int(q), shifted_B(int(q), a, table)
            while y > x:
                x, y = y, shifted_B(y, a, table)
            assert y == want < q, (a, q)


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
    # A list that gets, for each widening of a census state, the wide
    # dtype, where the read that widened ran: "prefix" (the rounds over
    # [2, 3m + 4]), "gather" (a window's first gather) or "rounds" (a
    # window's rounds), and whether that window's nodes lie above the
    # state, whose size is the largest node any node reads plus 2.
    widened, zeros = [], census_mod.zeros

    def recorded(size, wide, bound):
        if sys._getframe(1).f_code.co_name == "read":
            caller = sys._getframe(2)
            window = caller if caller.f_code.co_name == "resolve" else caller.f_back
            if window.f_code.co_name != "resolve":
                widened.append((wide, "prefix", False))
            else:
                where = "gather" if caller is window else "rounds"
                widened.append((wide, where, window.f_locals["end"] > size - 1))
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
        # a = 39 at 10^4: the first read that one step would carry past a
        # dist of 2 or 3 is in the rounds over the prefix [2, 355].  Past 8
        # it is in a window's first gather, and past 9 in a window's
        # rounds, where a prime jumps 3 steps at once; both windows lie
        # below 5,060, the last node the state holds.
        (39, np.uint8, 2, None, ("prefix", False)),
        (39, np.uint8, 3, None, ("prefix", False)),
        # With 64-entry segments: a = 137 first reads a dist that a prime's
        # jump of 3 steps would carry past 13 in the rounds of a window
        # above the state; a = 0, with 11 label bits in 2 B, reads 9314's
        # successor, 9 steps away, in a window's first gather there.
        (137, np.uint8, 13, 2**6, ("rounds", True)),
        (0, np.uint16, 9, 2**6, ("gather", True)),
        (39, np.uint8, 8, None, ("gather", False)),
        (39, np.uint8, 9, None, ("rounds", False)),
    ],
)
def test_widening_is_exact(monkeypatch, a, dtype, top, chunk, where):
    want = _summary(_never_narrowed(a, 10**4))
    if chunk:
        for mod in (sieve_mod, census_mod):
            monkeypatch.setattr(mod, "CHUNK", chunk)
    widened = _narrow_top(monkeypatch, dtype, top)
    assert _summary(run_census(a, 10**4)) == want
    [(wide, *at)] = widened
    assert np.dtype(wide).itemsize > np.dtype(dtype).itemsize
    assert tuple(at) == where


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
        assert widened == [(np.uint16, "gather", False)], start_limit


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
    # from its fixed point, and it lies above 5002, the last node the state
    # holds.  With 64-entry segments and a budget of 9 the census names it
    # as its segment is counted and dropped, while the stream is short of
    # its top.
    steps = [iterate_orbit(n, 0).total_stopping_time for n in range(2, 10**4 + 1)]
    assert [n for n, k in enumerate(steps, 2) if k > 9] == [9314]
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    windows = []
    _watch_streams(monkeypatch, lambda limit, s: windows.append(s))
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


def test_walks_read_one_short_stream(monkeypatch):
    # With segments of at most 64 entries the walks from 2..100 and from
    # 2..121 under a = 39 read B_a over [0, 238] in nine segments: [0, 2),
    # [2, 4), ..., [32, 64), then the three from 64 on.  The census reads
    # them once more for its walks before its own stream, which a budget of
    # 1 step stops at the walk from 2.
    expected = reached_cycles([39], 100)
    for mod in (sieve_mod, census_mod):
        monkeypatch.setattr(mod, "CHUNK", 2**6)
    windows = []
    _watch_streams(monkeypatch, lambda limit, s: windows.append(limit))
    assert reached_cycles([39], 100) == expected
    assert windows == [238] * 9
    windows.clear()
    monkeypatch.setattr(census_mod, "default_max_steps", lambda n, a: 1)
    with pytest.raises(ConsistencyError, match="^no cycle within 1 steps from 2 under a=39$"):
        run_census(39, 10**4)
    assert windows == [238] * 9


def test_unsettled_node_names_its_input(monkeypatch):
    # A start whose orbit meets no walked cycle stays unresolved, and the
    # census names the smallest such start with its input: in the prefix,
    # where under a = 39 without the cycle (43, 82) that is 43 itself, and
    # above it, where no round resolves 5000 once the stream makes 5000
    # and 5002 each other's successor.
    cycles, stream = census_mod._cycles, census_mod.segments

    def without_43(shifts, start_limit):
        found = cycles(shifts, start_limit)
        del found[39][43]
        return found

    def looped(top, *overlap):
        for s, v in stream(top, *overlap):
            if s <= 5000 and 5002 < s + v.size:
                v[5000 - s], v[5002 - s] = 5002, 5000
            yield s, v

    with monkeypatch.context() as mp:
        mp.setattr(census_mod, "_cycles", without_43)
        with pytest.raises(
            ConsistencyError, match=r"^node 43 under a=39 with --limit 10000 reaches no cycle$"
        ):
            run_census(39, 10**4)
    monkeypatch.setattr(census_mod, "segments", looped)
    with pytest.raises(
        ConsistencyError, match=r"^node 5000 under a=39 with --limit 10000 reaches no cycle$"
    ):
        run_census(39, 10**4)


def test_census_peak_memory():
    # Bytes per table entry at the census's own peak, numpy buffers included.
    # Only the stream's B at the odd n up to limit // 2 (1 B per entry) and
    # the one-byte state up to limit // 2 + 2 (0.5 B per entry), all that
    # any start reads, span the range; the nodes above it are counted and
    # dropped window by window.  The CHUNK-sized buffers of the window the
    # census counts, and of the one the stream builds next, weigh most at
    # 10^6.  At a = 0 the state takes 4 B per state, 2 B per entry, and the
    # 78,499 cycles, one per prime and 4, peak as Python objects, built
    # once the state is dropped.  The stream runs in the caller's thread
    # and frees each window before it builds the next, so the peaks are the
    # same on every run: 3.23, 1.93 and 14.25 B, and 1.39 B for the stream
    # alone, bounded with 10% headroom.
    for a, start_limit, per_entry in ((39, 10**6, 3.56), (39, 4 * 10**6, 2.13), (0, 10**6, 15.68)):
        tracemalloc.start()
        try:
            run_census(a, start_limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_entry * census_limit(a, start_limit), (a, start_limit)
    tracemalloc.start()
    try:
        for _ in segments(4 * 10**6):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.53 * 4 * 10**6


def test_prime_fixed_points_skip_the_scalar_check(monkeypatch):
    # At a = 0 only the walked cycles (2), (3) and (4) go through
    # check_cycles; the other 1,227 prime fixed points come from the sieve.
    calls = []

    def counted(shift, length, members, spf):
        cycles = check_cycles(shift, length, members, spf)
        calls.extend(c.members for c in cycles)
        return cycles

    monkeypatch.setattr(census_mod, "check_cycles", counted)
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
