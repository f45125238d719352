import pytest

from oracles import sign_patterns_of_length
from primeshift import ConsistencyError, iterate_orbit, run_census
from primeshift.arith import shifted_B
from primeshift.census import check_cycles


def test_orbit_cycle_examples():
    rec = iterate_orbit(5, 2)
    assert rec.trajectory == (5, 7, 9, 6, 5)
    assert rec.cycle == (5, 7, 9, 6)
    assert rec.entry_index == 0

    rec = iterate_orbit(4, 7)
    assert rec.cycle == (4,)
    assert rec.total_stopping_time == 0


def test_orbit_descends_to_5_6(table):
    rec = iterate_orbit(100, 1)
    assert set(rec.cycle) == {5, 6}
    # trajectory agrees with direct scalar iteration
    for i in range(len(rec.trajectory) - 1):
        assert rec.trajectory[i + 1] == shifted_B(rec.trajectory[i], 1, table)


def test_orbit_extended_domain():
    rec = iterate_orbit(1, 5, extend_domain=True)
    assert rec.cycle == (1,)


def test_stopping_times():
    assert iterate_orbit(7, 1).stopping_time == 2
    assert iterate_orbit(9, 1).stopping_time == 1
    assert iterate_orbit(5, 1).stopping_time is None  # cycle minimum never drops
    assert iterate_orbit(4, 9).stopping_time is None
    assert iterate_orbit(5, 2).total_stopping_time == 0
    assert iterate_orbit(100, 1).total_stopping_time == len(
        iterate_orbit(100, 1).trajectory
    ) - 1 - 2  # tail length: cycle (5,6) occupies the last two steps


def test_canonicalize(table):
    # Cycles from their minimum, as the census's cycle finder gives them.
    cycles = check_cycles([2, 11, 3], [4, 1, 2], [5, 7, 9, 6, 4, 7, 10], table.spf)
    assert [(c.members, c.sign_pattern) for c in cycles] == [
        ((5, 7, 9, 6), "++--"),
        ((4,), "-"),
        ((7, 10), "+-"),
    ]


def test_canonicalize_rejects_non_cycle(table):
    with pytest.raises(ConsistencyError, match="a=2: 5 -> 7, expected 6"):
        check_cycles([2], [2], [5, 6], table.spf)


def test_sign_patterns():
    reports = [
        run_census(a, 10**5)
        for a in range(1, 41)
    ]
    # only the fixed point (4) has length 1, and it is composite
    assert sign_patterns_of_length(1, reports) == {"-"}
    # k = 3: small shifts only realize one interior sign choice; the other
    # first appears at a = 194 with the cycle (17, 211, 405)
    assert sign_patterns_of_length(3, reports) == {"+--"}
    far = run_census(194, 10**5)
    assert "++-" in sign_patterns_of_length(3, [far])
    # a = 39 contributes the 2-cycle (43, 82)
    assert "+-" in sign_patterns_of_length(2, reports[38:39])
    # every longer cycle starts prime and ends composite in canonical form
    for rep in reports:
        for cyc in rep.cycles:
            if len(cyc) > 2:
                assert cyc.sign_pattern[0] == "+"
                assert cyc.sign_pattern[-1] == "-"


def test_nontrivial_cycle_minimum_is_prime():
    for a in range(1, 31):
        rep = run_census(a, 10**5)
        for cyc in (c for c in rep.cycles if len(c) > 1):
            assert cyc.sign_pattern[0] == "+"
