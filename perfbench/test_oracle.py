"""The output checker must reject wrong answers, not only accept right ones.

Run with: python3 -m pytest -q perfbench/test_oracle.py
"""

import pytest

import oracle


def test_self_test_passes():
    assert oracle.self_test() == []


def test_verbatim_a9_catalog_row_is_rejected():
    with pytest.raises(oracle.CheckError, match="not closed"):
        oracle.check_cycle((5, 15, 9, 6), 9)


def test_corrupted_fibre_is_rejected():
    with pytest.raises(oracle.CheckError):
        oracle.check_fibre({"solutions": [7, 10, 14]}, 7, 0, 1000)


def test_corrupted_kappa_is_rejected():
    payload = {"kappa": {str(m): str(v) for m, v in enumerate([0, 1, 1, 1, 2, 2, 3, 3, 4, 6], 1)}}
    with pytest.raises(oracle.CheckError, match="kappa\\(10\\)"):
        oracle.check_kappa(payload, 10, oracle.kappa_dp(10))


def test_fibre_reference_matches_a_direct_scan():
    for m, a in ((7, 0), (40, 3), (77, 11), (300, 50)):
        scan = [n for n in range(2, 5001) if oracle.shifted_b_td(n, a) == m]
        assert oracle.fibre_solutions(m, a, 5000) == scan


def test_tables_match_trial_division():
    t = oracle.Tables(3000)
    for n in range(2, 3001):
        f = oracle.factor_td(n)
        assert t.big_b[n] == sum(p * r for p, r in f)
        assert t.beta[n] == sum(p for p, _ in f)
        assert t.prime[n] == oracle.is_prime_td(n)
