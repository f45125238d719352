import pytest

from oracles import min_composite_preimage, validate_chain, verify_amicable
from primeshift import DomainError, build_amicable, find_ascending_chain
from primeshift.arith import big_B, shifted_B
from primeshift.sieve import is_prime


def test_amicable_examples():
    pair = build_amicable(7)
    assert (pair.p, pair.n, pair.a) == (7, 10, 3)
    pair = build_amicable(11)
    assert (pair.p, pair.n, pair.a) == (11, 28, 17)
    pair = build_amicable(5)
    assert (pair.p, pair.n, pair.a) == (5, 6, 1)


def test_amicable_is_two_cycle(table):
    for p in (5, 7, 11, 29, 97, 541, 9973):
        pair = build_amicable(p)
        assert verify_amicable(pair, table)
        assert not is_prime(pair.n, table)
        assert big_B(pair.n, table) == p


def test_amicable_domain():
    for bad in (2, 3, 4, 9):
        with pytest.raises(DomainError):
            build_amicable(bad)


def test_min_composite_preimage(table):
    assert min_composite_preimage(7, table) == 10
    assert min_composite_preimage(11, table) == 28
    assert min_composite_preimage(5, table) == 6
    # brute-force cross-check against scalar evaluation
    for p in (13, 29):
        mn = min_composite_preimage(p, table)
        assert not is_prime(mn, table) and big_B(mn, table) == p
        for n in range(4, mn):
            assert is_prime(n, table) or big_B(n, table) != p


def test_minimality_counterexample(table):
    # the largest-divisor construction does NOT always give the minimum:
    # p = 29 builds 23*3^2 = 207 but 23*2^3 = 184 is a smaller preimage
    pair = build_amicable(29)
    assert pair.n == 207
    assert min_composite_preimage(29, table) == 184


def test_chain_k1(table):
    w = find_ascending_chain(1, 1000)
    assert (w.n, w.a, w.chain) == (3, 2, (3, 5))
    assert validate_chain(w, table)


def test_chain_k4(table):
    w = find_ascending_chain(4, 1000)
    assert w.chain == (5, 11, 17, 23, 29)
    assert w.a == 6
    assert validate_chain(w, table)
    # each step really is the shifted map
    for i in range(4):
        assert shifted_B(w.chain[i], w.a, table) == w.chain[i + 1]


def test_chain_k2_smallest():
    w = find_ascending_chain(2, 1000)
    assert (w.n, w.a, w.chain) == (3, 2, (3, 5, 7))


def test_chain_none_at_desk_scale():
    # an AP of 21 primes needs a divisible by every prime <= 20 (> 10^6)
    assert find_ascending_chain(20, 10**6) is None


def test_chain_domain():
    with pytest.raises(DomainError):
        find_ascending_chain(0, 100)
