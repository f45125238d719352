"""Acceptance gate: fifteen numbered criteria, one printed verdict line each.

Each criterion prints ``CRITERION nn (label): PASS`` or ``FAIL`` directly to
the terminal (bypassing capture) and then asserts, so the pytest verdict and
the printed line always agree.  Criterion 1 is expected to fail: three rows
of the bundled cycle catalog (a = 9, 11, 13) are not closed under the map
they claim to describe, so no correct implementation can reproduce them.
The failure message carries the closure counterexamples.
"""

import math

import numpy as np
import pytest

from oracles import (
    A39_CYCLES,
    COMPUTED_CORRECTIONS,
    excess_tail_count,
    kappa_asymptotic_ratio,
    min_composite_preimage,
    prime_count,
    shifted_map,
    validate_chain,
    verify_amicable,
)
from primeshift import (
    build_amicable,
    build_kappa,
    estimate_local_density,
    average_order_series,
    find_ascending_chain,
    parity_sum,
    preimage_density,
    run_census,
    cycle_count_sweep,
)
from primeshift.arith import shifted_B
from primeshift.sieve import is_prime
from primeshift.golden import (
    CYCLE_TABLE,
    KNOWN_BAD_ROWS,
    canonical_set,
)

LIMIT = 10**6


def report(capsys, cid, label, ok, detail=""):
    line = f"CRITERION {cid:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_cycle_catalog(table, capsys):
    mismatches = []
    for a in sorted(CYCLE_TABLE):
        rep = run_census(a, LIMIT)
        got = {c.members for c in rep.cycles if len(c) > 1}
        want = canonical_set(CYCLE_TABLE[a])
        if got != want:
            mismatches.append((a, sorted(got), sorted(want)))
    detail = ""
    if mismatches:
        rows = sorted(a for a, _, _ in mismatches)
        parts = [f"rows {rows} do not reproduce"]
        for a, got, want in mismatches:
            if a in KNOWN_BAD_ROWS:
                cyc = CYCLE_TABLE[a][0]
                step = shifted_B(cyc[0], a, table)
                parts.append(
                    f"a={a}: catalog cycle {cyc} is not closed "
                    f"(B_{a}({cyc[0]})={step}, catalog says {cyc[1]}); "
                    f"computed cycles {got} match corrections "
                    f"{sorted(canonical_set(COMPUTED_CORRECTIONS[a]))}"
                )
        detail = "; ".join(parts)
        for a, got, _ in mismatches:
            assert a in KNOWN_BAD_ROWS
            assert set(got) == canonical_set(COMPUTED_CORRECTIONS[a])
    report(capsys, 1, "cycle catalog a=1..20 at 10^6", not mismatches, detail)


def test_criterion_02_a39_census(capsys):
    rep = run_census(39, LIMIT)
    ok = {c.members for c in rep.cycles if len(c) > 1} == canonical_set(A39_CYCLES)
    report(capsys, 2, "a=39 has exactly four nontrivial cycles", ok)


def test_criterion_03_sweep_max_four(capsys):
    counts, argmax = cycle_count_sweep(200, LIMIT)
    ok = max(counts.values()) == 4
    report(capsys, 3, "sweep a<=200: max nontrivial cycles is 4", ok,
           f"argmax a={sorted(argmax)}")


def test_criterion_04_a1_dynamics(table, oracle_values, capsys):
    b, _, is_p = oracle_values
    f = shifted_map(b, is_p, 1)
    n = np.arange(LIMIT + 1)
    prime = table.spf[: LIMIT + 1] == n  # also True at n = 0, excluded below
    comp = ~prime
    comp[:4] = False
    comp[6] = False  # exclude cycle members 4..6 handled below
    comp[4] = False
    comp[5] = False
    ok = bool(np.all(f[: LIMIT + 1][comp] < n[comp]))  # sigma = 1 on composites
    p = n[7:][prime[7:]]
    ok = ok and bool(np.all(f[f[p]] < p))  # sigma = 2 on primes > 6
    rep = run_census(1, LIMIT)
    ok = ok and {c.members for c in rep.cycles} == {(4,), (5, 6)}
    report(capsys, 4, "a=1 orbits end in (4) or (5,6), sigma exact", ok)


def test_criterion_05_unique_fixed_point(oracle_values, capsys):
    bound = 10**5
    n = np.arange(bound + 1)
    b, _, prime = (v[: bound + 1] for v in oracle_values)
    bad = []
    for a in range(1, 101):
        f = shifted_map(b, prime, a)
        fixed = n[2:][f[2:] == n[2:]]
        if list(fixed) != [4]:
            bad.append((a, list(fixed)))
    report(capsys, 5, "only fixed point for a<=100, n<=10^5 is 4", not bad,
           str(bad) if bad else "")


def test_criterion_06_composite_bound(table, b_values, capsys):
    n = np.arange(LIMIT + 1)
    comp = table.spf[: LIMIT + 1] != n
    comp[:4] = False
    ok = bool(np.all(2 * b_values[: LIMIT + 1][comp] <= 4 + n[comp]))
    report(capsys, 6, "B(n) <= 2 + n/2 on composites to 10^6", ok)


def test_criterion_07_descent_bound(table, oracle_values, capsys):
    b, _, is_p = oracle_values
    bound = 10**5
    n = np.arange(bound + 1)
    prime = table.spf[: bound + 1] == n  # also True at n = 0, below every floor
    failures = []
    for a in range(1, 51):
        f = shifted_map(b, is_p, a)
        floor = 2 * a * a + 10
        p = n[prime & (n > floor)]
        x = p.copy()
        dropped = np.zeros(len(p), dtype=bool)
        for _ in range(2 * a + 1):
            x = f[x]
            dropped |= x < p
        if not dropped.all():
            failures.append((a, p[~dropped][:3].tolist()))
    report(capsys, 7, "descent within 2a+1 steps for primes > 2a^2+10",
           not failures, str(failures) if failures else "")


def test_criterion_08_amicable(table, capsys):
    valid = True
    for p in range(5, 10**4 + 1):
        if is_prime(p, table):
            pair = build_amicable(p)
            valid = valid and verify_amicable(pair, table)
    findings = []
    for p in range(5, 10**3 + 1):
        if is_prime(p, table):
            pair = build_amicable(p)
            mn = min_composite_preimage(p, table)
            if pair.n != mn:
                findings.append((p, pair.n, mn))
    detail = (
        f"2-cycle validity exact for all primes <= 10^4; minimality claim "
        f"fails for {len(findings)} primes <= 10^3, first cases "
        f"{findings[:3]} (p, constructed, true minimum)"
        if findings
        else "minimality confirmed for all primes <= 10^3"
    )
    report(capsys, 8, "amicable 2-cycles valid; minimality reported", valid, detail)


def test_criterion_09_kappa_oracle(table, kappa60, capsys):
    ways = [0] * 61
    ways[0] = 1
    for p in range(2, 61):
        if is_prime(p, table):
            for v in range(p, 61):
                ways[v] += ways[v - p]
    ok = all(kappa60[m] == ways[m] for m in range(1, 61))
    ok = ok and (kappa60[1], kappa60[2], kappa60[7]) == (0, 1, 3)
    report(capsys, 9, "kappa recursion matches enumeration to 60", ok)


def test_criterion_10_kappa_trend(capsys):
    kt = build_kappa(10**4)
    r = [kappa_asymptotic_ratio(m, kt) for m in (10**2, 10**3, 10**4)]
    ok = r[0] < r[1] < r[2] and 0.5 < r[1] < 1.1
    report(capsys, 10, "kappa growth ratio increasing, in band at 10^3", ok,
           "ratios " + ", ".join(f"{v:.3f}" for v in r))


def test_criterion_11_average_order(table, capsys):
    s = average_order_series(0, [10**4, 10**5, 10**6])
    ok = all(0.9 < r < 1.4 for r in s.ratios)
    ok = ok and abs(s.ratios[0] - 1) > abs(s.ratios[1] - 1) > abs(s.ratios[2] - 1)
    pi_x = prime_count(table, 10**6)
    for a in (1, 10):
        sa = average_order_series(a, [10**6])
        ok = ok and sa.sums[0] - s.sums[2] == a * pi_x
    report(capsys, 11, "average order band and exact shift decomposition", ok,
           "ratios " + ", ".join(f"{v:.3f}" for v in s.ratios))


def test_criterion_12_parity(table, capsys):
    s0 = parity_sum(0, [10**6])
    s1 = parity_sum(1, [10**6])
    r = s1.sums[0] / (2 * prime_count(table, 10**6))
    ok = abs(s0.sums[0]) / 10**6 < 0.02 and 0.7 < r < 1.3
    report(capsys, 12, "parity sums: even-shift cancellation, odd-shift drift",
           ok, f"|S0|/x={abs(s0.sums[0])/10**6:.4f}, odd ratio={r:.3f}")


def test_criterion_13_local_density(b_values, beta_values, capsys):
    d0 = estimate_local_density(0, 10**6)
    ok = abs(d0 - 6 / math.pi**2) < 0.01
    # fit the tail constant on the 10^5 data, verify it at 10^6
    ks = (4, 8, 16)
    fit_x = 10**5
    C = 1.1 * max(K * excess_tail_count(K, fit_x, b_values, beta_values) / fit_x for K in ks)
    for K in ks:
        ok = ok and excess_tail_count(K, 10**6, b_values, beta_values) <= C * 10**6 / K
    report(capsys, 13, "density at N=0 and fitted tail bound", ok,
           f"d0={d0:.6f}, C={C:.3f}")


def test_criterion_14_square_value_density(capsys):
    squares = np.arange(1001) ** 2  # every B-value here is <= 10^6 = 1000^2
    sq = lambda lo, v: np.isin(np.arange(lo, lo + v.size), squares)
    d = [preimage_density(sq, x)[1] for x in (10**4, 10**5, 10**6)]
    ok = d[0] > d[1] > d[2] > 0
    report(capsys, 14, "density of square B-values strictly decreasing", ok,
           "densities " + ", ".join(f"{v:.5f}" for v in d))


def test_criterion_15_ascending_chain(table, capsys):
    w = find_ascending_chain(4, 10**3)
    ok = w is not None and w.chain == (5, 11, 17, 23, 29) and w.a == 6
    ok = ok and validate_chain(w, table)
    report(capsys, 15, "length-4 ascending chain 5 11 17 23 29 at a=6", ok)
