"""Partial-sum diagnostics for B_a: average order, B - beta, and parity.

Emits one table per statistic at checkpoints 10^4, 10^5, ..., x.

Usage: python3 scripts/partial_sum_report.py [--a 0] [--x 1000000]
"""

import argparse

from primeshift import (
    average_order_series,
    b_minus_beta_series,
    build_sieve,
    build_value_table,
    parity_sum,
)


def show(title, series):
    print(title)
    print(f"{'x':>9} {'sum':>16} {'reference':>16} {'ratio':>9}")
    for x, s, r, t in zip(series.checkpoints, series.sums, series.reference, series.ratios):
        print(f"{x:>9} {s:>16} {r:>16.1f} {t:>9.4f}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=int, default=0)
    ap.add_argument("--x", type=int, default=10**6)
    args = ap.parse_args()

    cps = []
    c = 10**4
    while c < args.x:
        cps.append(c)
        c *= 10
    cps.append(args.x)

    table = build_sieve(args.x)
    vt = build_value_table(table)

    show(f"sum B_{args.a}(n), reference pi^2 x^2 / (12 log x)",
         average_order_series(args.a, cps, table, vt))
    show("sum (B - beta)(n), reference x log log x",
         b_minus_beta_series(args.a, cps, table, vt))
    show(f"parity sum of (-1)^B_{args.a}(n)",
         parity_sum(args.a, cps, table, vt))


if __name__ == "__main__":
    main()
