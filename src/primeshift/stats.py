"""Empirical distribution checks: partial sums, local densities, residues.

Partial sums are exact integer accumulations over the bulk tables; the
analytic reference terms (pi^2 x^2 / (12 log x) and friends) are double
precision, which is all the ratio diagnostics need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import Shift, as_shift
from .errors import DomainError
from .sieve import SieveTable
from .tables import beta, big_b, step_map


@dataclass(frozen=True)
class PartialSumSeries:
    """Exact partial sums at increasing checkpoints plus reference terms."""

    checkpoints: tuple[int, ...]
    sums: tuple[int, ...]
    reference: tuple[float, ...]
    ratios: tuple[float, ...]

    def __post_init__(self):
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise DomainError("checkpoints must be strictly increasing")
        if not (
            len(self.checkpoints) == len(self.sums) == len(self.reference) == len(self.ratios)
        ):
            raise DomainError("series fields must have equal lengths")


def _checked_cps(checkpoints, table):
    """Checkpoints ascending, each in [2, table.limit]."""
    cps = sorted(int(c) for c in checkpoints)
    table.check_x(cps[0])
    table.check_x(cps[-1])
    return cps


def _exact_partial_sums(values, cps):
    """Exact sums of values[: c - 1] for each checkpoint c (values start at n=2).

    Each chunk's int64 sum stays within 2^61 by the choice of its length,
    and the chunk sums add up in Python integers, so every sum is exact.
    """
    peak = int(np.abs(values).max())
    chunk = max(1, 2**61 // max(peak, 1))
    out, total, prev = [], 0, 0
    for c in cps:
        seg = values[prev : c - 1]
        for lo in range(0, seg.size, chunk):
            total += int(seg[lo : lo + chunk].sum(dtype=np.int64))
        out.append(total)
        prev = c - 1
    return out


def _series(checkpoints, values, ref_fn, ratio_fn=None):
    cps = tuple(int(c) for c in checkpoints)
    sums = tuple(_exact_partial_sums(values, cps))
    refs = tuple(float(ref_fn(c)) for c in cps)
    if ratio_fn is None:
        ratios = tuple(s / r if r else math.inf for s, r in zip(sums, refs))
    else:
        ratios = tuple(ratio_fn(c, s, r) for c, s, r in zip(cps, sums, refs))
    return PartialSumSeries(cps, sums, refs, ratios)


def average_order_series(shift: Shift | int, checkpoints, table: SieveTable) -> PartialSumSeries:
    """Partial sums of B_a against the main term pi^2 x^2 / (12 log x)."""
    shift = as_shift(shift)
    cps = _checked_cps(checkpoints, table)
    f = step_map(table, shift)  # exact B_a values; escapes above limit are irrelevant to sums
    return _series(
        cps,
        f[2 : max(cps) + 1],
        lambda x: math.pi**2 * x * x / (12 * math.log(x)),
    )


def b_minus_beta_series(shift: Shift | int, checkpoints, table: SieveTable) -> PartialSumSeries:
    """Partial sums of B_a - beta_a (= B - beta, shift-independent).

    Reference is x log log x; the ratio reported is (sum - ref) / x, the
    bounded quantity in the expansion x log log x + O(x).
    """
    as_shift(shift)  # validated; the difference does not depend on a
    cps = _checked_cps(checkpoints, table)
    diff = big_b(table)[2 : max(cps) + 1] - beta(table)[2 : max(cps) + 1]
    return _series(
        cps,
        diff,
        lambda x: x * math.log(math.log(x)),
        ratio_fn=lambda x, s, r: (s - r) / x,
    )


def estimate_local_density(N: int, x: int, table: SieveTable) -> float:
    """Fraction of n <= x with B(n) - beta(n) = N."""
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    table.check_x(x)
    diff = big_b(table)[2 : x + 1] - beta(table)[2 : x + 1]
    return int(np.count_nonzero(diff == N)) / x


def parity_sum(shift: Shift | int, checkpoints, table: SieveTable) -> PartialSumSeries:
    """S(x) = sum over 2 <= n <= x of (-1)^{B_a(n)}.

    For even a the sum is o(x): reference is 0 and the ratio reported is
    |S(x)| / x.  For odd a the sign flips at every odd prime, so S(x)
    tracks 2 pi(x); reference is 2x / log x with ratio S / reference.
    """
    shift = as_shift(shift)
    cps = _checked_cps(checkpoints, table)
    f = step_map(table, shift)
    signs = 1 - 2 * (f[2 : max(cps) + 1] & 1)
    if shift.a % 2 == 0:
        return _series(
            cps, signs, lambda x: 0.0, ratio_fn=lambda x, s, r: abs(s) / x
        )
    return _series(cps, signs, lambda x: 2 * x / math.log(x))


def residue_distribution(shift: Shift | int, q: int, x: int, table: SieveTable) -> dict[int, int]:
    """Counts of n <= x (n >= 2) with B_a(n) = h mod q, for each residue h."""
    if q <= 2:
        raise DomainError(f"q must be > 2, got {q}")
    shift = as_shift(shift)
    table.check_x(x)
    f = step_map(table, shift)
    counts = np.bincount(f[2 : x + 1] % q, minlength=q)
    return {h: int(counts[h]) for h in range(q)}
