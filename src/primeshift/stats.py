"""Empirical distribution checks: partial sums, local densities, residues.

Partial sums are exact int64 accumulations over the value tables; the
analytic reference terms (pi^2 x^2 / (12 log x) and friends) are double
precision, which is all the ratio diagnostics need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import Shift, as_shift
from .errors import DomainError
from .tables import ValueTable, step_map


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


def _checked_cps(checkpoints, vt):
    """Checkpoints ascending, each in [2, vt.limit]."""
    cps = sorted(int(c) for c in checkpoints)
    vt.check_x(cps[0])
    vt.check_x(cps[-1])
    return cps


def _exact_partial_sums(values, cps):
    """Exact sums of values[: c - 1] for each checkpoint c (values start at n=2).

    Uses an int64 cumsum when provably overflow-free, otherwise chunked
    accumulation into arbitrary-precision Python integers.
    """
    n = values.size
    peak = int(np.abs(values).max()) if n else 0
    if n * peak < 2**62:
        csum = np.cumsum(values, dtype=np.int64)
        return [int(csum[c - 2]) for c in cps]
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


def average_order_series(shift: Shift | int, checkpoints, vt: ValueTable) -> PartialSumSeries:
    """Partial sums of B_a against the main term pi^2 x^2 / (12 log x)."""
    shift = as_shift(shift)
    cps = _checked_cps(checkpoints, vt)
    f = step_map(vt, shift)  # exact B_a values; escapes above limit are irrelevant to sums
    return _series(
        cps,
        f[2 : max(cps) + 1],
        lambda x: math.pi**2 * x * x / (12 * math.log(x)),
    )


def b_minus_beta_series(shift: Shift | int, checkpoints, vt: ValueTable) -> PartialSumSeries:
    """Partial sums of B_a - beta_a (= B - beta, shift-independent).

    Reference is x log log x; the ratio reported is (sum - ref) / x, the
    bounded quantity in the expansion x log log x + O(x).
    """
    as_shift(shift)  # validated; the difference does not depend on a
    cps = _checked_cps(checkpoints, vt)
    diff = vt.big_b[2 : max(cps) + 1] - vt.beta[2 : max(cps) + 1]
    return _series(
        cps,
        diff,
        lambda x: x * math.log(math.log(x)),
        ratio_fn=lambda x, s, r: (s - r) / x,
    )


def estimate_local_density(N: int, x: int, vt: ValueTable) -> float:
    """Fraction of n <= x with B(n) - beta(n) = N."""
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    vt.check_x(x)
    diff = vt.big_b[2 : x + 1] - vt.beta[2 : x + 1]
    return int(np.count_nonzero(diff == N)) / x


def parity_sum(shift: Shift | int, checkpoints, vt: ValueTable) -> PartialSumSeries:
    """S(x) = sum over 2 <= n <= x of (-1)^{B_a(n)}.

    For even a the sum is o(x): reference is 0 and the ratio reported is
    |S(x)| / x.  For odd a the sign flips at every odd prime, so S(x)
    tracks 2 pi(x); reference is 2x / log x with ratio S / reference.
    """
    shift = as_shift(shift)
    cps = _checked_cps(checkpoints, vt)
    f = step_map(vt, shift)
    signs = 1 - 2 * (f[2 : max(cps) + 1] & 1)
    if shift.a % 2 == 0:
        return _series(
            cps, signs, lambda x: 0.0, ratio_fn=lambda x, s, r: abs(s) / x
        )
    return _series(cps, signs, lambda x: 2 * x / math.log(x))


def residue_distribution(shift: Shift | int, q: int, x: int, vt: ValueTable) -> dict[int, int]:
    """Counts of n <= x (n >= 2) with B_a(n) = h mod q, for each residue h."""
    if q <= 2:
        raise DomainError(f"q must be > 2, got {q}")
    shift = as_shift(shift)
    vt.check_x(x)
    f = step_map(vt, shift)
    counts = np.bincount(f[2 : x + 1] % q, minlength=q)
    return {h: int(counts[h]) for h in range(q)}
