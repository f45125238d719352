"""Empirical distribution checks: partial sums, local densities, residues,
and the density of the n whose B(n) lies in a set.

Each check streams B_a from tables.shifted_segments, or B or B - beta
from tables.segments, over 2 <= n <= x and sums or counts segment by
segment, so no table spans the range but the stream's B at the odd n
<= x // 2 (1 B per entry of the range) and the set's mask over [0, x].
Partial sums are exact integers; the analytic reference terms (pi^2 x^2
/ (12 log x) and friends) are double precision, which is all the ratio
diagnostics need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import check_shift
from .errors import DomainError
from .sieve import zeros
from .tables import b_term, check_x, excess_term, segments, shifted_segments


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


def _checked_cps(checkpoints, a=None):
    """Checkpoints ascending, each at least 2 (see check_x)."""
    cps = sorted(int(c) for c in checkpoints)
    check_x(cps[0], a)
    return cps


def _from_two(parts):
    """The (s, values) segments cut to n >= 2."""
    for s, values in parts:
        yield max(s, 2), values[max(2 - s, 0) :]


def _shifted(a, x):
    """B_a over 2 <= n <= x as (lo, values) segments."""
    return _from_two((s, f) for s, _, f in shifted_segments(a, x))


def _excess(x):
    """B - beta (= B_a - beta_a for every a) over 2 <= n <= x as (lo, values) segments."""
    return _from_two((s, v) for s, _, v in segments(x, excess_term))


def _exact_sum(values):
    """Exact sum of values: each chunk's int64 sum stays within 2^61 by the
    choice of its length, and the chunk sums add up in Python integers."""
    chunk = max(1, 2**61 // max(int(np.abs(values).max(initial=0)), 1))
    return sum(int(values[i : i + chunk].sum(dtype=np.int64)) for i in range(0, values.size, chunk))


def _exact_partial_sums(parts, cps):
    """Exact sums of the values over 2 <= n <= c for each checkpoint c, from
    parts, the (lo, values over [lo, lo + values.size)) from lo = 2 on."""
    out, total = [], 0
    for lo, values in parts:
        out += [total + _exact_sum(values[: c + 1 - lo]) for c in cps if lo <= c < lo + values.size]
        total += _exact_sum(values)
    return out


def _series(cps, parts, ref_fn, ratio_fn=None):
    sums = tuple(_exact_partial_sums(parts, cps))
    refs = tuple(float(ref_fn(c)) for c in cps)
    if ratio_fn is None:
        ratios = tuple(s / r if r else math.inf for s, r in zip(sums, refs))
    else:
        ratios = tuple(ratio_fn(c, s, r) for c, s, r in zip(cps, sums, refs))
    return PartialSumSeries(tuple(cps), sums, refs, ratios)


def average_order_series(a: int, checkpoints) -> PartialSumSeries:
    """Partial sums of B_a against the main term pi^2 x^2 / (12 log x)."""
    a = check_shift(a)
    cps = _checked_cps(checkpoints, a)
    return _series(cps, _shifted(a, cps[-1]), lambda x: math.pi**2 * x * x / (12 * math.log(x)))


def b_minus_beta_series(a: int, checkpoints) -> PartialSumSeries:
    """Partial sums of B_a - beta_a (= B - beta, shift-independent).

    Reference is x log log x; the ratio reported is (sum - ref) / x, the
    bounded quantity in the expansion x log log x + O(x).
    """
    check_shift(a)  # validated; the difference does not depend on a
    cps = _checked_cps(checkpoints)
    return _series(
        cps,
        _excess(cps[-1]),
        lambda x: x * math.log(math.log(x)),
        ratio_fn=lambda x, s, r: (s - r) / x,
    )


def estimate_local_density(N: int, x: int) -> float:
    """Fraction of n <= x with B(n) - beta(n) = N."""
    if N < 0:
        raise DomainError(f"--N must be >= 0, got {N}")
    check_x(x)
    return sum(int(np.count_nonzero(v == N)) for _, v in _excess(x)) / x


def preimage_density(target, x: int) -> tuple[int, float]:
    """(count, density) of {2 <= n <= x : B(n) in a set}; density is count / x.

    target(lo, spf) marks the set's members among the k in [lo, lo +
    spf.size), given spf over them.  The segments pass in order and fill
    one mask over [0, x] with their marks; B(n) lies in [2, n] for n >= 2,
    so every lookup reads a mark already written.
    """
    check_x(x)
    mask = zeros(x + 1, bool, f"the target mask to x={x}")
    count = 0
    for s, spf, v in segments(x, b_term):
        mask[s : s + spf.size] = target(s, spf)
        count += int(np.count_nonzero(mask[v[max(2 - s, 0) :]]))
    return count, count / x


def parity_sum(a: int, checkpoints) -> PartialSumSeries:
    """S(x) = sum over 2 <= n <= x of (-1)^{B_a(n)}.

    For even a the sum is o(x): reference is 0 and the ratio reported is
    |S(x)| / x.  For odd a the sign flips at every odd prime, so S(x)
    tracks 2 pi(x); reference is 2x / log x with ratio S / reference.
    """
    a = check_shift(a)
    cps = _checked_cps(checkpoints, a)
    signs = ((lo, 1 - 2 * (f & 1)) for lo, f in _shifted(a, cps[-1]))
    if a % 2 == 0:
        return _series(cps, signs, lambda x: 0.0, ratio_fn=lambda x, s, r: abs(s) / x)
    return _series(cps, signs, lambda x: 2 * x / math.log(x))


def residue_distribution(a: int, q: int, x: int) -> dict[int, int]:
    """Counts of n <= x (n >= 2) with B_a(n) = h mod q, for each residue h."""
    a = check_shift(a)
    if q <= 2:
        raise DomainError(f"--q must be > 2, got {q}")
    check_x(x, a)
    counts = sum(np.bincount(f % q, minlength=q) for _, f in _shifted(a, x))
    return {h: int(counts[h]) for h in range(q)}
