"""Empirical distribution checks: partial sums, local densities, residues,
and the density of the n whose B(n) lies in a set.

The checks of B and B_a stream them from tables.segments or
tables.shifted_segments over 2 <= n <= x and sum or count segment by
segment, so no table spans the range but the stream's B at the odd n <=
x // 2 (1 B per entry of the range) and the set's mask over [0, x].  The
checks of B - beta stream nothing: (B - beta)(n) is the sum of p over the
prime powers p^k | n with k >= 2, so both read the p^k <= x from
_prime_powers.  Partial sums are exact integers; the analytic reference
terms (pi^2 x^2 / (12 log x) and friends) are double precision, which is
all the ratio diagnostics need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import check_shift
from .errors import DomainError, RangeOverflowError
from .sieve import CHUNK, WORD_MAX, covering, zeros
from .tables import check_x, segments, shifted_segments


@dataclass(frozen=True)
class PartialSumSeries:
    """Exact partial sums at increasing checkpoints plus reference terms."""

    checkpoints: tuple[int, ...]
    sums: tuple[int, ...]
    reference: tuple[float, ...]
    ratios: tuple[float, ...]


def _checked_cps(checkpoints, a=None):
    """Checkpoints ascending, each at least 2 (see check_x)."""
    cps = sorted(int(c) for c in checkpoints)
    check_x(cps[0], a)
    return cps


def _shifted(a, x):
    """B_a over 2 <= n <= x as (lo, values) segments."""
    for s, f in shifted_segments(a, x):
        yield max(s, 2), f[max(2 - s, 0) :]


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


def _series(cps, sums, ref_fn, ratio_fn=None):
    sums = tuple(sums)
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
    sums = _exact_partial_sums(_shifted(a, cps[-1]), cps)
    return _series(cps, sums, lambda x: math.pi**2 * x * x / (12 * math.log(x)))


def _prime_powers(x: int, mode: str):
    """(p, q) for every prime power q = p^k <= x with k >= 2, in int64, from
    the primes up to isqrt(x); the refusals name --x and stats mode."""
    if x > WORD_MAX:
        raise RangeOverflowError(f"--x {x} exceeds the 64-bit range")
    r = math.isqrt(x)
    primes = covering(r, f"stats {mode} with --x {x}").primes()
    p = primes[: np.searchsorted(primes, r, side="right")]
    ps, qs = [p], [p * p]
    while p.size:  # qs[-1] holds the p^k <= x, ascending; p^(k+1) <= x iff p^k <= x // p
        p = p[: np.count_nonzero(qs[-1] <= x // p)]
        ps.append(p)
        qs.append(qs[-1][: p.size] * p)
    return np.concatenate(ps), np.concatenate(qs)


def b_minus_beta_series(a: int, checkpoints) -> PartialSumSeries:
    """Partial sums of B_a - beta_a (= B - beta, shift-independent).

    The sum over 2 <= n <= c is that of p * (c // p^k) over the prime
    powers p^k <= c with k >= 2; a power past c adds 0.  Reference is x
    log log x; the ratio reported is (sum - ref) / x, the bounded quantity
    in the expansion x log log x + O(x).
    """
    check_shift(a)  # validated; the difference does not depend on a
    cps = _checked_cps(checkpoints)
    p, q = _prime_powers(cps[-1], "bmb")
    return _series(
        cps,
        (_exact_sum(p * (c // q)) for c in cps),
        lambda x: x * math.log(math.log(x)),
        ratio_fn=lambda x, s, r: (s - r) / x,
    )


def estimate_local_density(N: int, x: int) -> float:
    """Fraction of n <= x with B(n) - beta(n) = N.

    Each window of CHUNK entries of [2, x] starts at 0, and each prime
    power p^k (k >= 2) adds p at its multiples there: a power shorter than
    the window in one strided slice, and the longer ones, each with at most
    one multiple in the window, in one np.add.at.  A fancy-index += would
    drop the adds that share an n, as p^2 and p^3 do at multiples of p^3.
    """
    if N < 0:
        raise DomainError(f"--N must be >= 0, got {N}")
    check_x(x)
    p, q = _prime_powers(x, "density")
    short = q < CHUNK
    steps = list(zip(p[short].tolist(), q[short].tolist()))
    p, q = p[~short], q[~short]
    count = 0
    for lo in range(2, x + 1, CHUNK):
        v = np.zeros(min(CHUNK, x + 1 - lo), dtype=np.int64)
        for pk, qk in steps:
            v[-lo % qk :: qk] += pk
        first = -lo % q
        hit = first < v.size
        np.add.at(v, first[hit], p[hit])
        count += int(np.count_nonzero(v == N))
        del v  # so the next window is built without it
    return count / x


def preimage_density(target, x: int) -> tuple[int, float]:
    """(count, density) of {2 <= n <= x : B(n) in a set}; density is count / x.

    target(lo, v) marks the set's members among the k in [lo, lo +
    v.size), given v = B over them.  The segments pass in order and fill
    one mask over [0, x] with their marks; B(n) lies in [2, n] for n >= 2,
    so every lookup reads a mark already written.
    """
    check_x(x)
    mask = zeros(x + 1, bool, f"the target mask to x={x}")
    count = 0
    for s, v in segments(x):
        mask[s : s + v.size] = target(s, v)
        count += int(np.count_nonzero(mask.take(v[max(2 - s, 0) :])))
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
    sums = _exact_partial_sums(signs, cps)
    if a % 2 == 0:
        return _series(cps, sums, lambda x: 0.0, ratio_fn=lambda x, s, r: abs(s) / x)
    return _series(cps, sums, lambda x: 2 * x / math.log(x))


def residue_distribution(a: int, q: int, x: int) -> list[int]:
    """Counts of n <= x (n >= 2) with B_a(n) = h mod q, by residue h from 0 to q - 1."""
    a = check_shift(a)
    if q <= 2:
        raise DomainError(f"--q must be > 2, got {q}")
    check_x(x, a)
    # f - f // q * q is f % q, and about 4x faster: numpy's // by a scalar
    # runs through libdivide, which its % lacks.
    counts = sum(np.bincount(f - f // q * q, minlength=q) for _, f in _shifted(a, x))
    return counts.tolist()
