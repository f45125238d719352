"""Whole-range cycle censuses: every start up to a limit, one shift at a time.

No B_a orbit is unbounded, and census_limit gives the bound: orbits from
starts <= S never leave [2, census_limit(a, S)].  The census treats B_a
on that range as a functional graph held in one flat array.  Short scalar
walks from a small prefix of starts find every cycle (see _find_cycles);
one ascending pass over the blocks [lo, 2*lo), each at most CHUNK long,
then gives every node its cycle and its distance to it, because a node's
successor almost always lies in an earlier block.  The same lemma makes a
sweep over shifts cheap: starts <= climb_margin(a) + 4 already reach every
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import Shift, as_shift
from .dynamics import Cycle, canonicalize, default_max_steps
from .errors import ConsistencyError, DomainError
from .sieve import build_sieve, is_prime
from .tables import CHUNK, step_map


def climb_margin(a: int) -> int:
    """Headroom above the start range that iterates can reach.

    From a prime p the orbit climbs p, p+a, ... until a term is divisible
    by the smallest prime s not dividing a (s exists within 2a), so no
    iterate exceeds start + (s+1)*a.
    """
    if a == 0:
        return 0
    s = 2
    while a % s == 0:
        s += 1
        while not is_prime(s):
            s += 1
    return (s + 1) * a


def census_limit(a: int, start_limit: int) -> int:
    """Largest value an orbit from a start <= start_limit can reach.

    With m = climb_margin(a) and X = max(start_limit, m + 4), [2, X] is
    closed under one climb and its descent: a prime p <= X climbs to a
    composite c <= p + m, and B(c) <= c/2 + 2 <= (X + m)/2 + 2 <= X once
    X >= m + 4; a composite n <= X maps to B(n) <= n.  So orbits from
    starts <= start_limit stay in [2, X + m], and no B_a orbit is
    unbounded.
    """
    m = climb_margin(a)
    return max(start_limit, m + 4) + m


@dataclass
class CensusReport:
    """Catalog of every cycle reachable from starts 2..start_limit."""

    shift: Shift
    start_limit: int
    cycles: tuple[Cycle, ...]
    basin_counts: dict[Cycle, int] = field(repr=False)
    stopping_time_histogram: dict[int, int] = field(repr=False)
    max_total_stopping_time: int

    @property
    def nontrivial_cycles(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if len(c) > 1)


def _find_cycles(f, margin, budget, a):
    """Every cycle except the fixed points at primes, keyed by its minimum.

    Lemma: for a >= 1 every cycle has its minimum x <= margin + 4, where
    margin = climb_margin(a).  If x is composite then x <= 4, because
    B(c) <= c/2 + 2 < c for composite c > 4.  If x is prime, it climbs to
    a composite c <= x + margin, and x <= B(c) <= c/2 + 2 <= (x + margin)/2
    + 2.  So walks from the starts 2..margin+4 meet every cycle.  For
    a = 0 every cycle is a fixed point: n = 4, which the walks meet, or a
    prime, which run_census labels from the sieve's primes.
    """
    seen: set[int] = set()
    cycles: dict[int, list[int]] = {}
    for start in range(2, margin + 5):
        path: dict[int, int] = {}
        v = start
        while v not in seen and v not in path:
            if len(path) > budget:
                raise ConsistencyError(
                    f"no cycle within {budget} steps from {start} under a={a}"
                )
            path[v] = len(path)
            v = f.item(v)
        if v in path:
            members = list(path)[path[v] :]
            cycles[min(members)] = members
        seen.update(path)
    return cycles


def label_dtype(cycles: int, a: int, index) -> type:
    """dtype of the census labels, given the number of walked cycles.

    A label is a 1-based index into the sorted cycle minima, 0 while
    unresolved, so one byte holds fewer than 255 cycles.  For a = 0 every
    prime is a fixed point, and a label is its cycle's minimum.
    """
    return np.uint8 if a != 0 and cycles < 255 else index


def dist_dtype(budget: int) -> type:
    """dtype of the census distances, which lie in [0, budget]."""
    return np.uint16 if budget < 2**16 else np.int32


def _settle(pending, f, label, dist, budget, a):
    """Resolve pending nodes whose successor is resolved, until none moves.

    Returns the nodes still pending.
    """
    rounds = 0
    while pending.size:
        tgt = f[pending]
        lab = label[tgt]
        ok = lab != 0
        if not ok.any():
            break
        done = pending[ok]
        label[done] = lab[ok]
        dist[done] = dist[tgt[ok]] + 1
        pending = pending[~ok]
        rounds += 1
        if rounds > budget:
            raise ConsistencyError(f"census resolution under a={a} did not converge")
    return pending


def _counts(values):
    """np.bincount(values) in chunks, without its full-length intp copy."""
    out = np.zeros(int(values.max()) + 1, dtype=np.intp)
    for lo in range(0, values.size, CHUNK):
        part = np.bincount(values[lo : lo + CHUNK])
        out[: part.size] += part
    return out


def run_census(shift: Shift | int, start_limit: int) -> CensusReport:
    """Enumerate all cycles reached from starts 2..start_limit, with basins.

    Works on [2, census_limit(a, start_limit)], on a sieve of its own.
    Deterministic: cycles are listed by (minimum member, length) and every
    reported cycle is re-verified against the scalar map on insertion.
    Cycles reached only from starts above start_limit are not listed.
    """
    shift = as_shift(shift)
    a = shift.a
    if start_limit < 2:
        raise DomainError(f"start_limit must be >= 2, got {start_limit}")
    margin = climb_margin(a)
    limit = census_limit(a, start_limit)
    table = build_sieve(limit)
    budget = default_max_steps(limit, a)

    f = step_map(table, shift)
    # Only primes p > limit - a step past the table, and no start reaches
    # them; index 0 is never labelled, so they and their preimages stay
    # pending.
    top = f[max(limit - a, 0) + 1 :]
    top[top > limit] = 0
    walked = _find_cycles(f, margin, budget, a)
    minima = sorted(walked)

    # label[n] names the cycle n reaches (see label_dtype); dist[n] is
    # the number of B_a steps to get there.
    label = np.zeros(limit + 1, dtype=label_dtype(len(minima), a, f.dtype))
    if a == 0:
        primes = table.primes()
        label[primes] = primes
    for i, m in enumerate(minima):
        label[walked[m]] = m if a == 0 else i + 1
    dist = np.zeros(limit + 1, dtype=dist_dtype(budget))
    cap = min(budget, int(np.iinfo(dist.dtype).max) - 1)
    pending = np.empty(0, dtype=np.intp)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + CHUNK, limit + 1)
        # First round over the window as slices: a node whose successor is
        # already labelled takes that label; cycle nodes keep theirs.
        tgt = f[lo:hi].astype(np.intp)
        lab = label[tgt]
        window = label[lo:hi]
        new = window == 0
        np.copyto(dist[lo:hi], dist[tgt] + 1, where=new & (lab != 0))
        np.copyto(window, lab, where=new)
        pending = np.concatenate([pending, np.flatnonzero(window == 0) + lo])
        pending = _settle(pending, f, label, dist, budget, a)
        lo = hi
    stuck = pending[pending <= start_limit]
    if stuck.size:
        raise ConsistencyError(f"node {int(stuck[0])} under a={a} reaches no cycle")
    # Each dist is written once, from its successor's final one, so a node
    # past cap leaves one at exactly cap + 1 < 2^bits: no value wraps unseen.
    if dist.max() > cap:
        node = int(np.argmax(dist > cap))
        raise ConsistencyError(
            f"node {node} under a={a} is more than {cap} steps from its cycle"
        )

    basins = _counts(label[2 : start_limit + 1])
    cycles = []
    basin_counts = {}
    for v in np.flatnonzero(basins).tolist():
        m = v if a == 0 else minima[v - 1]
        cyc = canonicalize(walked.get(m, (m,)), shift, table)
        cycles.append(cyc)
        basin_counts[cyc] = int(basins[v])

    counts = _counts(dist[2 : start_limit + 1])
    return CensusReport(
        shift=shift,
        start_limit=start_limit,
        cycles=tuple(cycles),
        basin_counts=basin_counts,
        stopping_time_histogram={int(k): int(v) for k, v in enumerate(counts) if v},
        max_total_stopping_time=len(counts) - 1,
    )


# ---------------------------------------------------------------------------
# Sweeps over many shifts


def reached_cycles(shift: Shift | int, start_limit: int) -> tuple[Cycle, ...]:
    """The nontrivial cycles reached from starts 2..start_limit.

    By the _find_cycles lemma every cycle has its minimum, itself a start,
    at most climb_margin(a) + 4, so a census over that many starts lists
    the same cycles as any larger one.
    """
    a = as_shift(shift).a
    starts = min(start_limit, climb_margin(a) + 4)
    return run_census(shift, starts).nontrivial_cycles


def cycle_count_sweep(a_max: int, start_limit: int) -> tuple[dict[int, int], set[int]]:
    """Count distinct nontrivial cycles for each a in 1..a_max.

    Returns (counts, argmax_set).
    """
    if a_max < 1:
        raise DomainError(f"a_max must be >= 1, got {a_max}")
    counts = {a: len(reached_cycles(a, start_limit)) for a in range(1, a_max + 1)}
    best = max(counts.values())
    argmax = {a for a, c in counts.items() if c == best}
    return counts, argmax
