"""Whole-range cycle censuses: every start up to a limit, one shift at a time.

No B_a orbit is unbounded, and census_limit gives the bound: orbits from
starts <= S never leave [2, census_limit(a, S)].  The census treats B_a
on that range as a functional graph.  Short scalar walks from a few
starts find every cycle but the prime fixed points of a = 0 (see
_find_cycles); a label is the 1-based index of a cycle's minimum among
all minima.  One ascending pass then gives every node its label and
distance, because a node's successor almost always lies below it.  Both
live in one packed state per node (see state_dtype).

B_a comes from the segment stream of tables.shifted_segments, which
builds the next segment on a worker thread while the census resolves the
current one.  The walks read their own short stream over
[0, census_limit(a, climb_margin(a) + 4)] first (_walks); then every
segment of the census stream is resolved in the blocks [lo, 2*lo) of
tables.blocks.  A node whose successor is unresolved waits with that
successor beside it.  So only the state (2 B per entry at a <= 200) and
the stream's half-range B (int32, 2 B per entry of the range) are whole:
4 B per entry.  A sweep over shifts runs no census: every cycle's
minimum is a start <= climb_margin(a) + 4, and reached_cycles only walks
from those starts, with the same _walks.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .arith import check_shift
from .dynamics import Cycle, canonicalize, default_max_steps
from .errors import ConsistencyError, DomainError, RangeOverflowError
from .sieve import CHUNK, WORD_MAX, SieveTable, index_dtype, is_prime, zeros
from .tables import blocks, shifted_segments


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
    unbounded.  A negative shift or a start_limit below 2, which leaves no
    start, raises DomainError; a range past 2^63 - 1 raises
    RangeOverflowError.  This is the census's one check of its shift.
    """
    a = check_shift(a)
    if start_limit < 2:
        raise DomainError(f"--limit must be >= 2 under a={a}, got {start_limit}")
    m = climb_margin(a)
    top = max(start_limit, m + 4) + m
    if top > WORD_MAX:
        raise RangeOverflowError(f"census of a={a} with --limit {start_limit} passes 2^63 - 1")
    return top


@dataclass
class CensusReport:
    """The cycles reached from starts 2..start_limit, each with its basin count."""

    a: int
    start_limit: int
    cycles: tuple[Cycle, ...]
    basin_counts: tuple[int, ...] = field(repr=False)
    stopping_time_histogram: dict[int, int] = field(repr=False)
    max_total_stopping_time: int


def _find_cycles(f, last, budget, a):
    """The cycles that walks from 2..last meet under the list f, by minimum.

    A walk marks each node with its start and stops at a marked one: its
    own mark closes a new cycle, an earlier walk's leads to a known one.

    Lemma: for a >= 1 every cycle has its minimum x <= margin + 4, where
    margin = climb_margin(a).  If x is composite then x <= 4, because
    B(c) <= c/2 + 2 < c for composite c > 4.  If x is prime, it climbs to
    a composite c <= x + margin, and x <= B(c) <= c/2 + 2 <= (x + margin)/2
    + 2.  So walks from the starts 2..margin+4 meet every cycle.  For
    a = 0 every cycle is a fixed point: n = 4, which the walks meet, or a
    prime, which run_census labels from the sieve's primes.
    """
    mark = [0] * len(f)
    cycles: dict[int, list[int]] = {}
    for start in range(2, last + 1):
        v, path = start, []
        while not mark[v]:
            if len(path) > budget:
                raise ConsistencyError(
                    f"no cycle within {budget} steps from {start} under a={a}"
                )
            mark[v] = start
            path.append(v)
            v = f[v]
        if mark[v] == start:
            members = path[path.index(v) :]
            cycles[min(members)] = members
    return cycles


def _walks(a, last):
    """{minimum: Cycle} of the cycles that walks from 2..last meet under B_a.

    B_a comes from a short stream of its own over [0, census_limit(a,
    last)], which holds every orbit from those starts.  Each cycle is
    checked against the scalar map (canonicalize).
    """
    top = census_limit(a, last)
    # Closing the stream on every way out stops its worker thread.
    with closing(shifted_segments(a, top)) as stream:
        _, spf, f = zip(*stream)
    table = SieveTable(top, np.concatenate(spf))
    walked = _find_cycles(np.concatenate(f).tolist(), last, default_max_steps(top, a), a)
    return {m: canonicalize(members, a, table) for m, members in walked.items()}


def state_dtype(bits: int, budget: int) -> type:
    """dtype of the packed census state dist << bits | label.

    The narrowest unsigned type that holds a dist of budget + 1 beside
    every bits-bit label, so a dist past the budget stays visible.
    """
    top = ((budget + 2) << bits) - 1
    return np.uint16 if top < 2**16 else np.uint32 if top < 2**32 else np.uint64


def _settle(nodes, succ, state, step, budget, a, start_limit):
    """Resolve pending nodes whose successor is resolved, until none moves.

    Each pending node carries its successor in succ.  Returns the nodes
    still pending and their successors.
    """
    rounds = 0
    while nodes.size:
        known = state[succ]
        ok = known != 0
        if not np.count_nonzero(ok):
            break
        if rounds == budget:
            raise ConsistencyError(
                f"node {int(nodes[0])} under a={a} with --limit {start_limit} "
                f"is unresolved after {budget} rounds"
            )
        state[nodes[ok]] = known[ok] + step
        nodes, succ = nodes[~ok], succ[~ok]
        rounds += 1
    return nodes, succ


def _counts(values, width=1):
    """np.bincount(values) in chunks, without its full-length intp copy.

    The length is rounded up to a multiple of width.  Each chunk is cast
    to intp here, because bincount will not cast a uint64 state itself.
    """
    out = np.zeros((int(values.max()) // width + 1) * width, dtype=np.intp)
    for lo in range(0, values.size, CHUNK):
        part = np.bincount(values[lo : lo + CHUNK].astype(np.intp))
        out[: part.size] += part
    return out


def run_census(a: int, start_limit: int) -> CensusReport:
    """Enumerate all cycles reached from starts 2..start_limit, with basins.

    Works on [2, census_limit(a, start_limit)], streamed segment by
    segment.  Deterministic: cycles are listed by their minimum member.
    Every walked cycle is checked against the scalar map (canonicalize);
    the prime fixed points of a = 0 come straight from the stream.  Cycles
    reached only from starts above start_limit are not listed.
    """
    limit = census_limit(a, start_limit)
    budget = default_max_steps(limit, a)
    walked = _walks(a, climb_margin(a) + 4)
    minima = [np.array(sorted(walked))]
    bits = minima[0].size.bit_length()
    if a == 0:
        # Every prime is a fixed point as well; the walks met (2), (3) and
        # (4), and the primes from 5 on take their labels segment by
        # segment, so the label count is bounded before the state exists:
        # pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld), plus 4.
        bits = (int(1.25506 * limit / math.log(limit)) + 1).bit_length()

    # state[n] = dist[n] << bits | label[n], 0 while unresolved.  label[n]
    # is the 1-based index in minima of the cycle n reaches, and dist[n]
    # the number of B_a steps to get there.  The a entries past limit,
    # where the primes p > limit - a step, are never labelled: no start
    # reaches those primes, and they and their preimages stay pending.
    bound = f"census of a={a} with --limit {start_limit}"
    state = zeros(limit + a + 1, state_dtype(bits, budget), bound)
    state[minima[0]] = np.arange(1, minima[0].size + 1, dtype=state.dtype)
    for m, cycle in walked.items():
        state[list(cycle.members)] = state[m]
    step = 1 << bits

    def resolve(lo, f, pending):
        # First round over [lo, lo + f.size) as slices: a node whose
        # successor is already resolved takes its state, one step further;
        # cycle nodes keep theirs.  The rest wait with their successors.
        succ = state.take(f)
        ok = succ != 0
        succ += step
        window = state[lo : lo + f.size]
        wait = window == 0
        ok &= wait
        succ *= ok
        window += succ
        new = np.flatnonzero(wait ^ ok)
        if new.size:
            pending = (np.concatenate([pending[0], new + lo]), np.concatenate([pending[1], f[new]]))
        return _settle(*pending, state, step, budget, a, start_limit)

    pending = (np.empty(0, dtype=np.intp), np.empty(0, dtype=index_dtype(limit + a)))
    ranked = minima[0].size
    # Closing the stream on every way out stops its worker thread.
    with closing(shifted_segments(a, limit)) as stream:
        for s, spf, f in stream:
            if a == 0:
                lo = max(s, 5)
                primes = np.flatnonzero(f[lo - s :] == spf[lo - s :]) + lo
                state[primes] = np.arange(ranked + 1, ranked + primes.size + 1, dtype=state.dtype)
                ranked += primes.size
                minima.append(primes)
            for lo, hi in blocks(s, s + f.size):
                pending = resolve(lo, f[lo - s : hi - s], pending)
            del spf, f  # so the stream frees it before it builds another
    nodes = pending[0]
    stuck = nodes[nodes <= start_limit]
    if stuck.size:
        raise ConsistencyError(f"node {int(stuck[0])} under a={a} reaches no cycle")
    # Each state is written once, from its successor's final one, so a node
    # past the budget leaves one at exactly dist = budget + 1, which
    # state_dtype makes room for: no dist wraps unseen.  A state orders
    # nodes by dist first, so the largest one holds the largest dist.
    past = (budget + 1) << bits
    if state.max() >= past:
        node = int(np.argmax(state >= past))
        raise ConsistencyError(
            f"node {node} under a={a} is more than {budget} steps from its cycle"
        )

    starts = state[2 : start_limit + 1]
    if a == 0:
        # A (dist, label) grid over the labels of every prime would be huge.
        basins, counts = _counts(starts & (step - 1)), _counts(starts >> bits)
    else:
        grid = _counts(starts, step).reshape(-1, step)
        basins, counts = grid.sum(axis=0), grid.sum(axis=1)
    labels = np.flatnonzero(basins)
    cycles = tuple(
        walked[m] if m in walked else Cycle((m,), "+")
        for m in np.concatenate(minima)[labels - 1].tolist()
    )
    return CensusReport(
        a=a,
        start_limit=start_limit,
        cycles=cycles,
        basin_counts=tuple(basins[labels].tolist()),
        stopping_time_histogram={int(k): int(v) for k, v in enumerate(counts) if v},
        max_total_stopping_time=len(counts) - 1,
    )


# ---------------------------------------------------------------------------
# Sweeps over many shifts


def reached_cycles(a: int, start_limit: int) -> tuple[Cycle, ...]:
    """The nontrivial cycles reached from starts 2..start_limit, by their minimum.

    No census: by the _find_cycles lemma every cycle's minimum is a start
    <= climb_margin(a) + 4, so walks from 2..min(start_limit,
    climb_margin(a) + 4) meet every cycle that any larger range reaches.
    """
    walked = _walks(a, min(start_limit, climb_margin(a) + 4))
    return tuple(walked[m] for m in sorted(walked) if len(walked[m]) > 1)


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
