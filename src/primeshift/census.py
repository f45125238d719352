"""Whole-range cycle censuses: every start up to a limit, one shift at a time.

The fast path treats B_a restricted to [2, limit] as a functional graph
held in one flat array.  Short scalar walks from a small prefix of starts
find every cycle (see _find_cycles for the bound that makes this
complete); one ascending pass over the blocks [lo, 2*lo) then gives every
node its cycle and its distance to it, because a node's successor almost
always lies in an earlier block.  A deliberately naive per-start iterator
is kept alongside as a cross-check.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .arith import Shift, as_shift, shifted_B
from .dynamics import Cycle, canonicalize, default_max_steps, iterate_orbit
from .errors import ConsistencyError, DomainError, NonterminationError
from .sieve import SieveTable, build_sieve, is_prime
from .tables import ValueTable, build_value_table, step_map

SCHEMA_VERSION = 1


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
    def trivial_cycles(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if len(c) == 1)

    @property
    def nontrivial_cycles(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if len(c) > 1)

    def nontrivial_member_sets(self) -> set[tuple[int, ...]]:
        return {c.members for c in self.nontrivial_cycles}


def _patch_escapes(f, shift, table, budget):
    """Rewrite out-of-table edges as weighted shortcuts back into range.

    Returns the patched nodes and the number of steps each shortcut
    stands for.  A walk still above the table after budget steps raises
    NonterminationError naming the node it started from.
    """
    limit = table.limit
    esc = np.flatnonzero(f > limit)
    steps = np.ones(esc.size, dtype=f.dtype)
    for i, n0 in enumerate(esc.tolist()):
        v = int(f[n0])
        k = 1
        while v > limit:
            if k >= budget:
                raise NonterminationError(n0, shift.a, budget)
            v = shifted_B(v, shift, table)
            k += 1
        f[n0] = v
        steps[i] = k
    return esc, steps


def _find_cycles(f, margin, budget, a):
    """Every cycle except the fixed points at primes, keyed by its minimum.

    Lemma: for a >= 1 every cycle has its minimum x <= margin + 4, where
    margin = climb_margin(a).  If x is composite then x <= 4, because
    B(c) <= c/2 + 2 < c for composite c > 4.  If x is prime, it climbs to
    a composite c <= x + margin, and x <= B(c) <= c/2 + 2 <= (x + margin)/2
    + 2.  So walks from the starts 2..margin+4 meet every cycle.  For
    a = 0 every cycle is a fixed point: n = 4, which the walks meet, or a
    prime, which run_census labels from the prime mask.
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


def _settle(pending, f, w, label, dist, budget, a):
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
        if dist is not None:
            dist[done] = dist[tgt[ok]] + w[done]
        pending = pending[~ok]
        rounds += 1
        if rounds > budget:
            raise ConsistencyError(f"census resolution under a={a} did not converge")
    return pending


def run_census(
    shift: Shift | int,
    start_limit: int,
    table: SieveTable,
    value_table: ValueTable | None = None,
    compute_stopping: bool = True,
) -> CensusReport:
    """Enumerate all cycles reached from starts 2..start_limit, with basins.

    Deterministic: cycles are listed by (minimum member, length) and every
    reported cycle is re-verified against the scalar map on insertion.
    Cycles reached only from starts above start_limit are not listed.
    """
    shift = as_shift(shift)
    a = shift.a
    if start_limit < 2:
        raise DomainError(f"start_limit must be >= 2, got {start_limit}")
    if table.limit < start_limit:
        raise DomainError(
            f"sieve limit {table.limit} is below start_limit {start_limit}"
        )
    margin = climb_margin(a)
    # Every cycle member is <= 2*margin + 4: the maximum M is reached by a
    # climb from a prime q <= M/2 + 2.  Below that, escape shortcuts could
    # close into false cycles, so cover it with a table of our own.
    if table.limit < 2 * margin + 4:
        table = build_sieve(2 * margin + 4)
        value_table = None
    vt = value_table if value_table is not None else build_value_table(table)
    limit = table.limit
    budget = default_max_steps(limit, a)
    dtype = np.int32 if limit + margin < 2**31 else np.int64

    f = step_map(vt, shift, dtype)
    esc, esc_steps = _patch_escapes(f, shift, table, budget)
    walked = _find_cycles(f, margin, budget, a)

    # label[n] is the minimum of the cycle n reaches (0 while unresolved);
    # dist[n] is the number of B_a steps to get there.
    label = np.zeros(limit + 1, dtype=dtype)
    if a == 0:
        primes = np.flatnonzero(vt.prime_mask)
        label[primes] = primes
    for m, members in walked.items():
        label[members] = m
    w = dist = None
    if compute_stopping:
        w = np.ones(limit + 1, dtype=dtype)
        w[esc] = esc_steps
        dist = np.zeros(limit + 1, dtype=dtype)
    pending = np.empty(0, dtype=np.intp)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        # First round over the window as slices: a node whose successor is
        # already labelled takes that label; cycle nodes keep theirs.
        tgt = f[lo:hi]
        lab = label[tgt]
        window = label[lo:hi]
        new = window == 0
        if dist is not None:
            np.copyto(dist[lo:hi], dist[tgt] + w[lo:hi], where=new & (lab != 0))
        np.copyto(window, lab, where=new)
        pending = np.concatenate([pending, np.flatnonzero(window == 0) + lo])
        pending = _settle(pending, f, w, label, dist, budget, a)
        lo = hi
    if pending.size:
        raise ConsistencyError(
            f"node {int(pending[0])} under a={a} reaches no cycle"
        )

    basins = np.bincount(label[2 : start_limit + 1])
    cycles = []
    basin_counts = {}
    for m in np.flatnonzero(basins).tolist():
        cyc = canonicalize(walked.get(m, (m,)), shift, table)
        cycles.append(cyc)
        basin_counts[cyc] = int(basins[m])

    hist: dict[int, int] = {}
    max_tail = 0
    if compute_stopping:
        tails = dist[2 : start_limit + 1]
        counts = np.bincount(tails)
        hist = {int(k): int(v) for k, v in enumerate(counts) if v}
        max_tail = len(counts) - 1
    return CensusReport(
        shift=shift,
        start_limit=start_limit,
        cycles=tuple(cycles),
        basin_counts=basin_counts,
        stopping_time_histogram=hist,
        max_total_stopping_time=max_tail,
    )


def run_census_naive(
    shift: Shift | int,
    start_limit: int,
    table: SieveTable,
    order=None,
) -> CensusReport:
    """Per-start reference census: no memoization, no vectorization.

    Slow by design; used to cross-check run_census on small ranges.  An
    explicit processing order may be supplied to confirm order-independence.
    """
    shift = as_shift(shift)
    starts = list(order) if order is not None else list(range(2, start_limit + 1))
    canon_cycles: dict[tuple[int, ...], Cycle] = {}
    basin_counts: dict[Cycle, int] = {}
    hist: dict[int, int] = {}
    max_tail = 0
    for n in starts:
        rec = iterate_orbit(n, shift, table)
        cyc = canonicalize(rec.cycle, shift, table)
        if cyc.members not in canon_cycles:
            canon_cycles[cyc.members] = cyc
            basin_counts[cyc] = 0
        basin_counts[canon_cycles[cyc.members]] += 1
        tail = rec.total_stopping_time
        hist[tail] = hist.get(tail, 0) + 1
        max_tail = max(max_tail, tail)
    cycles = tuple(
        sorted(canon_cycles.values(), key=lambda c: (c.members[0], len(c)))
    )
    return CensusReport(
        shift=shift,
        start_limit=start_limit,
        cycles=cycles,
        basin_counts=basin_counts,
        stopping_time_histogram=dict(sorted(hist.items())),
        max_total_stopping_time=max_tail,
    )


# ---------------------------------------------------------------------------
# Sweeps over many shifts


_WORKER_STATE: dict = {}


def _sweep_init(limit):
    table = build_sieve(limit)
    _WORKER_STATE["table"] = table
    _WORKER_STATE["vt"] = build_value_table(table)


def _sweep_one(args):
    a, start_limit = args
    rep = run_census(
        Shift(a),
        start_limit,
        _WORKER_STATE["table"],
        _WORKER_STATE["vt"],
        compute_stopping=False,
    )
    return a, len(rep.nontrivial_cycles)


def cycle_count_sweep(
    a_max: int,
    start_limit: int,
    table: SieveTable,
    value_table: ValueTable | None = None,
    threads: int = 1,
) -> tuple[dict[int, int], set[int]]:
    """Count distinct nontrivial cycles for each a in 1..a_max.

    Returns (counts, argmax_set).  With threads > 1 the shifts are farmed
    out to worker processes; the merge is by shift so output is identical
    either way.
    """
    if a_max < 1:
        raise DomainError(f"a_max must be >= 1, got {a_max}")
    counts: dict[int, int] = {}
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=threads, initializer=_sweep_init, initargs=(table.limit,)
        ) as pool:
            for a, c in pool.map(
                _sweep_one, [(a, start_limit) for a in range(1, a_max + 1)],
                chunksize=4,
            ):
                counts[a] = c
    else:
        vt = value_table if value_table is not None else build_value_table(table)
        for a in range(1, a_max + 1):
            rep = run_census(Shift(a), start_limit, table, vt, compute_stopping=False)
            counts[a] = len(rep.nontrivial_cycles)
    best = max(counts.values())
    argmax = {a for a, c in counts.items() if c == best}
    return counts, argmax


# ---------------------------------------------------------------------------
# Serialization


def census_rows(report: CensusReport) -> list[dict]:
    rows = []
    for i, cyc in enumerate(report.cycles):
        rows.append(
            {
                "a": report.shift.a,
                "cycle_id": i,
                "length": len(cyc),
                "members": ";".join(str(v) for v in cyc.members),
                "sign_pattern": cyc.sign_pattern,
                "basin_count": report.basin_counts[cyc],
            }
        )
    return rows


CSV_COLUMNS = ["a", "cycle_id", "length", "members", "sign_pattern", "basin_count"]


def census_to_csv(reports) -> str:
    """CSV with one row per cycle; accepts one report or an iterable."""
    if isinstance(reports, CensusReport):
        reports = [reports]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rep in reports:
        writer.writerows(census_rows(rep))
    return buf.getvalue()


def census_to_json(report: CensusReport) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "a": report.shift.a,
        "start_limit": report.start_limit,
        "cycles": [
            {
                "members": list(cyc.members),
                "sign_pattern": cyc.sign_pattern,
                "basin_count": report.basin_counts[cyc],
            }
            for cyc in report.cycles
        ],
        "stopping_time_histogram": {
            str(k): v for k, v in sorted(report.stopping_time_histogram.items())
        },
        "max_total_stopping_time": report.max_total_stopping_time,
    }
    return json.dumps(payload, indent=2, sort_keys=False)
