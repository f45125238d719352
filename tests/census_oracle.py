"""Per-start reference census, the oracle the fast census is checked against."""

from __future__ import annotations

from primeshift.arith import Shift, as_shift
from primeshift.census import CensusReport
from primeshift.dynamics import Cycle, canonicalize, iterate_orbit
from primeshift.sieve import SieveTable


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
