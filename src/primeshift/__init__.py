"""Shifted prime-divisor functions and the orbit dynamics of B_a.

B(n) sums prime divisors with multiplicity, beta(n) sums them without;
the shifted map B_a sends a prime p to p + a instead of fixing it.  The
package covers orbit iteration and cycle censuses, amicable-pair and
ascending-chain constructions, prime-partition fibre counting, and
empirical partial-sum diagnostics.  The `primeshift` CLI (cli.py) is its
front end; this namespace exports what the CLI calls and the types those
functions return.
"""

from .arith import check_shift
from .census import CensusReport, cycle_count_sweep, reached_cycles, run_census
from .constructions import AmicablePair, ChainWitness, build_amicable, find_ascending_chain
from .dynamics import Cycle, OrbitRecord, iterate_orbit
from .errors import ConsistencyError, DomainError, NonterminationError, RangeOverflowError
from .fibres import KappaTable, build_kappa, enumerate_fibre
from .stats import (
    PartialSumSeries,
    average_order_series,
    b_minus_beta_series,
    estimate_local_density,
    parity_sum,
    preimage_density,
    residue_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
