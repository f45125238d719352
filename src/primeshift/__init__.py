"""Shifted prime-divisor functions B_a / beta_a and their orbit dynamics.

B(n) sums prime divisors with multiplicity, beta(n) sums them without;
the shifted variants send primes p to p + a instead of fixing them.  The
package covers exact evaluation, orbit iteration and cycle censuses,
amicable-pair and ascending-chain constructions, prime-partition fibre
counting, and empirical partial-sum diagnostics, plus a CLI front end.
"""

from .arith import Shift, big_B, shifted_B, shifted_beta, small_beta
from .census import (
    CensusReport,
    census_limit,
    census_to_csv,
    census_to_json,
    climb_margin,
    cycle_count_sweep,
    reached_cycles,
    run_census,
)
from .constructions import (
    AmicablePair,
    ChainWitness,
    build_amicable,
    find_ascending_chain,
    min_composite_preimage,
    validate_chain,
    verify_amicable,
)
from .dynamics import (
    Cycle,
    OrbitRecord,
    canonicalize,
    iterate_orbit,
    sign_patterns_of_length,
    stopping_time,
    total_stopping_time,
)
from .errors import (
    ConsistencyError,
    DomainError,
    NonterminationError,
    RangeOverflowError,
)
from .fibres import (
    KappaTable,
    build_kappa,
    enumerate_fibre,
    enumerate_fibre_exact,
    kappa_asymptotic_ratio,
    preimage_density,
    prime_partitions,
)
from .sieve import (
    WORD_MAX,
    Factorization,
    SieveTable,
    build_sieve,
    factorize,
    is_prime,
)
from .stats import (
    PartialSumSeries,
    average_order_series,
    b_minus_beta_series,
    estimate_local_density,
    excess_tail_count,
    parity_sum,
    residue_distribution,
)
from .tables import ValueTable, build_value_table, step_map

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
