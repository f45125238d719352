import pytest

from oracles import prime_power_sums
from primeshift import build_kappa, sieve
from primeshift.sieve import build_sieve

# Covers starts up to 10^6 plus the climb headroom needed by shifts a <= 200
# (an orbit from p <= 10^6 never exceeds p + 12a).
BIG_LIMIT = 1_003_000
MILLION = 10**6


@pytest.fixture(autouse=True)
def _fresh_shared_table():
    """Drop the shared 2^16 table that sieve.covering caches after each
    test, so a table built while a test patched the sieve never reaches a
    later test."""
    yield
    sieve._shared.cache_clear()


@pytest.fixture(scope="session")
def table():
    return build_sieve(BIG_LIMIT)


@pytest.fixture(scope="session")
def oracle_values():
    """(B, beta, prime) for n <= BIG_LIMIT from prime-power sums, shared
    read-only by the session."""
    values = prime_power_sums(BIG_LIMIT)
    for v in values:
        v.setflags(write=False)
    return values


@pytest.fixture(scope="session")
def b_values(oracle_values):
    return oracle_values[0]


@pytest.fixture(scope="session")
def beta_values(oracle_values):
    return oracle_values[1]


@pytest.fixture(scope="session")
def kappa60():
    return build_kappa(60)
