import pytest

from primeshift import build_kappa, build_sieve
from primeshift.tables import beta, big_b

# Covers starts up to 10^6 plus the climb headroom needed by shifts a <= 200
# (an orbit from p <= 10^6 never exceeds p + 12a).
BIG_LIMIT = 1_003_000
MILLION = 10**6


@pytest.fixture(scope="session")
def table():
    return build_sieve(BIG_LIMIT)


def _frozen(values):
    values.setflags(write=False)
    return values


@pytest.fixture(scope="session")
def b_values(table):
    """B(n) for n <= BIG_LIMIT, shared read-only by the session."""
    return _frozen(big_b(table))


@pytest.fixture(scope="session")
def beta_values(table):
    """beta(n) for n <= BIG_LIMIT, shared read-only by the session."""
    return _frozen(beta(table))


@pytest.fixture(scope="session")
def kappa60(table):
    return build_kappa(60, table)
