import pytest

from primeshift import build_kappa, build_sieve, build_value_table

# Covers starts up to 10^6 plus the climb headroom needed by shifts a <= 200
# (an orbit from p <= 10^6 never exceeds p + 12a).
BIG_LIMIT = 1_003_000
MILLION = 10**6


@pytest.fixture(scope="session")
def table():
    return build_sieve(BIG_LIMIT)


@pytest.fixture(scope="session")
def vt(table):
    return build_value_table(table)


@pytest.fixture(scope="session")
def kappa60(table):
    return build_kappa(60, table)
