"""Shared fixtures. Factor sieves cost real time to build, so the two
sizes the suite needs are constructed once per session."""

import pytest

from sigmalab import FactorSieve, _sublinear


@pytest.fixture(scope="session")
def sieve_million() -> FactorSieve:
    return FactorSieve(1_000_000)


@pytest.fixture(scope="session")
def sieve_small() -> FactorSieve:
    return FactorSieve(20_000)


@pytest.fixture
def sieve_engine(monkeypatch):
    """Send every census to the segment sieve.  Tests of worker counts,
    segment lengths and kernel arrays use it: the sublinear engine, which
    the dispatch picks for small phi(q), has neither."""
    monkeypatch.setattr(_sublinear, "preferred", lambda *args: False)
