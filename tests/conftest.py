"""Fixtures shared by the test modules."""

import pytest

from primpair import ntheory


@pytest.fixture
def sieve_bounds(monkeypatch) -> list[int]:
    """The bound of every sieve built during the test; the one prime list
    and its trial blocks are dropped first, so that their build counts."""
    built = []
    real = ntheory._eratosthenes
    monkeypatch.setattr(ntheory, "_eratosthenes",
                        lambda bound: built.append(bound) or real(bound))
    ntheory._small_primes.cache_clear()
    ntheory._trial_blocks.cache_clear()
    return built
