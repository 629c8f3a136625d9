"""Shared fixtures: the study batches and the property sweep are expensive, so run them once."""

import pytest

from pinnet.harness import builtin_scenario, run_batch

from property_checks import ALL_CHECKS

PROPERTY_CASES = 1000


@pytest.fixture(scope="session")
def single50_batch():
    sc = builtin_scenario("single-50")
    return sc, run_batch(sc, trials=30)


@pytest.fixture(scope="session")
def multi50_batch():
    sc = builtin_scenario("multi-50")
    return sc, run_batch(sc, trials=30)


@pytest.fixture(scope="session")
def property_failures():
    """Every randomized invariant run once at 1000 cases: name -> what it raised.

    Each check keeps its own seed; the property tests and acceptance
    criterion 5 both read this one sweep.
    """
    failures = {}
    for name, check in ALL_CHECKS:
        try:
            check(PROPERTY_CASES)
        except Exception as exc:  # recorded, and raised by every test that reads it
            failures[name] = exc
    return failures
