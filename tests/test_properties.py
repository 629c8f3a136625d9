"""Randomized invariants, 1000 cases each (see property_checks for the bodies)."""

import pytest

from property_checks import ALL_CHECKS


@pytest.mark.parametrize("name", [name for name, _ in ALL_CHECKS])
def test_property(name, property_failures):
    if name in property_failures:
        raise property_failures[name]
