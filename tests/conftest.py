"""Fixtures shared across the test modules."""

import pytest

from rbmpo.quantum import single_qubit_cliffords


@pytest.fixture(scope="module")
def cliffords():
    return single_qubit_cliffords()
