import random
from pathlib import Path

import pytest

from gen import random_instance

SMALL_SUITE_SIZE = 500


@pytest.fixture(scope="session")
def small_suite():
    """The shared differential family: 500 random instances, n <= 14."""
    rng = random.Random(20240)
    return [random_instance(rng) for _ in range(SMALL_SUITE_SIZE)]


@pytest.fixture(scope="session")
def fixtures_dir():
    return Path(__file__).parent / "fixtures"
