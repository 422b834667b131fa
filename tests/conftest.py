import threading
import time

import pytest
from hypothesis import HealthCheck, settings

from chipchain import ChipGeometry, FailureModel, new_chip

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# small geometry keeps key derivation and tree tests quick
SMALL = ChipGeometry(rows=256, redundancy_rows=20)
DESK = ChipGeometry(rows=2000, redundancy_rows=20)


@pytest.fixture(scope="session")
def desk_chip():
    return new_chip(DESK, FailureModel(), seed=42)


@pytest.fixture(scope="session")
def small_chips():
    """Nine small chips for tree construction tests."""
    return {f"n{i}": new_chip(SMALL, seed=100 + i, chip_id=f"c{i}") for i in range(9)}


def make_small_chip(seed: int, chip_id=None):
    return new_chip(SMALL, seed=seed, chip_id=chip_id)


_PLAIN_LOCK = threading.Lock  # kept: lock tests patch threading.Lock


class HandOverLock:
    """A lock that sleeps once released, so that a thread waiting for it
    takes it and finishes its call before the releasing thread goes on."""

    def __init__(self):
        self._lock = _PLAIN_LOCK()

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()
        time.sleep(5e-4)
