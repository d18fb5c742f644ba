import threading

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running that it started."""
    before = set(threading.enumerate())
    yield
    extra = [t.name for t in threading.enumerate() if t not in before]
    assert not extra, f"threads left running: {extra}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
