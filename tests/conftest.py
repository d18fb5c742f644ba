import os
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


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.
    The unreaped ones are reaped here, so the next test starts clean."""
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            break
        left.append(pid or "one still running")
        if pid == 0:
            break
    assert not left, f"child processes left behind: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
