import os

import numpy as np
import pytest

from torusflow import make_grid


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    every run path must end each worker it forks."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process "
                f"({'still running' if pid == 0 else f'pid {pid}'})")


@pytest.fixture(scope="session")
def grid2():
    return make_grid(2 * np.pi, 16, 2)


@pytest.fixture(scope="session")
def grid3():
    return make_grid(2 * np.pi, 16, 3)


@pytest.fixture(scope="session")
def grid2_rect():
    return make_grid(4.0, 16, 2)


@pytest.fixture
def no_fft(monkeypatch):
    """Make every numpy.fft transform raise, so that the test proves the code
    it runs performs none (the frequency helpers stay available)."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft transform called")

    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):
            monkeypatch.setattr(np.fft, name, refuse)
