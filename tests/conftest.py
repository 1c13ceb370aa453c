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


@pytest.fixture
def sized_pipes(monkeypatch):
    """sized_pipes(nbytes) makes each os.pipe of the test hold nbytes,
    rounded up to a power-of-two count of pages as Linux rounds it, and
    returns that capacity and the list of what F_GETPIPE_SZ reads on each
    pipe made, for the test to check; it skips where fcntl cannot size a
    pipe."""
    def resize(nbytes):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("this platform cannot size a pipe")
        page = os.sysconf("SC_PAGE_SIZE")
        size = page << (-(-nbytes // page) - 1).bit_length()
        made, pipe = [], os.pipe

        def sized_pipe():
            read_fd, write_fd = pipe()
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, size)
            made.append(fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ))
            return read_fd, write_fd

        monkeypatch.setattr(os, "pipe", sized_pipe)
        return size, made

    return resize


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
