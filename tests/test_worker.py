"""The forked worker: results, exceptions, deaths and cleanup."""

import itertools
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from torusflow import worker as worker_module
from torusflow.solver import BlowUpError
from torusflow.worker import Stream, Worker


def _fail(exc):
    raise exc


def _big_result():
    # larger than a pipe's buffer: the child blocks writing it until the
    # parent reads
    return b"x" * (1 << 22)


def _assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_worker_returns_result():
    with Worker("sum", sum, [1.5, 2.5]) as worker:
        pid = worker.pid
        assert worker.join() == 4.0
    _assert_reaped(pid)
    big = Worker("big", _big_result)
    assert big.join() == _big_result()


def test_worker_reraises_blowup():
    exc = BlowUpError(0.25, "full_3d L2 norm", float("nan"))
    with Worker("direct", _fail, exc) as worker:
        with pytest.raises(BlowUpError) as info:
            worker.join()
    got = info.value
    assert (got.time, got.quantity, str(got)) \
        == (0.25, "full_3d L2 norm", str(exc))
    assert got.value != got.value  # nan


def test_blowup_error_survives_pickle():
    exc = BlowUpError(0.016, "perturbation L2 norm", float("inf"))
    got = pickle.loads(pickle.dumps(exc))
    assert type(got) is BlowUpError
    assert (got.time, got.quantity, got.value, str(got), got.args) \
        == (exc.time, exc.quantity, exc.value, str(exc), exc.args)


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_worker_exception_that_does_not_unpickle():
    with Worker("odd", _fail, _Unpicklable(1, 2)) as worker:
        with pytest.raises(RuntimeError, match="_Unpicklable"):
            worker.join()


def test_worker_dying_without_result_is_reported():
    with Worker("quitter", os._exit, 3) as worker:
        with pytest.raises(RuntimeError) as info:
            worker.join()
    assert "'quitter'" in str(info.value)
    assert "exit status 3" in str(info.value)


@pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("fn, args", [(_big_result, ()), (time.sleep, (60,))],
                         ids=["blocked-on-pipe", "busy"])
def test_parent_exception_kills_and_reaps_worker(exc_type, fn, args):
    t0 = time.perf_counter()
    with pytest.raises(exc_type):
        with Worker("victim", fn, *args) as worker:
            pid = worker.pid
            time.sleep(0.05)
            raise exc_type("parent side")
    _assert_reaped(pid)
    assert time.perf_counter() - t0 < 30


def _env() -> dict:
    """The environment of a Python subprocess that imports this torusflow."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_worker_leaves_through_os_exit():
    # the child must not run the atexit handlers (nor anything else) of
    # the process it was forked from, also when its function raises
    script = (
        "import atexit, sys\n"
        "from torusflow.worker import Worker\n"
        "atexit.register(lambda: print('atexit', flush=True))\n"
        "def fail():\n"
        "    raise ValueError('in the worker')\n"
        "for fn in (fail, sys.exit, lambda: 1):\n"
        "    try:\n"
        "        Worker('w', fn).join()\n"
        "    except (ValueError, SystemExit):\n"
        "        pass\n"
        "print('parent done', flush=True)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["parent done", "atexit"]


def _counting(n, fail_at=None, shape=(2,)):
    # item i holds the producing process's id at index 1, i elsewhere
    item = np.empty(shape)
    for i in range(n):
        if i == fail_at:
            raise BlowUpError(0.5, "2d_base L2 norm", float("inf"))
        item[:] = i
        item[1] = os.getpid()
        yield item
    return f"{n} items"


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "alone"])
@pytest.mark.parametrize("slots", [1, 3])
def test_stream_hands_out_each_slot_in_order(monkeypatch, fork, slots):
    # a pipe sized for fewer items than the stream: the child waits for
    # the parent to read before it writes the rest
    monkeypatch.setattr(worker_module, "SLOTS", slots)
    if not fork:
        monkeypatch.delattr(os, "fork")
    with Stream("count", (2,), _counting, 10) as stream:
        got = [(float(a), int(b)) for _, (a, b) in zip(range(10), stream)]
        assert stream.join() == "10 items"
    assert [a for a, _ in got] == list(range(10))
    pids = {b for _, b in got}
    assert len(pids) == 1 and (pids == {os.getpid()}) == (not fork)
    assert stream.wait_seconds > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "alone"])
def test_stream_carries_items_larger_than_its_pipe(monkeypatch, fork):
    # SLOTS items of 2 MiB exceed Linux's default pipe-max-size (1 MiB),
    # so the kernel refuses the sizing to a process that may not pass it,
    # and each item crosses the default pipe in parts
    if not fork:
        monkeypatch.delattr(os, "fork")
    shape = (1 << 18,)
    with Stream("big", shape, _counting, 5, None, shape) as stream:
        got = [(float(item[0]), int(item[1]), np.all(item[2:] == item[0]))
               for item in stream]
        assert stream.join() == "5 items"
    assert [a for a, _, _ in got] == list(range(5))
    assert all(whole for _, _, whole in got)
    pids = {b for _, b, _ in got}
    assert len(pids) == 1 and (pids == {os.getpid()}) == (not fork)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "alone"])
def test_stream_reraises_at_the_slot_it_did_not_fill(monkeypatch, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    taken = []
    with Stream("count", (2,), _counting, 10, 4) as stream:
        with pytest.raises(BlowUpError) as info:
            for slot in stream:
                taken.append(float(slot[0]))
    assert taken == [0.0, 1.0, 2.0, 3.0]
    assert (info.value.time, info.value.quantity) == (0.5, "2d_base L2 norm")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _resized(n):
    # two items of 2 floats, then one of 3: the pipe would carry its
    # bytes as one and a half items
    yield from itertools.islice(_counting(n), 2)
    yield np.zeros(3)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "alone"])
@pytest.mark.parametrize("reader", ["iteration", "join"])
def test_stream_refuses_an_item_of_another_size(monkeypatch, fork, reader):
    if not fork:
        monkeypatch.delattr(os, "fork")
    with Stream("resized", (2,), _resized, 10) as stream:
        assert [float(a) for _, (a, _) in zip(range(2), stream)] == [0, 1]
        with pytest.raises(ValueError, match="of 24 bytes, not 16"):
            next(stream) if reader == "iteration" else stream.join()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _retyped(n):
    # two float items, then an int64 item of as many bytes, which the pipe
    # would carry as float bits
    yield from itertools.islice(_counting(n), 2)
    yield np.full(2, os.getpid())


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "alone"])
@pytest.mark.parametrize("reader", ["iteration", "join"])
def test_stream_refuses_an_item_of_another_dtype(monkeypatch, fork, reader):
    if not fork:
        monkeypatch.delattr(os, "fork")
    with Stream("retyped", (2,), _retyped, 10) as stream:
        assert [float(a) for _, (a, _) in zip(range(2), stream)] == [0, 1]
        with pytest.raises(ValueError, match="of dtype int64, not float64"):
            next(stream) if reader == "iteration" else stream.join()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stream_child_leaves_when_its_parent_is_killed():
    # the child, blocked writing to a full pipe, sees it close with its
    # killed parent and exits: no process is left running
    if not os.path.exists("/proc/self/stat"):
        pytest.skip("needs /proc to see an orphan")
    script = (
        "import os, sys, time\n"
        "import numpy as np\n"
        "from torusflow.worker import Stream\n"
        "def endless():\n"
        "    item = np.full(1, float(os.getpid()))\n"
        "    while True:\n"
        "        yield item\n"
        "stream = Stream('endless', (1,), endless)\n"
        "print(int(next(stream)[0]), flush=True)\n"
        "time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, "-c", script], env=_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        child = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()

    def running():
        try:
            with open(f"/proc/{child}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        return state != "Z"  # an orphan's zombie runs nothing

    t0 = time.perf_counter()
    while running() and time.perf_counter() - t0 < 20:
        time.sleep(0.05)
    assert not running()
