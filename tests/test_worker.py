"""The forked worker: results, exceptions, deaths and cleanup."""

import os
import pickle
import subprocess
import sys
import time

import pytest

from torusflow.solver import BlowUpError
from torusflow.worker import Worker


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
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["parent done", "atexit"]
