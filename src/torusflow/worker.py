"""One function run in a forked child process, beside the parent's own work.

    with Worker("direct", fn, *args) as worker:
        ...                       # the parent's share of the work
        result = worker.join()    # fn(*args), or its exception re-raised

The child inherits the parent's memory, so neither fn nor its arguments are
pickled; only its outcome is, written to a pipe that join reads to EOF
before it reaps the child.  The child always leaves through os._exit, also
after an exception, so it runs no atexit handler and none of its caller's
cleanup.  Leaving the with-block before join, by an exception or an
interrupt, kills and reaps the child, also one blocked on a full pipe.
Where os.fork does not exist, fn runs in the parent when the Worker is
made, and join returns or raises its outcome.
"""

import os
import pickle


def _outcome(fn, args) -> tuple:
    """(True, fn(*args)), or (False, the exception it raised)."""
    try:
        return True, fn(*args)
    except BaseException as exc:  # carried to the parent, which re-raises
        return False, exc


def _pickled(outcome: tuple) -> bytes:
    """The outcome as bytes that unpickle; an exception that does not
    survive the round trip is replaced by a RuntimeError naming it."""
    ok, value = outcome
    try:
        data = pickle.dumps(outcome)
        if not ok:
            pickle.loads(data)
        return data
    except Exception as exc:
        what = "result" if ok else repr(value)
        return pickle.dumps((False, RuntimeError(
            f"worker {what} could not be pickled: {exc!r}")))


class Worker:
    """fn(*args) running in a forked child named name (see the module)."""

    def __init__(self, name: str, fn, *args):
        self.name = name
        self.pid = self._fd = None
        if not hasattr(os, "fork"):
            self._outcome = _outcome(fn, args)
            return
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(_pickled(_outcome(fn, args)))
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pid, self._fd = pid, read_fd

    def join(self):
        """fn's result; re-raises its exception, and raises RuntimeError
        if the child died without writing one."""
        if self.pid is not None:
            with os.fdopen(self._fd, "rb") as fh:
                self._fd = None
                data = fh.read()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                how = f"exit status {code}" if code >= 0 \
                    else f"signal {-code}"
                raise RuntimeError(f"worker {self.name!r} died without a "
                                   f"result ({how})")
            self._outcome = pickle.loads(data)
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def close(self):
        """Kill and reap a child that was not joined."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self.pid is not None:
            import signal  # here, to keep it out of every CLI start-up
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
