"""Work run in a forked child process, beside the parent's own work.

    with Worker("direct", fn, *args) as worker:
        ...                       # the parent's share of the work
        result = worker.join()    # fn(*args), or its exception re-raised

    with Stream("base", shape, gen, *args) as stream:
        for item in stream:       # each array gen(*args) yields, in turn
            ...
        result = stream.join()    # gen's return value, or its exception

The child inherits the parent's memory, so neither fn nor its arguments are
pickled; only its outcome is, written to a pipe that join reads to EOF
before it reaps the child.  The child always leaves through os._exit, also
after an exception, so it runs no atexit handler and none of its caller's
cleanup.  Leaving the with-block before join, by an exception or an
interrupt, kills and reaps the child, also one blocked on a full pipe.
A Stream's child runs ahead of the parent until its pipe is full.
Where os.fork does not exist, fn runs in the parent when the Worker is
made, and join returns or raises its outcome.
"""

import os
import pickle
import time

import numpy as np


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


class Stream:
    """The arrays that gen(*args), a generator, yields in a forked child
    named name, read in order by the parent through one pipe into one float
    array of shape shape (see the module).

    The child writes each array whole, so each must match that buffer's
    dtype and bytes; it runs ahead of the parent until the pipe, of the
    kernel's default capacity, is full, and blocks there.  The parent gets the
    same buffer each time, its own until it asks for the next array.  A
    killed parent closes the pipe, and the child leaves at its next write.
    If gen ends early, iteration stops, or re-raises gen's exception.  join
    returns gen's return value through the outcome pipe of a Worker.  Where
    os.fork does not exist, gen runs in this process as the arrays are
    asked for, each copied into the buffer.  wait_seconds adds up the
    parent's time in asking for arrays and in join.
    """

    def __init__(self, name: str, shape: tuple, gen, *args):
        self._buffer = np.empty(shape)
        self._bytes = memoryview(self._buffer).cast("B")
        self.wait_seconds = 0.0
        self._worker = self._fd = self._result = None
        self._items = self._framed(gen(*args))
        if not hasattr(os, "fork"):
            return
        self._fd, write_fd = os.pipe()
        try:
            self._worker = Worker(name, self._produce, write_fd)
        except BaseException:
            self._close_pipe()
            raise
        finally:
            os.close(write_fd)

    def _framed(self, items):
        """The bytes of each array of items, checked to be of the buffer's
        dtype and as many as the buffer's, since a pipe carries no frames;
        keeps items' return value."""
        while True:
            try:
                item = next(items)
            except StopIteration as done:
                self._result = done.value
                return
            if item.dtype != self._buffer.dtype:
                raise ValueError(f"a stream item of dtype {item.dtype}, "
                                 f"not {self._buffer.dtype}")
            if item.nbytes != len(self._bytes):
                raise ValueError(f"a stream item of {item.nbytes} bytes, "
                                 f"not {len(self._bytes)}")
            yield memoryview(item).cast("B")

    def _produce(self, write_fd):
        """The child: gen to its end, each array written whole to the pipe,
        whose write end it closes at the end, also after an exception,
        before its outcome is sent."""
        os.close(self._fd)
        try:
            for view in self._items:
                while view:
                    view = view[os.write(write_fd, view):]
            return self._result
        finally:
            os.close(write_fd)

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            if self._worker is None:
                self._bytes[:] = next(self._items)
                return self._buffer
            view = self._bytes
            while view:
                got = os.readv(self._fd, [view])
                if not got:  # the child closed the pipe: see its outcome
                    self._join()
                    raise StopIteration
                view = view[got:]
            return self._buffer
        finally:
            self.wait_seconds += time.perf_counter() - t0

    def _join(self):
        if self._worker is None:
            for _ in self._items:
                pass
            return self._result
        self._close_pipe()
        return self._worker.join()

    def join(self):
        """gen's return value, once the parent has its last array; re-raises
        gen's exception."""
        t0 = time.perf_counter()
        try:
            return self._join()
        finally:
            self.wait_seconds += time.perf_counter() - t0

    def _close_pipe(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def close(self):
        """Kill and reap a child that was not joined."""
        self._close_pipe()
        if self._worker is not None:
            self._worker.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
