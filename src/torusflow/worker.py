"""Work run in a forked child process, beside the parent's own work.

    with Worker("direct", fn, *args) as worker:
        ...                       # the parent's share of the work
        result = worker.join()    # fn(*args), or its exception re-raised

    with Stream("base", shape, gen, *args) as stream:
        for slot in stream:       # each slot gen(slots, *args) filled
            ...
        result = stream.join()    # gen's return value, or its exception

The child inherits the parent's memory, so neither fn nor its arguments are
pickled; only its outcome is, written to a pipe that join reads to EOF
before it reaps the child.  The child always leaves through os._exit, also
after an exception, so it runs no atexit handler and none of its caller's
cleanup.  Leaving the with-block before join, by an exception or an
interrupt, kills and reaps the child, also one blocked on a full pipe.
Where os.fork does not exist, fn runs in the parent when the Worker is
made, and join returns or raises its outcome.
"""

import itertools
import math
import mmap
import os
import pickle
import time

import numpy as np

#: the slots in the ring of a Stream
SLOTS = 8


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


def _produce(gen, args, ring, ready, free):
    """A Stream's child: gen(slots, *args) to its end, one byte on the ready
    pipe per slot it yields.  slots hands out the ring's slots in turn, a
    used one again only after a byte on the free pipe, and raises EOFError
    once that pipe has no writer left."""
    os.close(ready[0])
    os.close(free[1])

    def slots():
        for k in itertools.count():
            if k >= len(ring) and not os.read(free[0], 1):
                raise EOFError("the parent of the stream is gone")
            yield ring[k % len(ring)]

    items = gen(slots(), *args)
    try:
        while True:
            try:
                next(items)
            except StopIteration as done:
                return done.value
            os.write(ready[1], b"\0")
    finally:
        os.close(ready[1])  # the parent's EOF, before the outcome is sent


class Stream:
    """The slots that gen(slots, *args), a generator, fills in a forked
    child named name, read in order by the parent from a ring of SLOTS float
    arrays of shape shape in one anonymous shared mmap (see the module).

    gen takes each slot it fills from slots and yields it to publish it.
    Two pipes carry one byte per slot: "ready" to the parent as gen yields
    it, and "free" to the child as the parent asks for the next one, so a
    slot is the parent's until then, and a parent that stops after the last
    slot it needs writes nothing more.  The child waits for a free slot only
    once the ring is full, and leaves when that wait meets a closed pipe:
    a killed parent leaves no child.  If gen ends early, iteration stops, or
    re-raises gen's exception.  join returns gen's return value through the
    outcome pipe of a Worker.  Where os.fork does not exist, gen runs in
    this process as the slots are asked for.  wait_seconds adds up the
    parent's time in asking for slots and in join.
    """

    def __init__(self, name: str, shape: tuple, gen, *args):
        ring = mmap.mmap(-1, SLOTS * math.prod(shape) * 8)
        self._ring = np.frombuffer(ring).reshape(SLOTS, *shape)
        self.wait_seconds = 0.0
        self._worker = self._ready = self._free = self._result = None
        self._taken = 0
        if not hasattr(os, "fork"):
            self._items = self._here(gen(itertools.cycle(self._ring), *args))
            return
        ready, free = os.pipe(), os.pipe()
        self._ready, self._free = ready[0], free[1]
        try:
            self._worker = Worker(name, _produce, gen, args, self._ring,
                                  ready, free)
        except BaseException:
            self._close_pipes()
            raise
        finally:
            os.close(ready[1])
            os.close(free[0])

    def _here(self, items):
        self._result = yield from items

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            if self._worker is None:
                return next(self._items)
            if self._taken:
                try:
                    os.write(self._free, b"\0")
                except BrokenPipeError:  # the child is gone: see its outcome
                    pass
            if not os.read(self._ready, 1):
                self._join()
                raise StopIteration
            self._taken += 1
            return self._ring[(self._taken - 1) % len(self._ring)]
        finally:
            self.wait_seconds += time.perf_counter() - t0

    def _join(self):
        if self._worker is None:
            for _ in self._items:
                pass
            return self._result
        self._close_pipes()
        return self._worker.join()

    def join(self):
        """gen's return value, once the parent has its last slot; re-raises
        gen's exception."""
        t0 = time.perf_counter()
        try:
            return self._join()
        finally:
            self.wait_seconds += time.perf_counter() - t0

    def _close_pipes(self):
        for fd in (self._free, self._ready):
            if fd is not None:
                os.close(fd)
        self._free = self._ready = None

    def close(self):
        """Kill and reap a child that was not joined."""
        self._close_pipes()
        if self._worker is not None:
            self._worker.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
