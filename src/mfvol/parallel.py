"""Independent items on every usable CPU: :func:`run_all`.

``run_all(run, n)`` returns ``[run(i) for i in range(n)]``, the same to
the bit however many CPUs share the work when each item depends on its
index alone. The calling process and one forked worker per further
usable CPU take the items from one queue, and each worker sends its
results back pickled. ``gm.fit`` runs its Nelder-Mead restarts through
it and ``ablate`` its groups.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import struct
import warnings

# Item indices go through the queue as 8-byte records, one write each:
# a pipe takes a write that small whole or not at all, so a reader
# never sees part of a record.
_INDEX = struct.Struct("=Q")


def _n_workers(n: int) -> int:
    """How many workers to fork: one per usable CPU beyond the calling
    process's own, at most ``n - 1``, and none where the platform cannot
    fork or count its usable CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    return max(0, min(len(os.sched_getaffinity(0)) - 1, n - 1))


def _take(queue: int) -> int | None:
    """The next index from the queue, or None at its end."""
    record = os.read(queue, _INDEX.size)
    return _INDEX.unpack(record)[0] if len(record) == _INDEX.size else None


def _serve(run, queue: int, pipe: int, unused: list[int]):
    """A worker's whole life: run items from the queue and send each
    ``(index, result)`` through ``pipe``, pickled, until the queue ends
    or an item raises. It never returns into the caller's code, and it
    writes nothing to the caller's stdout or stderr."""
    status = 1
    try:
        for fd in unused:
            os.close(fd)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        while (i := _take(queue)) is not None:
            record = memoryview(pickle.dumps((i, run(i))))
            while record:
                record = record[os.write(pipe, record):]
        status = 0
    finally:
        os._exit(status)


def _reported(fh, n: int, kind: type) -> dict:
    """The results a worker sent, by index, up to the end of its pipe or
    the first record that is cut short, garbled, or holds a result of
    another type than ``kind``."""
    found = {}
    while True:
        try:
            i, result = pickle.load(fh)
        except Exception:       # bytes cut short or garbled raise any kind
            return found
        if not (isinstance(i, int) and 0 <= i < n and type(result) is kind):
            return found
        found[i] = result


def run_all(run, n: int) -> list:
    """``[run(i) for i in range(n)]``, run on the usable CPUs.

    Items 1 to ``n - 1`` go into a shared queue, a pipe, as far as it
    takes them without blocking, and the pipe is closed for writing
    before any worker is forked (see :func:`_n_workers`). The calling
    process runs item 0 and then takes indices from the queue until it
    ends or an item raises, as does each worker. Afterwards the calling
    process goes through the items in order: it keeps what a worker
    reported (a result of the same type as item 0's), raises the error
    of an item that raised in its own hands, and reruns every other
    item. So an item that did not fit in the queue, a failed fork, a
    worker that died or raised, or a pipe cut short costs time and
    never changes a result or which error is raised. Every worker is
    reaped, or killed and reaped, before this returns or raises.
    """
    n_workers = _n_workers(n)
    if n_workers == 0:
        return [run(i) for i in range(n)]
    results, failed = {}, {}
    workers = []            # [pid, read end of its pipe]; pid 0 once reaped
    queue, feeder = os.pipe()
    try:
        try:
            os.set_blocking(feeder, False)
            with contextlib.suppress(BlockingIOError):
                for i in range(1, n):
                    os.write(feeder, _INDEX.pack(i))
        finally:
            os.close(feeder)        # a read past the last record ends
        for _ in range(n_workers):
            pipe, sink = os.pipe()
            try:
                with warnings.catch_warnings():
                    # CPython 3.12+ warns when it forks a process that
                    # has threads, such as OpenBLAS's
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(pipe)
                os.close(sink)
                break
            if pid == 0:
                # a worker keeps only the queue's read end and its sink
                _serve(run, queue, sink, [pipe, *(p for _, p in workers)])
            os.close(sink)
            workers.append([pid, pipe])
        results[0] = run(0)
        while (i := _take(queue)) is not None:
            try:
                results[i] = run(i)
            except Exception as exc:
                failed[i] = exc
                break
        for worker in workers:
            # closing the pipe stops a worker that sent a garbled record
            with open(worker[1], "rb") as fh:
                worker[1] = -1
                for i, result in _reported(fh, n, type(results[0])).items():
                    results.setdefault(i, result)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(worker[0], 0)
            worker[0] = 0
    finally:
        for pid, pipe in workers:
            if pipe >= 0:
                os.close(pipe)
            if pid:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        os.close(queue)
    out = []
    for i in range(n):
        if i in failed:
            raise failed[i]
        out.append(results[i] if i in results else run(i))
    return out
