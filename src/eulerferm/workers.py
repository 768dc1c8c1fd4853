"""Forked workers: one fork policy and one reap path for every split.

``padic.witt_sum_naive`` cuts its p**N terms into runs and
``identities.run_suite`` hands out whole checker sweeps; both run part of
the work in ``os.fork``ed children through this module. ``cpus`` is how
many processes a split may run: the CPUs that ``os.sched_getaffinity``
names, where there are two or more and this process runs one thread, else
one, so nothing forks. ``forked`` forks one child per job. Each child calls
its job and writes the bytes it returns to a pipe of its own; the caller
reads them back in job order, and gets ``None`` for a job whose child could
not be forked, raised, exited non-zero, was killed or wrote nothing, so
that it can do that job itself. Whatever the caller raises, every child
is killed and reaped and every pipe closed, so no child outlives the call.
"""

from __future__ import annotations

import contextlib
import os
import threading

__all__ = ["cpus", "forked"]


def cpus() -> int:
    """How many processes a split may run: the CPUs in
    ``os.sched_getaffinity(0)`` if there are two or more and this process
    runs one thread (``_one_thread``), else 1."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    count = len(os.sched_getaffinity(0))
    if count < 2 or not _one_thread():
        return 1
    return count


def _one_thread() -> bool:
    """Whether this process runs one thread, so a fork copies all of it: by
    the threading module's count and, where /proc is, the kernel's, which
    also counts threads started from C and is the count by which
    ``os.fork`` warns on Python 3.12."""
    if threading.active_count() != 1:
        return False
    try:
        with open("/proc/self/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return True
    # field 20, num_threads; the name in field 2 may hold spaces
    return stat[stat.rindex(b")") + 2:].split()[17] == b"1"


@contextlib.contextmanager
def forked(jobs):
    """Fork a child for each of ``jobs``, callables that return bytes, and
    yield ``results``: a function whose iterator gives, in job order, the
    bytes each child wrote, or ``None`` where the job is the caller's to
    do. The caller does its own share inside the block, then reads the
    results; each child is reaped as its result is read. On leaving the
    block, by a raise too, every child not yet reaped is killed and
    reaped and its pipe closed."""
    children = []   # pid, or None where no child was forked
    live = {}       # pid -> pipe, of every child not yet reaped

    def results():
        for pid in children:
            if pid is None:
                yield None
                continue
            data = live[pid].read()
            _, status = os.waitpid(pid, 0)
            live.pop(pid).close()
            yield data if status == 0 and data else None

    try:
        for job in jobs:
            try:
                pid, fd = _fork(job)
            except OSError:   # no pipe or no fork
                pid = None
            else:
                live[pid] = open(fd, "rb")
            children.append(pid)
        yield results
    finally:
        if live:
            import signal   # only here: a split that returns kills nothing
        for pid, pipe in live.items():
            pipe.close()
            with contextlib.suppress(OSError):   # reaped before the raise
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork(job) -> tuple:
    """(pid, read end) of a forked child that writes ``job()`` to a pipe.
    The child leaves by ``os._exit``, 0 once it has written and 1 on any
    exception, so it never unwinds into the caller's frames or flushes a
    buffer it inherited. OSError if no pipe or no child could be made."""
    read_end, write_end = os.pipe()
    pid, code = None, 1
    try:
        pid = os.fork()
        if pid == 0:
            view = memoryview(job())
            while view:
                view = view[os.write(write_end, view):]
            code = 0
    finally:
        if pid == 0:
            os._exit(code)
        os.close(write_end)
        if pid is None:
            os.close(read_end)
    return pid, read_end
