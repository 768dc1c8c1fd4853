"""Forked workers: one claim protocol for every split.

``padic.witt_sum_naive`` cuts its p**N terms into runs and
``identities.run_suite`` hands out whole checker sweeps; both share their
tasks with ``os.fork``ed children through ``shared``. ``cpus`` is how
many processes a split may run: the CPUs that ``os.sched_getaffinity``
names, where there are two or more and this process runs one thread, else
one, so nothing forks.

``shared`` writes the tasks, small ints, one byte each to one pipe in
claim order. This process and each forked child claim the next task by
reading one byte, until the pipe is empty, and a child sends back
``marshal.dumps({task: run(task)})`` of every task it claimed. A task is
missing from the result where its child failed (it could not be forked,
raised, exited non-zero, was killed, wrote nothing or wrote what marshal
cannot read), or where ``run`` raised an ``Exception`` in this process,
which then stops claiming; the caller does every missing task itself.
Whatever else the caller raises, every child is killed and reaped and
every pipe closed, so no child outlives the call.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import threading

__all__ = ["cpus", "shared"]


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


def shared(tasks, run, processes: int) -> dict:
    """{task: run(task)} of the ``tasks``, distinct ints in range(256)
    claimed in the order given, that this process and ``processes`` - 1 forked
    children ran; a task missing from it is the caller's to do. What
    ``run`` returns must be built of what ``marshal`` writes. A task that
    is not a byte raises ``ValueError`` before anything forks."""
    claims = bytes(tasks)
    done, children = {}, {}   # pid -> read end of its result pipe
    try:
        queue, feed = os.pipe()
    except OSError:   # no pipe: every task is the caller's
        return done
    try:
        try:
            # at most 256 bytes: one write, under PIPE_BUF
            os.write(feed, claims)
        finally:
            os.close(feed)
        for _ in range(processes - 1):
            try:
                pid, fd = _fork(queue, run)
            except OSError:   # no pipe or no fork
                continue
            children[pid] = open(fd, "rb")
        try:
            for task in _claimed(queue):
                done[task] = run(task)
        except Exception:
            # missing, so the caller does it again in its own order, where
            # an error that recurs is raised
            pass
        for pid in list(children):
            data = children[pid].read()
            _, status = os.waitpid(pid, 0)
            children.pop(pid).close()
            if status == 0:
                with contextlib.suppress(EOFError, ValueError):
                    done.update(marshal.loads(data))   # may be cut short
    finally:
        os.close(queue)
        if children:
            import signal   # only here: a split that returns kills nothing
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(OSError):   # reaped before the raise
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return done


def _claimed(queue: int):
    """The tasks this process claims off ``queue``, one byte each."""
    while claim := os.read(queue, 1):
        yield claim[0]


def _fork(queue: int, run) -> tuple:
    """(pid, read end) of a forked child that claims tasks off ``queue``
    and writes ``marshal.dumps({task: run(task)})`` of them to a pipe. The
    child leaves by ``os._exit``, 0 once it has written and 1 on any
    exception, so it never unwinds into the caller's frames or flushes a
    buffer it inherited. OSError if no pipe or no child could be made."""
    read_end, write_end = os.pipe()
    pid, code = None, 1
    try:
        pid = os.fork()
        if pid == 0:
            view = memoryview(marshal.dumps(
                {task: run(task) for task in _claimed(queue)}))
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
