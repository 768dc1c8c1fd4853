"""Forked workers: the one fork decision and the one claim protocol of
every split.

``padic.witt_sum_naive`` cuts its p**N terms into runs and
``identities.run_suite`` hands out whole checker sweeps. Each estimates its
work in one unit, serial milliseconds (the runs from the term count and the
powers' bit length, the sweeps from the grid's axes), and hands its tasks
to ``shared`` on ``processes(ms, most)`` processes. That is the policy,
stated here alone, against one constant, ``FORK_MS``: what a fork costs a
cold command. Below it, and for fewer than two tasks, one process runs;
past it, at most one process per CPU that ``cpus`` allows, one per task
(``most``), 256 (one claim byte a task), and no more than the work pays
for, each process given at least half of ``FORK_MS``. ``cpus`` is the
number of CPUs that ``os.sched_getaffinity`` names, where there are two or
more and this process runs one thread, else one, so nothing forks; it is
read only past the cut.

With one process, ``shared`` opens no pipe and forks nothing: this process
claims the tasks in ascending order. Else ``shared`` writes the tasks,
small ints, one byte each to one pipe in claim order. Child i pins itself
first thing to the i-th CPU it may use other than the one this process is
on as it forks (``processor`` of /proc/self/stat), so no child time-shares
its caller's CPU; where the pin cannot be set, the child runs where the
scheduler puts it. This process stays unpinned, and a pin lasts the
child's life, one split. This process and each forked child claim the next
task by reading one byte, until the pipe is empty, and a child sends back
``marshal.dumps({task: run(task)})`` of every task it claimed. A task is
missing where its child failed (it could not be forked, raised, exited
non-zero, was killed, wrote nothing or wrote what marshal cannot read), or
where ``run`` raised an ``Exception`` in this process, which then stops
claiming. Once every child is reaped, this process runs every missing task
itself, in ascending order, so ``shared`` returns every task, and an error
that recurs is raised as in a run in one process. Whatever else the caller
raises, every child is killed and reaped and every pipe closed, so no child
outlives the call.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import threading

__all__ = ["cpus", "current_cpu", "processes", "shared"]


# The serial work, in estimated ms, that pays for a fork in a cold command:
# what forking, faulting in and reaping a child, building its own tables and
# sending its results back cost. With a child pinned to a CPU of its own on
# a 2-vCPU host (``sweep_cut`` and ``split_cut`` in BENCH_cpu_pin.json),
# `verify` grids of 10.4 estimated ms of checks (about 15 ms of whole
# command) tied and lost, and grids from 13.0 ms won, as did highdeg's E_n
# checkers at n 40..60 (17 ms); `witt --naive` sums of 11.3 and 11.8 ms lost
# or tied, and sums from 12.0 ms won in most readings (BENCH_sweep_plan.json).
FORK_MS = 12


def processes(ms: float, most: int) -> int:
    """How many processes run a split of ``ms`` estimated serial ms into at
    most ``most`` tasks: 1 below ``FORK_MS`` or for fewer than two tasks;
    else ``cpus()``, at most ``most``, 256 and 2 * ms / ``FORK_MS``, so
    each process gets at least half of ``FORK_MS``."""
    if ms < FORK_MS or most < 2:
        return 1
    return min(cpus(), most, 256, int(2 * ms / FORK_MS))


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
    stat = _stat()
    return not stat or stat[17] == b"1"   # field 20, num_threads


def current_cpu() -> int | None:
    """The CPU this process ran on when last scheduled: ``processor``,
    field 39 of /proc/self/stat; None where there is no /proc."""
    stat = _stat()
    return int(stat[36]) if stat else None


def _stat() -> list:
    """The fields of /proc/self/stat from field 3 on, as bytes, so field k
    is item k - 3 (the name in field 2 may hold spaces); [] where there is
    no /proc."""
    try:
        with open("/proc/self/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return []
    return stat[stat.rindex(b")") + 2:].split()


def _spare_cpus() -> list:
    """The CPUs this process may use less the one it is on, in order: one
    for each forked child, so no child time-shares the caller's CPU; []
    where /proc does not name this process's CPU, and then no child is
    pinned."""
    here = current_cpu()
    return [] if here is None else sorted(os.sched_getaffinity(0) - {here})


def shared(tasks, run, processes: int) -> dict:
    """{task: run(task)} of every one of the ``tasks``, distinct ints in
    range(256) claimed in the order given, keyed in ascending order. With
    one process (``processes``), this process claims them in ascending
    order, and nothing forks; else it and ``processes`` - 1 forked children
    claim them off one pipe. Once every child is reaped, this process runs
    each task that no process returned, in ascending order, so an error
    that recurs is raised for the lowest task it recurs on. What ``run``
    returns must be built of what ``marshal`` writes. A task that is not a
    byte raises ``ValueError`` before anything runs."""
    claims = bytes(tasks)
    done, children, queue = {}, {}, None   # pid -> read end of its result
    try:
        if processes > 1:
            try:
                queue, feed = os.pipe()
            except OSError:   # no pipe: nothing forks
                processes = 1
            else:
                try:
                    # at most 256 bytes: one write, under PIPE_BUF
                    os.write(feed, claims)
                finally:
                    os.close(feed)
        spare = _spare_cpus() if processes > 1 else []
        for i in range(processes - 1):
            try:
                pid, fd = _fork(queue, run,
                                spare[i] if i < len(spare) else None)
            except OSError:   # no pipe or no fork
                continue
            children[pid] = open(fd, "rb")
        try:
            for task in sorted(claims) if queue is None else _claimed(queue):
                done[task] = run(task)
        except Exception:
            # missing, so it runs again below, in ascending order, where an
            # error that recurs is raised
            pass
        for pid in list(children):
            data = children[pid].read()
            _, status = os.waitpid(pid, 0)
            children.pop(pid).close()
            if status == 0:
                with contextlib.suppress(EOFError, ValueError):
                    done.update(marshal.loads(data))   # may be cut short
    finally:
        if queue is not None:
            os.close(queue)
        if children:
            import signal   # only here: a split that returns kills nothing
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(OSError):   # reaped before the raise
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return {task: done[task] if task in done else run(task)
            for task in sorted(claims)}


def _claimed(queue: int):
    """The tasks this process claims off ``queue``, one byte each."""
    while claim := os.read(queue, 1):
        yield claim[0]


def _fork(queue: int, run, cpu: int | None) -> tuple:
    """(pid, read end) of a forked child that pins itself to ``cpu``, where
    that is not None and the kernel lets it (else it runs where the
    scheduler puts it), claims tasks off ``queue`` and writes
    ``marshal.dumps({task: run(task)})`` of them to a pipe. The
    child leaves by ``os._exit``, 0 once it has written and 1 on any
    exception, so it never unwinds into the caller's frames or flushes a
    buffer it inherited. OSError if no pipe or no child could be made."""
    read_end, write_end = os.pipe()
    pid, code = None, 1
    try:
        pid = os.fork()
        if pid == 0:
            if cpu is not None:
                with contextlib.suppress(OSError):   # no such CPU: unpinned
                    os.sched_setaffinity(0, {cpu})
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
