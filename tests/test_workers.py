"""``workers``, the one fork decision and the one claim protocol of both
splits: ``processes`` sets how many processes run a split from its
estimated ms, the same as the rules each split kept before wherever a
list of commands does not say otherwise, and in ``shared`` this process
and its forked children claim tasks off one pipe, a byte each, and this
process runs every task that no process returned, so ``witt_sum_naive``
stays exact whatever fails, and no child outlives a call."""

import errno
import os
import signal
import time
from fractions import Fraction as F

import pytest

from eulerferm import identities, padic, workers
from eulerferm.identities import SweepGrid, run_suite
from eulerferm.padic import fermionic_sum_closed, witt_sum_naive
from test_padic import (SUMS_NEAR_THE_CUT, _fork_attempts_on, _forks_on,
                        _naive_processes, _naive_work, _no_child_left,
                        _refuse_fork, _split_on)

# in claim order, not sorted: the highest byte, the lowest and between
_TASKS = [200, 0, 255, 17, 3, 99, 1, 64, 128, 5, 42, 250]


def _run(task: int) -> tuple:
    """A result of every kind the splits send back: a large negative int,
    as a run's sum, and the text and counts of a rendered sweep."""
    return (-(3 ** (40 * task + 1)), f"sweep {task}\n" * task, task, None)


@pytest.mark.parametrize("cpus", [2, 3])
def test_shared_results_equal_a_serial_loop(monkeypatch, cpus):
    forks = _forks_on(monkeypatch, cpus)
    assert workers.cpus() == cpus
    assert workers.shared(_TASKS, _run, cpus) == {t: _run(t) for t in _TASKS}
    _no_child_left()
    assert len(forks) == cpus - 1
    # fewer tasks than processes: a child that claims none sends back {}
    assert workers.shared([7], _run, cpus) == {7: _run(7)}
    assert workers.shared([], _run, cpus) == {}
    _no_child_left()
    assert len(forks) == 3 * (cpus - 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_run_that_raises_once_in_the_caller_is_summed_again(monkeypatch,
                                                              cpus):
    # the caller stops claiming at the error; what it and no child
    # returned, the raising run too, is summed again in this process
    forks = _split_on(monkeypatch, cpus)
    caller, chunk = os.getpid(), padic._alternating_chunk
    raised = []

    def raises_once(*args):
        if os.getpid() != caller:
            time.sleep(0.05)   # so the caller claims a run meanwhile
        elif not raised:
            raised.append(args)
            raise ZeroDivisionError("injected")
        return chunk(*args)

    monkeypatch.setattr(padic, "_alternating_chunk", raises_once)
    for n, a in [(5, F(-9, 2)), (8, F(1, 2))]:
        raised.clear()
        assert witt_sum_naive(n, a, 3, 4) == fermionic_sum_closed(n, a, 81)
        assert len(raised) == 1
        _no_child_left()
    assert len(forks) == 2 * (cpus - 1)


def test_one_process_forks_nothing_and_runs_the_tasks_in_ascending_order(
        monkeypatch):
    ran = []

    def no_pipe():
        raise AssertionError("os.pipe was called")

    def noted(task):
        ran.append(task)
        return _run(task)

    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(os, "pipe", no_pipe)
    done = workers.shared(_TASKS, noted, 1)
    assert ran == sorted(_TASKS)
    assert list(done.items()) == [(t, _run(t)) for t in sorted(_TASKS)]
    assert workers.shared([], noted, 1) == {}


def _children_fail_and_the_caller_runs_their_tasks(monkeypatch, in_a_child):
    """``shared`` on three processes whose children call ``in_a_child``
    in place of ``_run``: every task comes back, each run once here, and
    those the children claimed after every child is reaped, in ascending
    order."""
    forks = _forks_on(monkeypatch, 3)
    caller, events, waitpid = os.getpid(), [], os.waitpid

    def run(task):
        if os.getpid() != caller:
            return in_a_child(task)
        events.append(task)
        time.sleep(0.01)   # the children claim tasks meanwhile
        return _run(task)

    def noted_waitpid(pid, options):
        events.append("reaped")
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", noted_waitpid)
    done = workers.shared(_TASKS, run, 3)
    monkeypatch.setattr(os, "waitpid", waitpid)
    _no_child_left()
    assert len(forks) == 2
    assert list(done.items()) == [(t, _run(t)) for t in sorted(_TASKS)]
    last = len(events) - events[::-1].index("reaped")
    claimed, redone = events[:events.index("reaped")], events[last:]
    assert events.count("reaped") == 2
    assert sorted(claimed + redone) == sorted(_TASKS)
    # the children claimed tasks, and the caller ran them once both were
    # reaped, lowest first
    assert redone and redone == sorted(redone)


def test_a_child_whose_result_marshal_cannot_write_leaves_it_to_the_caller(
        monkeypatch):
    # marshal.dumps raises ValueError in the child, which exits 1
    _children_fail_and_the_caller_runs_their_tasks(monkeypatch,
                                                   lambda task: object())


def test_a_killed_childs_tasks_come_back_run_here(monkeypatch):
    def killed(task):
        os.kill(os.getpid(), signal.SIGKILL)

    _children_fail_and_the_caller_runs_their_tasks(monkeypatch, killed)


def test_more_tasks_than_one_claim_byte_are_refused(monkeypatch):
    forks = _forks_on(monkeypatch, 2)
    for tasks in (range(257), [256], [-1]):
        with pytest.raises(ValueError):
            workers.shared(tasks, _run, 2)
    assert forks == []
    _no_child_left()


def test_witt_sum_naive_on_300_cpus_takes_256_runs(monkeypatch):
    # the split is capped at one claim byte a run: 256 runs, which the
    # caller and the two children that could be forked claim between them
    forks = _split_on(monkeypatch, 300)
    counted, attempts = os.fork, []

    def two_at_most():
        attempts.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "injected")
        return counted()

    monkeypatch.setattr(os, "fork", two_at_most)
    n, a, span = 5, F(1, 2), 3 ** 6
    assert _naive_processes(n, a, span) == 256
    assert witt_sum_naive(n, a, 3, 6) == fermionic_sum_closed(n, a, span)
    _no_child_left()
    assert len(attempts) == 255 and len(forks) == 2


_CALLER = os.getpid()


def _claimed_where(task: int) -> tuple:
    """The pid and CPU set of the process that ran ``task``; the caller
    waits a little, so a child claims tasks meanwhile."""
    if os.getpid() == _CALLER:
        time.sleep(0.01)
    return os.getpid(), sorted(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2
                    or not os.path.exists("/proc/self/stat"),
                    reason="needs two CPUs and /proc")
def test_a_child_runs_pinned_to_a_cpu_its_caller_is_not_on(monkeypatch):
    allowed, read, here = os.sched_getaffinity(0), workers.current_cpu, []

    def recorded():
        here.append(read())
        return here[-1]

    monkeypatch.setattr(workers, "current_cpu", recorded)
    done = workers.shared(_TASKS, _claimed_where, 2)
    _no_child_left()
    assert set(done) == set(_TASKS)
    assert len(here) == 1 and here[0] in allowed   # read once, before forking
    pinned = {tuple(cpus) for pid, cpus in done.values() if pid != _CALLER}
    assert len(pinned) == 1, done   # the child claimed tasks, on one CPU
    [(cpu,)] = pinned
    assert cpu in allowed and cpu != here[0]
    # the caller stays unpinned
    assert os.sched_getaffinity(0) == allowed
    assert {tuple(cpus) for pid, cpus in done.values() if pid == _CALLER} <= {
        tuple(sorted(allowed))}


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_child_that_cannot_be_pinned_returns_its_tasks(monkeypatch, cpus):
    # as on one real CPU, where the kernel refuses CPU 1 with EINVAL: the
    # child runs unpinned and every task still comes back
    forks = _forks_on(monkeypatch, cpus)
    monkeypatch.setattr(workers, "current_cpu", lambda: 0)
    refused = []

    def refuse(pid, cpus):
        refused.append(sorted(cpus))   # in the child's copy of the list
        raise OSError(errno.EINVAL, "injected")

    def run(task):
        pid, _ = _claimed_where(task)
        return pid, refused

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    done = workers.shared(_TASKS, run, cpus)
    _no_child_left()
    assert len(forks) == cpus - 1 and refused == []
    assert set(done) == set(_TASKS)
    # child i was asked to pin itself to the i-th CPU but the caller's
    from_children = {pid: tuple(map(tuple, tried))
                     for pid, tried in done.values() if pid != _CALLER}
    assert from_children and set(from_children.values()) <= {((1,),),
                                                              ((2,),)}


def test_spare_cpus_leave_out_the_callers_and_none_where_unknown(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 0, 5, 1},
                        raising=False)
    monkeypatch.setattr(workers, "current_cpu", lambda: 1)
    assert workers._spare_cpus() == [0, 3, 5]
    monkeypatch.setattr(workers, "current_cpu", lambda: 7)   # not allowed
    assert workers._spare_cpus() == [0, 1, 3, 5]
    monkeypatch.setattr(workers, "current_cpu", lambda: None)
    assert workers._spare_cpus() == []


def test_the_stat_fields_read_the_kernels_counts_or_nothing(monkeypatch):
    if os.path.exists("/proc/self/stat"):
        assert workers._one_thread()
        cpu = workers.current_cpu()
        assert cpu in os.sched_getaffinity(0)

    def no_proc(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(workers, "open", no_proc, raising=False)
    assert workers._stat() == []
    assert workers.current_cpu() is None
    assert workers._one_thread()   # by the threading module's count alone


# The fork decisions as ``identities._sweep_workers`` and
# ``padic._worker_count`` made them on ``cpus`` CPUs, by report count
# against 700 and by work units against two runs of 2**22: the oracle of
# the one rule in estimated ms that replaced them, wherever the two agree.

def _sweep_workers_before(counts: list, cpus: int) -> int:
    """``counts``: the report count of each selected checker's sweep."""
    if len(counts) < 2 or sum(counts) < 700:
        return 1
    return min(cpus, len(counts))


def _worker_count_before(work: int, cpus: int) -> int:
    if work < 2 * 2 ** 22:
        return 1
    return min(cpus, work // 2 ** 22, 256)


# The cold commands that BENCH_cpu_pin.json timed on both sides of the
# sweep cut, and the benchmark's two small ones; the naive sums are
# SUMS_NEAR_THE_CUT
_HIGHDEG = ["reflection", "complement", "fersim", "fersim3", "boundary",
            "recurrence_odd", "cro2"]
SWEEP_COMMANDS = {
    "verify all, m, n 0..1 (172 reports)": (None, SweepGrid(m=range(2),
                                                          n=range(2))),
    "verify all, m, n 0..2 (349)": (None, SweepGrid(m=range(3), n=range(3))),
    "verify all, m, n 0..3 (591)": (None, SweepGrid(m=range(4), n=range(4))),
    "verify all, m 0..3, n 0..4 (725)": (None, SweepGrid(m=range(4),
                                                         n=range(5))),
    "verify all, m 0..4, n 0..3 (740)": (None, SweepGrid(m=range(5),
                                                         n=range(4))),
    "verify all, m, n 0..4 (900)": (None, SweepGrid(m=range(5), n=range(5))),
    "verify all, desk grid (1,731)": (None, SweepGrid()),
    "highdeg verify, n 40..60 (189)": (_HIGHDEG, SweepGrid(n=range(40, 61))),
    "padic verify witt lem1 (141)": (["witt", "lem1"], SweepGrid(
        n=range(9), p_list=(3, 5, 7), precision=5)),
}

# Where the one unit decides otherwise: {CPUs: {command: (processes now,
# before)}}; every other decision is the one the old rules made. On two
# CPUs, highdeg's sweeps cost more than their report count shows, and the
# naive sums of 11.3 and 11.8 million units, which lost to a fork, run in
# one process. On more CPUs, a split runs no more processes than its work
# pays for, at least half of ``FORK_MS`` each, where the sweeps took one
# per checker and the naive sums one per 2**22 units (about 3 ms).
_FORKED_BY_COST = {"highdeg verify, n 40..60 (189)": (2, 1),
                   "witt --naive p=3 N=11 n=0 a=1/2": (1, 2),
                   "witt --naive p=3 N=11 n=0 a=0": (1, 2),
                   "witt --naive p=7 N=6 n=2 a=1/2": (1, 2)}
_PAID_FOR = {"witt --naive p=43 N=3 n=8 a=9/2": (2, 3),
             "witt --naive p=5 N=7 n=6 a=7/2": (2, 3)}
NOW_DIFFERENT = {
    1: {},
    2: _FORKED_BY_COST,
    3: {**_FORKED_BY_COST, **_PAID_FOR,
        "verify all, m 0..3, n 0..4 (725)": (2, 3),
        "verify all, m 0..4, n 0..3 (740)": (2, 3),
        "verify all, m, n 0..4 (900)": (2, 3),
        "witt --naive p=17 N=4 n=8 a=-7/2": (2, 3)},
    4: {**_FORKED_BY_COST, **_PAID_FOR,
        "verify all, m 0..3, n 0..4 (725)": (2, 4),
        "verify all, m 0..4, n 0..3 (740)": (2, 4),
        "verify all, m, n 0..4 (900)": (2, 4),
        "witt --naive p=17 N=4 n=8 a=-7/2": (2, 4)},
    300: {**_FORKED_BY_COST, **_PAID_FOR,
          "verify all, desk grid (1,731)": (5, 28),
          "verify all, m 0..3, n 0..4 (725)": (2, 28),
          "verify all, m 0..4, n 0..3 (740)": (2, 28),
          "verify all, m, n 0..4 (900)": (2, 28),
          "witt --naive p=17 N=4 n=8 a=-7/2": (2, 4),
          "witt --naive p=3 N=12 n=0 a=0": (5, 8)},
}


@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 300])
def test_the_fork_decision_is_the_one_each_split_made_before(monkeypatch,
                                                             cpus):
    # a split on k processes tries k - 1 forks, each refused
    attempts = _fork_attempts_on(monkeypatch, cpus)
    decided = {}
    for label, (ids, grid) in SWEEP_COMMANDS.items():
        tried = len(attempts)
        counts = run_suite(ids, grid, len)
        decided[label] = (len(attempts) - tried + 1,
                          _sweep_workers_before(counts, cpus))
    for (n, a, p, precision), _ in SUMS_NEAR_THE_CUT:
        span = p ** precision
        tried = len(attempts)
        assert witt_sum_naive(n, a, p, precision) == fermionic_sum_closed(
            n, a, span)
        decided[f"witt --naive p={p} N={precision} n={n} a={a}"] = (
            len(attempts) - tried + 1,
            _worker_count_before(_naive_work(n, a, span), cpus))
    assert {label: now_before for label, now_before in decided.items()
            if len(set(now_before)) > 1} == NOW_DIFFERENT[cpus]
    assert bool(attempts) == (cpus > 1)
