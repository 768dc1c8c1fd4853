"""``workers.shared``, the one claim protocol of both splits: this process
and its forked children claim tasks off one pipe, a byte each, and every
task that no process returned is the caller's to do, so ``witt_sum_naive``
stays exact whatever fails, and no child outlives a call."""

import errno
import os
import time
from fractions import Fraction as F

import pytest

from eulerferm import padic, workers
from eulerferm.padic import fermionic_sum_closed, witt_sum_naive
from test_padic import _forks_on, _no_child_left, _split_on

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


def test_a_child_whose_result_marshal_cannot_write_leaves_it_to_the_caller(
        monkeypatch):
    forks = _forks_on(monkeypatch, 3)
    caller, ran_here = os.getpid(), []

    def unwritable_in_a_child(task):
        if os.getpid() != caller:
            return object()   # marshal.dumps raises ValueError
        ran_here.append(task)
        time.sleep(0.01)   # the children claim tasks meanwhile
        return _run(task)

    done = workers.shared(_TASKS, unwritable_in_a_child, 3)
    _no_child_left()
    assert len(forks) == 2
    # only the caller's own tasks came back; the children's are missing
    assert done == {t: _run(t) for t in ran_here}
    assert set(done) < set(_TASKS)


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
    assert padic._worker_count(n, a.numerator, a.denominator, span) == 256
    assert witt_sum_naive(n, a, 3, 6) == fermionic_sum_closed(n, a, span)
    _no_child_left()
    assert len(attempts) == 255 and len(forks) == 2
