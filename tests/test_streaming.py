"""`verify` renders each checker sweep right after running it, in the
process that ran it: the bytes equal those of the batch rendering below
(a list of every report's dict, then one ``json.dumps(..., indent=2)`` or
one table), which stays here as the oracle and calls none of the writer's
code; the writer holds one report's rendering at a time, and the command
the sweeps' text, not their reports, in every format; and ``--stats`` adds
to stderr only. Where the sweeps are shared with forked children, the
output is the bytes of the one-process run, less elapsed_ms, also when a
child fails while rendering."""

import contextlib
import csv
import gc
import io
import json
import marshal
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerferm import cli, euler, identities, workers
from eulerferm.identities import (
    CHECKER_IDS,
    IdentityReport,
    SweepGrid,
    run_suite,
)
from eulerferm.polynomial import Polynomial
from test_cli import _CrashingCache
from test_golden import _ELAPSED, THM2_ARGV, report_to_dict
from test_mutation import _BumpedCoefficient
from test_padic import _forks_on, _no_child_left, _refuse_fork

FORMATS = ("text", "json", "csv", "md")


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={_param_str(v)}" for k, v in params.items())


def _param_str(v) -> str:
    if isinstance(v, list):
        return "[" + ",".join(map(str, v)) + "]"
    return str(v)


def _residual_text(rendered) -> str:
    if isinstance(rendered, list):
        return json.dumps(rendered) if rendered else "0"
    return str(rendered)


def batch_emit_reports(reports, fmt: str) -> None:
    """The rendering that built every dict, then the whole output."""
    dicts = [report_to_dict(r) for r in reports]
    passed = sum(1 for r in reports if r.passed)
    summary = (f"PASS {passed}/{len(reports)}" if passed == len(reports)
               else f"FAIL {len(reports) - passed}/{len(reports)}")
    if fmt == "json":
        print(json.dumps(dicts, indent=2))
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["id", "params", "mode", "residual", "pass",
                         "elapsed_ms"])
        for d in dicts:
            writer.writerow([d["id"], json.dumps(d["params"]), d["mode"],
                             json.dumps(d["residual"]), d["pass"],
                             f"{d['elapsed_ms']:.3f}"])
        sys.stdout.write(out.getvalue())
    elif fmt == "md":
        print("| id | params | mode | residual | pass |")
        print("| -- | ------ | ---- | -------- | ---- |")
        for d in dicts:
            print(f"| {d['id']} | {_params_text(d['params'])} | {d['mode']} "
                  f"| {_residual_text(d['residual'])} "
                  f"| {'PASS' if d['pass'] else 'FAIL'} |")
    else:
        for d in dicts:
            print(f"{'PASS' if d['pass'] else 'FAIL'} {d['id']} "
                  f"{_params_text(d['params'])} "
                  f"residual={_residual_text(d['residual'])}")
    print(summary)


def _stdout_of(emit, *args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(*args)
    return out.getvalue()


def _assert_same(streamed: str, batch: str) -> None:
    # names the first line that differs; pytest's own diff of two outputs
    # of half a megabyte takes minutes
    if streamed != batch:
        pairs = zip(streamed.splitlines(True), batch.splitlines(True))
        line = next(((i, s, b) for i, (s, b) in enumerate(pairs) if s != b),
                    None)
        pytest.fail(f"line {line[0]}: streamed {line[1]!r}, batch {line[2]!r}"
                    if line else "one output is a prefix of the other")


def _by_checker(reports) -> list:
    """``reports`` cut into one list per checker, as ``run_suite`` sweeps
    them."""
    sweeps = {}
    for r in reports:
        sweeps.setdefault(r.checker, []).append(r)
    return list(sweeps.values())


def _streamed_and_batch(monkeypatch, argv, fmt):
    """The output of ``cli.main(argv)`` and the oracle's rendering of the
    same reports, elapsed_ms included. Each sweep comes to the writer as
    ``render`` made it and ``marshal`` carried it, as from a forked
    child."""
    seen = []

    def recording_run_suite(ids, grid, render):
        seen.extend(run_suite(ids, grid))
        return [marshal.loads(marshal.dumps(render(sweep)))
                for sweep in _by_checker(seen)]

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)
    streamed = _stdout_of(cli.main, [*argv, "--format", fmt])
    return streamed, _stdout_of(batch_emit_reports, seen, fmt)


RUNS = {
    "desk": (None, ["verify", "all"]),
    "thm2": (None, THM2_ARGV),
    # string residuals
    "crash": (_CrashingCache, ["verify", "all"]),
    # E_2 + 3a: failing reports with nonempty residual lists
    "corrupt": (lambda: _BumpedCoefficient(2, 1), ["verify", "all"]),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_streamed_output_equals_batch_rendering(monkeypatch, run, fmt):
    cache, argv = RUNS[run]
    if cache is not None:
        monkeypatch.setattr(euler, "_CACHE", cache())
    streamed, batch = _streamed_and_batch(monkeypatch, argv, fmt)
    _assert_same(streamed, batch)
    assert streamed.splitlines()[-1].startswith(
        "PASS" if run in ("desk", "thm2") else "FAIL")


# leaves of every JSON type a param renders to, and lists (and tuples,
# rendered as lists) of them nested to any depth, empty ones included
_PARAM_VALUES = st.recursive(
    st.one_of(st.booleans(), st.integers(), st.integers(max_value=-1),
              st.text(), st.fractions(max_denominator=10 ** 6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8)

_RESIDUALS = st.one_of(
    st.tuples(st.sampled_from(["symbolic", "pointwise"]),
              st.lists(st.fractions(max_denominator=10 ** 6), max_size=5)
              .map(Polynomial)),
    st.tuples(st.sampled_from(["scalar", "pointwise"]),
              st.fractions(max_denominator=10 ** 6)),
    st.tuples(st.just("valuation"),
              st.one_of(st.integers(0, 10 ** 4), st.just(math.inf))),
    # an error report's "<Type>: <message>"
    st.tuples(st.sampled_from(["symbolic", "scalar", "valuation"]), st.text()),
)

_REPORTS = st.builds(
    lambda checker, params, mode_residual, passed, elapsed: IdentityReport(
        checker, params, *mode_residual, passed, elapsed),
    st.text(), st.dictionaries(st.text(), _PARAM_VALUES, max_size=4),
    _RESIDUALS, st.booleans(),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(reports=st.lists(_REPORTS, max_size=4))
@example(reports=[IdentityReport(
    "lem1", {"poly": [[True, -3, []], (False, Fraction(-1, 2)), [[-7]]],
             "": [], "b": False, "n": -1},
    "valuation", math.inf, False, 0.0)])
@example(reports=[
    IdentityReport("sun", {"m": 3, "n": 0, "a": Fraction(-1, 4)}, "symbolic",
                   Polynomial(), True, 1.5),
    IdentityReport("boundary", {"n": True}, "symbolic", Fraction(0), True,
                   0.0),
    IdentityReport("witt", {"a": Fraction(3, 4)}, "valuation", 2, True, 0.0)])
@example(reports=[IdentityReport(
    "lem1", {"d": {"x": Fraction(1, 2), "y": [1]}, "l": [{"z": 1}], "e": {}},
    "symbolic", Polynomial([1, 2]), False, 0.0)])
def test_streamed_rendering_of_arbitrary_reports(reports):
    # unicode, quotes, backslashes and control characters in ids, param
    # names, param values and error residuals; bools and negative ints in
    # nested lists; an empty list too; and the typed leaves of passing
    # reports: int and Fraction params, a zero Polynomial and a zero
    # Fraction residual. The reports come rendered as one sweep, and as one
    # sweep each between empty ones, so that every separator between two
    # sweeps is written
    for fmt in FORMATS:
        batch = _stdout_of(batch_emit_reports, reports, fmt)
        render = cli._rendered(fmt, None)

        def carried(reports):   # as a forked child sends it back
            return marshal.loads(marshal.dumps(render(reports)))

        _assert_same(_stdout_of(cli._emit_reports, [carried(reports)], fmt),
                     batch)
        sweeps = [carried([])]
        for r in reports:
            sweeps += [carried([r]), carried([])]
        _assert_same(_stdout_of(cli._emit_reports, sweeps, fmt), batch)


def _traced_peak(call, *args) -> tuple:
    """``call(*args)``'s result and its tracemalloc peak, with stdout sent
    nowhere."""
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            result = call(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_holds_the_sweeps_text_not_their_reports(monkeypatch, cpus):
    # in every format, in one process and shared with a forked child: each
    # process drops a sweep's reports once it has rendered them, and this
    # one holds the sweeps' text (567 KB of JSON) until it writes them. The
    # batch rendering of JSON peaks at 4.9 MB here: every dict, the
    # pure-Python encoder's chunks and the whole output string at once
    forks = _forks_on(monkeypatch, cpus)
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull):
        # the tables are filled before measuring
        assert cli.main(["verify", "all"]) == 0
    statuses, peaks = {}, {}
    for fmt in FORMATS:
        statuses[fmt], peaks[fmt] = _traced_peak(
            cli.main, ["verify", "all", "--format", fmt])
    _no_child_left()
    assert len(forks) == (cpus - 1) * (1 + len(FORMATS))
    # a run that stopped early would write little and peak low
    assert statuses == dict.fromkeys(FORMATS, 0)
    assert max(peaks.values()) < 2 * 2 ** 20, peaks


@pytest.fixture(scope="module")
def small_and_large_reports():
    """The reports at m, n in 0..4 (900) and in 0..14 (8,335)."""
    return [run_suite(CHECKER_IDS, SweepGrid(m=tuple(range(top + 1)),
                                             n=tuple(range(top + 1))))
            for top in (4, 14)]


@pytest.mark.parametrize("fmt", FORMATS)
def test_writer_memory_does_not_grow_with_the_grid(small_and_large_reports,
                                                   fmt):
    # the one-sweep writer keeps one report's rendering alive at a time, so
    # nine times the reports add nothing that grows with them: an output
    # joined before it is written would add about 1.5 MB
    def write(reports):
        cli._write_sweep(reports, fmt, sys.stdout)

    small, large = small_and_large_reports
    _traced_peak(write, small)   # warm the writer up
    growth = _traced_peak(write, large)[1] - _traced_peak(write, small)[1]
    assert growth < 64 * 2 ** 10, growth


def _untimed(text: str, fmt: str) -> str:
    return _ELAPSED[fmt].sub("", text) if fmt in _ELAPSED else text


def test_stats_go_to_stderr_only(capsys):
    argv = ["verify", "all", "--format", "json"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main([*argv, "--stats"]) == 0
    with_stats = capsys.readouterr()
    assert plain.err == ""
    _assert_same(_untimed(with_stats.out, "json"), _untimed(plain.out, "json"))

    reports = json.loads(plain.out.rpartition("]")[0] + "]")
    *rows, tables = with_stats.err.splitlines()
    assert [row.split(":")[0] for row in rows] == sorted(
        {r["id"] for r in reports}) == sorted(CHECKER_IDS)
    for row in rows:
        cid = row.split(":")[0]
        count = sum(r["id"] == cid for r in reports)
        assert row.startswith(f"{cid}: {count} reports, {count} pass, ")
        assert re.fullmatch(rf"{cid}: .* ms total, [\d.]+ ms max at \S.*",
                            row)
    assert re.fullmatch(r"tables: E_n \d+, B_n \d+, tangent column \d+, "
                        r"recurrence \d+; gc \d+ collections, [\d.]+ ms; "
                        r"peak RSS [\d.]+ MB" + _CPUS
                        + r"; (1 process|\d+ processes)", tables)


# the CPUs the processes were on, where /proc names them
_CPUS = r"(?:; CPUs? \d+(?:, \d+)*)?"


def test_stats_name_each_checkers_slowest_report(capsys, monkeypatch):
    fake = [IdentityReport("wsp7", {"m": 0, "n": 1}, "symbolic",
                           Fraction(0), True, 0.5),
            IdentityReport("wsp7", {"m": 2, "n": Fraction(1, 3)}, "symbolic",
                           Fraction(1), False, 2.25),
            IdentityReport("wsp7", {"m": 3, "n": 0}, "symbolic",
                           Fraction(0), True, 1.0)]
    monkeypatch.setattr(cli, "run_suite",
                        lambda ids, grid, render: [render(fake)])
    assert cli.main(["verify", "wsp7", "--stats"]) == 1
    row = capsys.readouterr().err.splitlines()[0]
    assert row == ("wsp7: 3 reports, 2 pass, 3.750 ms total, "
                   "2.250 ms max at m=2 n=1/3")


def test_stats_count_the_collections_while_the_checks_run(capsys,
                                                          monkeypatch):
    fake = [IdentityReport("wsp7", {"m": 0, "n": 0}, "symbolic",
                           Fraction(0), True, 0.5)]

    def collecting(ids, grid, render):
        gc.collect()
        gc.collect()
        return [render(fake)]

    callbacks = list(gc.callbacks)
    monkeypatch.setattr(cli, "run_suite", collecting)
    assert cli.main(["verify", "wsp7", "--stats"]) == 0
    tables = capsys.readouterr().err.splitlines()[-1]
    count = re.search(r"; gc (\d+) collections, ([\d.]+) ms;", tables)
    assert int(count[1]) >= 2 and float(count[2]) > 0
    # the counter is removed with the run, and without --stats never added
    assert gc.callbacks == callbacks
    monkeypatch.setattr(cli, "_collector_pauses", None)
    assert cli.main(["verify", "wsp7"]) == 0


def test_stats_read_every_process_after_a_fork(capsys, monkeypatch):
    # on two CPUs the desk grid's sweeps are shared with a forked child,
    # whose table sizes, collector pauses and peak RSS come back with its
    # reports: here each of its tables reads 10,000, whichever sweeps it
    # claims, far above what the caller's grow to, its peak 2 MB, and each
    # of its sweeps collects once, with automatic collections off
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    caller, sizes, sweep = os.getpid(), cli.table_sizes, identities._sweep

    def child_sized():
        own = sizes()
        return own if os.getpid() == caller else dict.fromkeys(own, 10_000)

    def collecting(*args):
        if os.getpid() == caller:
            time.sleep(0.01)   # the child claims a sweep meanwhile
        else:
            gc.collect()
        return sweep(*args)

    monkeypatch.setattr(cli, "table_sizes", child_sized)
    monkeypatch.setattr(cli, "_peak_rss_mb",
                        lambda: 1.0 if os.getpid() == caller else 2.0)
    monkeypatch.setattr(identities, "_sweep", collecting)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert cli.main(["verify", "all", "--format", "json", "--stats"]) == 0
    finally:
        if enabled:
            gc.enable()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out, err = capsys.readouterr()
    *rows, tables = err.splitlines()
    assert len(rows) == len(CHECKER_IDS)
    found = re.fullmatch(r"tables: E_n (\d+), B_n (\d+), tangent column "
                         r"(\d+), recurrence \d+; gc (\d+) collections, "
                         r"[\d.]+ ms; peak RSS 2\.0 MB" + _CPUS
                         + "; 2 processes", tables)
    assert found, tables
    assert found.groups()[:3] == ("10000",) * 3
    assert 1 <= int(found[4]) < len(CHECKER_IDS)
    assert out.endswith("PASS 1731/1731\n")


@pytest.mark.parametrize("cpus", [1, 2])
def test_stats_name_the_cpus_the_processes_ran_on(monkeypatch, cpus):
    # each process reads its CPU with every sweep; the tables line names
    # each CPU once, in order, before the process count, and no CPU where
    # /proc names none: here the caller is on CPU 7 and a child on 3
    _forks_on(monkeypatch, cpus)
    caller, sweep = os.getpid(), identities._sweep

    def sleeping(*args):
        if os.getpid() == caller:
            time.sleep(0.01)   # the child claims a sweep meanwhile
        return sweep(*args)

    monkeypatch.setattr(cli, "current_cpu",
                        lambda: 7 if os.getpid() == caller else 3)
    monkeypatch.setattr(identities, "_sweep", sleeping)
    code, out, err = _run_main(["verify", "all", "--stats"])
    _no_child_left()
    assert code == 0
    assert err.endswith("MB; CPUs 3, 7; 2 processes\n" if cpus == 2
                        else "MB; CPU 7; 1 process\n")
    monkeypatch.setattr(cli, "current_cpu", lambda: None)
    code, out, err = _run_main(["verify", "cro2", "--stats"])
    assert code == 0 and err.endswith(" MB; 1 process\n")


def test_peak_rss_reads_vmhwm_else_ru_maxrss(monkeypatch):
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as status:
            hwm = next(line for line in status if line.startswith("VmHWM:"))
        # the peak only grows, and is read in whole kB
        assert cli._peak_rss_mb() >= int(hwm.split()[1]) / 1024

    def no_proc(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    assert cli._peak_rss_mb() > 0


# --- sweeps rendered where they ran ------------------------------------------

# above the cut: the desk grid's 1,731 reports and m, n 0..14's 8,335
FORK_ARGV = {"desk": ["verify", "all"],
             "m,n 0..14": ["verify", "all", "--m", "0..14", "--n", "0..14"]}


def test_one_process_renders_each_sweep_before_the_next_runs(monkeypatch):
    # on one CPU this process runs every sweep, and renders each right after
    # running it, as a forked child does, so no sweep's reports outlive it
    events, sweep, rendered = [], identities._sweep, cli._rendered

    def noted_sweep(cid, grid):
        events.append(("ran", cid))
        return sweep(cid, grid)

    def noted_rendered(*args):
        render = rendered(*args)

        def noted(reports):
            events.append(("rendered", reports[0].checker))
            return render(reports)
        return noted

    monkeypatch.setattr(workers, "cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(identities, "_sweep", noted_sweep)
    monkeypatch.setattr(cli, "_rendered", noted_rendered)
    code, out, err = _run_main(["verify", "all"])
    assert (code, err) == (0, "") and out.endswith("PASS 1731/1731\n")
    assert events == [(event, cid) for cid in sorted(CHECKER_IDS)
                      for event in ("ran", "rendered")]


def _run_main(argv) -> tuple:
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _serial_main(argv) -> tuple:
    """``_run_main(argv)`` in one process: one CPU, and no fork allowed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0},
                      raising=False)
        patch.setattr(os, "fork", _refuse_fork)
        return _run_main(argv)


def _assert_forked_equals_serial(monkeypatch, argv, fmt, cpus) -> tuple:
    """Run ``argv`` in ``fmt`` in one process, then on ``cpus`` CPUs: the
    same exit code and stdout, less elapsed_ms, with ``cpus`` - 1 forks and
    no child left. Returns both runs' (code, stdout, stderr)."""
    argv = [*argv, "--format", fmt]
    serial = _serial_main(argv)
    forks = _forks_on(monkeypatch, cpus)
    forked = _run_main(argv)
    _no_child_left()
    assert len(forks) == cpus - 1
    assert forked[0] == serial[0]
    _assert_same(_untimed(forked[1], fmt), _untimed(serial[1], fmt))
    return serial, forked


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("grid", FORK_ARGV, ids=list(FORK_ARGV))
@pytest.mark.parametrize("fmt", FORMATS)
def test_forked_rendering_equals_the_serial_run(monkeypatch, fmt, grid,
                                                cpus):
    serial, forked = _assert_forked_equals_serial(monkeypatch,
                                                  FORK_ARGV[grid], fmt, cpus)
    assert forked[0] == 0 and forked[2] == serial[2] == ""
    assert forked[1].endswith("PASS 8335/8335\n" if grid == "m,n 0..14"
                              else "PASS 1731/1731\n")


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("fmt", FORMATS)
def test_forked_stats_rows_equal_the_serial_run(monkeypatch, fmt, cpus):
    # stdout as without --stats; on stderr one row per checker, in
    # canonical order, with the same counts, and a tables line that counts
    # every process
    argv = [*FORK_ARGV["desk"], "--stats"]
    serial, forked = _assert_forked_equals_serial(monkeypatch, argv, fmt,
                                                  cpus)
    plain = _serial_main([*FORK_ARGV["desk"], "--format", fmt])
    _assert_same(_untimed(forked[1], fmt), _untimed(plain[1], fmt))
    *rows, tables = forked[2].splitlines()
    *serial_rows, serial_tables = serial[2].splitlines()
    assert [row.split(":")[0] for row in rows] == sorted(CHECKER_IDS)

    def counts(row):
        return row.split(" ms total")[0].rsplit(", ", 1)[0]

    assert list(map(counts, rows)) == list(map(counts, serial_rows))
    assert serial_tables.endswith("; 1 process")
    assert tables.endswith(f"; {cpus} processes")


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("run", ["crash", "corrupt"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_forked_rendering_of_failing_reports(monkeypatch, fmt, run, cpus):
    # the children inherit the broken cache, so they render failing
    # reports: string residuals (crash) and nonempty residual lists
    # (corrupt)
    cache, argv = RUNS[run]
    monkeypatch.setattr(euler, "_CACHE", cache())
    serial, forked = _assert_forked_equals_serial(monkeypatch, argv, fmt,
                                                  cpus)
    assert forked[0] == 1 and forked[1].splitlines()[-1].startswith("FAIL ")
    if run == "crash":
        assert "ZeroDivisionError: euler_number(0) injected" in forked[1]


@pytest.mark.parametrize("fault", ["raises", "writes nothing", "is killed",
                                   "sends a truncated payload"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_child_that_fails_while_rendering_costs_time_not_bytes(
        monkeypatch, fmt, fault):
    argv = [*FORK_ARGV["desk"], "--format", fmt]
    want = _serial_main(argv)
    caller, rendered = os.getpid(), cli._rendered
    caller_renders = []

    def failing_rendered(*args):
        render = rendered(*args)

        def hook(reports):
            if os.getpid() == caller:
                caller_renders.append(reports[0].checker)
            elif fault == "raises":
                raise ZeroDivisionError("injected")
            elif fault == "writes nothing":
                os._exit(0)
            elif fault == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return render(reports)
        return hook

    def truncated(value):
        data = marshal.dumps(value)
        return data if os.getpid() == caller else data[:len(data) // 2]

    forks = _forks_on(monkeypatch, 2)
    monkeypatch.setattr(cli, "_rendered", failing_rendered)
    if fault == "sends a truncated payload":
        monkeypatch.setattr(workers, "marshal", SimpleNamespace(
            dumps=truncated, loads=marshal.loads))
    got = _run_main(argv)
    _no_child_left()
    assert len(forks) == 1
    assert got[0] == want[0] == 0 and got[2] == ""
    _assert_same(_untimed(got[1], fmt), _untimed(want[1], fmt))
    # the caller ran and rendered every sweep, the child's too
    assert sorted(caller_renders) == sorted(CHECKER_IDS)


def test_the_first_value_error_in_canonical_order_exits_2(monkeypatch):
    # sun and thm2 raise wherever they run; the caller claims thm2 first,
    # but sun comes first in canonical order, and nothing is written
    sweep = identities._sweep

    def refusing(cid, grid):
        if cid in ("thm2", "sun"):
            raise ValueError(f"{cid} refused")
        return sweep(cid, grid)

    monkeypatch.setattr(identities, "_sweep", refusing)
    for cpus in (1, 2, 3):
        forks = _forks_on(monkeypatch, cpus)
        for fmt in FORMATS:
            got = _run_main([*FORK_ARGV["desk"], "--format", fmt])
            assert got == (2, "", "error: sun refused\n")
            _no_child_left()
        assert len(forks) == 4 * (cpus - 1)


def test_a_forked_verify_imports_no_pickle():
    # in a fresh interpreter that sees two CPUs, the sweeps are shared with
    # a child and come back rendered, by marshal
    probe = ("import os, sys\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "forks, fork = [], os.fork\n"
             "os.fork = lambda: forks.append(1) or fork()\n"
             "from eulerferm import cli\n"
             "with open(os.devnull, 'w') as sys.stdout:\n"
             "    code = cli.main(['verify', 'all', '--m', '0..14',\n"
             "                     '--n', '0..14', '--format', 'json'])\n"
             "sys.stdout = sys.__stdout__\n"
             "print(code, len(forks), 'pickle' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "False"]
