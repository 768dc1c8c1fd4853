"""Benchmark for eulerferm's exact certification, run through its CLI.

    python3 benchmarks/run.py --workload {catalog,highdeg,padic} --seed N
                              --seconds S --trace {0,1} [--quick]

Run from the root of a source checkout. Every CLI command of a workload
runs in a fresh interpreter (benchmarks/child.py), so every cache in the
program starts cold, as it does for a user. Every output is checked against
a computation made apart from the program (workloads.py).

With ``--trace 0`` the run repeats the workload for about S seconds (at
least three times) and prints the end-to-end metrics. Times are in
reference seconds: command time weighted by the speed of a fixed reference
kernel (kernel.py) sampled in the same process, and scaled by the kernel's
time on the reference host; see README.md. With
``--trace 1`` it runs the workload once untraced and once with the
wrappers of tracer.py installed, writes the spans to
benchmarks/.out/trace-<workload>.json and prints the per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from kernel import IMPORT_KERNEL_S, KERNEL_S
from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / ".out"

# (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("verdict_s", "s", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

MIN_REPS = 3
SETUP_CHILDREN_PER_REP = 3
CHILD_TIMEOUT_S = 170


@dataclass
class Child:
    rc: int
    rss_mb: float
    record: dict | None
    stdout: str
    stderr: str


@dataclass
class Rep:
    """One pass over a workload's commands."""

    ref_s: float = 0.0
    raw_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    setup_ref_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    dumps: list = field(default_factory=list)
    stdout_bytes: int = 0


def spawn(root: Path, tag: str, cli_argv=None, trace=False) -> Child:
    """Run child.py in a fresh interpreter and wait for it."""
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{tag}.record.json"
    stdout, stderr = OUT_DIR / f"{tag}.stdout", OUT_DIR / f"{tag}.stderr"
    record.unlink(missing_ok=True)
    argv = [sys.executable, "-s", str(HERE / "child.py"), str(root),
            str(record)]
    if trace:
        argv.append("--trace")
    if cli_argv is not None:
        argv += ["--", *cli_argv]
    # the same string hashes in every child; nothing from PYTHONPATH
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root,
                                env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(record.read_text())
    except (OSError, ValueError):
        data = None
    return Child(proc.returncode, usage.ru_maxrss / 1024, data,
                 stdout.read_text(), stderr.read_text())


def _probe_times(record: dict) -> list:
    return [d for t, d in record["probes"]
            if record["start"] <= t <= record["end"]]


def raw_seconds(record: dict) -> float:
    """Command time as measured, less the probes' own time."""
    return record["end"] - record["start"] - sum(_probe_times(record))


def reference_seconds(record: dict) -> float:
    """Command time in reference seconds.

    The kernel's speed 1/k, sampled at even intervals by the probes, is
    integrated over the command: raw time times the mean of 1/k, which is
    raw time over the harmonic mean of the kernel times. The kernel blocks
    before and after the command count as two more samples, and are the
    only ones for a command shorter than a probe interval.
    """
    ks = _probe_times(record) + [record["k_before"], record["k_after"]]
    return raw_seconds(record) * KERNEL_S * sum(1 / k for k in ks) / len(ks)


def setup_reference_seconds(record: dict) -> float:
    return record["setup_s"] * IMPORT_KERNEL_S / record["k_setup"]


def run_rep(root: Path, name: str, commands, trace=False) -> Rep:
    rep = Rep()
    started = time.perf_counter()
    for i, command in enumerate(commands):
        child = spawn(root, f"{name}-{i}", command.argv, trace)
        rep.attempted += command.operations
        if child.record is None or child.rc not in (0, 1):
            rep.failed += command.operations
            rep.failures.append(
                f"{' '.join(command.argv)}: exit {child.rc}: "
                f"{child.stderr.strip()[-300:]}")
            continue
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        rep.ref_s += reference_seconds(child.record)
        rep.raw_s += raw_seconds(child.record)
        rep.setup_ref_s.append(setup_reference_seconds(child.record))
        rep.stdout_bytes += len(child.stdout.encode())
        if trace:
            rep.dumps.append({"argv": command.argv, **child.record["trace"]})
        rep.problems += command.check(child.stdout)
    rep.wall_s = time.perf_counter() - started
    return rep


def timed_run(root: Path, name: str, commands, seconds: float):
    reps, setups = [], []
    started = time.perf_counter()
    while True:
        for _ in range(SETUP_CHILDREN_PER_REP):
            child = spawn(root, f"{name}-setup")
            if child.record is None or child.rc != 0:
                raise RuntimeError(f"set-up child failed: {child.stderr}")
            setups.append(setup_reference_seconds(child.record))
        rep = run_rep(root, name, commands)
        reps.append(rep)
        setups += rep.setup_ref_s
        print(f"rep {len(reps)}: verdict {rep.ref_s:.4f} ref-s (raw "
              f"{rep.raw_s:.4f} s), wall {rep.wall_s:.3f} s, peak rss "
              f"{rep.rss_mb:.1f} MB", file=sys.stderr)
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed + rep.wall_s > seconds:
            break
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(r.ref_s for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    return reps, metrics


def traced_run(root: Path, name: str, commands, workload: str, seed: int):
    untraced = run_rep(root, name, commands)
    traced = run_rep(root, name, commands, trace=True)
    values = layer_metrics(traced.dumps, traced.stdout_bytes)
    if untraced.ref_s > 0:
        values["trace.overhead_pct"] = (traced.ref_s / untraced.ref_s - 1) * 100
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "commands": traced.dumps}))
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in LAYER_METRICS}
    return [untraced, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eulerferm" / "cli.py").is_file():
        print(f"error: no eulerferm source under {root / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    commands = workloads.build(args.workload, args.seed, args.quick)
    name = f"{args.workload}-{'trace' if args.trace else 'run'}"
    try:
        if args.trace:
            reps, metrics = traced_run(root, name, commands, args.workload,
                                       args.seed)
        else:
            reps, metrics = timed_run(root, name, commands, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = [p for r in reps for p in r.problems]
    for line in [f"failed: {f}" for r in reps for f in r.failures][:20] + \
            [f"check: {p}" for p in problems][:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
