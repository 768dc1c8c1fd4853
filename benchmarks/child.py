"""Run one eulerferm CLI command in a fresh interpreter and time it.

    python -s benchmarks/child.py ROOT RECORD [--trace] [-- CLI ARGS...]

The child times the import of ``eulerferm.cli`` plus ``build_parser()``
(set-up), then ``cli.main(CLI ARGS)`` until its output is flushed (the
verdict). Without CLI ARGS it only measures set-up.

On a shared host the same code runs at speeds that differ by up to 2x
from one second to the next, so raw times do not repeat. The child
therefore also times the fixed reference kernels of kernel.py in the same
process: ``import_kernel`` right after set-up; blocks of ``kernel`` calls
right before and right after the command; and one ``kernel`` call every
``PROBE_S`` seconds while the command runs, from a SIGALRM handler, which
Python runs between bytecodes of the main thread. run.py turns these into
reference seconds.

Standard output is the CLI's own. Timings go to RECORD as JSON.
"""

import os
import signal
import sys
import time

PROBE_S = 0.05
BRACKET_CALLS = 15
SETUP_CALLS = 9


def main() -> int:
    root, record_path = sys.argv[1], sys.argv[2]
    rest = sys.argv[3:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    cli_argv = rest[1:] if rest[:1] == ["--"] else None

    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    from eulerferm import cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"eulerferm was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    from kernel import import_kernel, kernel, time_calls

    import_kernel()
    record = {"setup_s": setup_s,
              "k_setup": time_calls(import_kernel, SETUP_CALLS)}
    if cli_argv is None:
        _write(record_path, record)
        return 0

    probes = []

    def probe(signum, frame):
        t = time.perf_counter()
        kernel()
        probes.append((t, time.perf_counter() - t))

    kernel()
    record["k_before"] = time_calls(kernel, BRACKET_CALLS)
    if trace:
        # no probes: their time would land inside the spans
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli.main", cli.main)
    else:
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        run = cli.main
    start = time.perf_counter()
    try:
        rc = run(cli_argv)
    except SystemExit as exc:       # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    end = time.perf_counter()
    if trace:
        record["trace"] = tracer.dump()
        tracer.uninstall()
    else:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    record.update(start=start, end=end, probes=probes, rc=rc,
                  k_after=time_calls(kernel, BRACKET_CALLS))
    _write(record_path, record)
    return rc


def _write(path, record) -> None:
    import json     # not at the top: set-up is timed before any import
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
