"""The fixed reference kernels that benchmark times are divided by.

``kernel`` is about 0.8 ms of the kind of work eulerferm's commands do:
exact ``Fraction`` arithmetic with growing denominators (the
Akiyama-Tanigawa recurrence for Bernoulli numbers) and dense convolution of
``Fraction`` coefficient tuples, as in ``Polynomial.__mul__``.

``import_kernel`` is about 1.3 ms of the kind of work an import does: it
unmarshals the byte code of two standard-library modules (argparse and csv)
and executes their module bodies. Import time tracks it far better
than it tracks the arithmetic kernel.

Neither imports or calls eulerferm, so no change to the program can change
them. ``KERNEL_S`` and ``IMPORT_KERNEL_S`` are their median times per call
on the reference host (see README.md); a time divided by a kernel time and
multiplied by the matching constant is in reference seconds. Regenerate
them with ``python3 benchmarks/kernel.py``.
"""

import argparse
import csv
import functools
import marshal
import time
from fractions import Fraction

KERNEL_S = 0.000760
IMPORT_KERNEL_S = 0.001294

_P = (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 8), Fraction(-7, 16),
      Fraction(1))


def kernel():
    a = [Fraction(0)] * 12
    for m in range(12):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    q = _P
    for _ in range(2):
        out = [0] * (len(_P) + len(q) - 1)
        for i, x in enumerate(_P):
            for j, y in enumerate(q):
                out[i + j] += x * y
        q = tuple(out)
    return a[0], q


@functools.cache
def _module_code() -> tuple:
    """Byte code of argparse and csv, serialized as in their .pyc files."""
    return tuple(marshal.dumps(m.__spec__.loader.get_code(m.__name__))
                 for m in (argparse, csv))


def import_kernel():
    for blob in _module_code():
        exec(marshal.loads(blob), {"__name__": "_import_kernel"})


def time_calls(fn, count: int) -> float:
    """Median time of one call of ``fn`` over ``count`` consecutive calls."""
    times = []
    for _ in range(count):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    times.sort()
    return times[count // 2]


if __name__ == "__main__":
    # median over 20 s of 10-call blocks of each kernel
    for name, fn in (("KERNEL_S", kernel), ("IMPORT_KERNEL_S", import_kernel)):
        fn()
        blocks = []
        end = time.perf_counter() + 20
        while time.perf_counter() < end:
            blocks.append(time_calls(fn, 10))
        blocks.sort()
        print(f"{name} = {blocks[len(blocks) // 2]:.6f}  ({len(blocks)} "
              f"blocks, min {blocks[0]:.6f}, max {blocks[-1]:.6f})")
