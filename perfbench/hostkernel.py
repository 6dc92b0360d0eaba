"""Host-speed kernel, timed in a process of its own.

Started by ``worker.HostSpeed`` with pipes on stdin and stdout::

    python3 perfbench/hostkernel.py

For each line it reads, it runs a fixed kernel of the benchmark's own code
(interpreter loops, small-list polynomial arithmetic, a numpy reduction;
never library code) twice and writes the seconds of the second, warm run
as one line.  It exits when its input closes.  The process imports no
library code and is blocked on its input while the library runs, so the
library's heap, allocator state and cache footprint cannot reach the
kernel's time; the warm repeat keeps the cache lines an op evicted out of
it too.
"""

from __future__ import annotations

import sys
import time

import numpy as np

VALUES = np.linspace(0.0, 1.0, 50_000)


def kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc += (i * i) % 7
    a, b = [1, 2, 3, 4, 0, 1, 2], [3, 0, 1, 2, 4, 1]
    seen = {}
    for _ in range(30):
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % 5
        seen[tuple(prod)] = acc
        a = prod[:7]
    float((VALUES * 1.0001).sum())
    return time.perf_counter() - t0


def main() -> int:
    for _ in sys.stdin:
        kernel()
        sys.stdout.write(f"{kernel()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
