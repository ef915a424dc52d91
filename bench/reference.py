"""Reference task: program times in units of a fixed piece of work.

The benchmark runs on small shared machines whose speed swings with the
load of other tenants; the same pass over the same items took from 6.5 s
to 11 s of CPU time within minutes on a 2-vCPU machine. To measure the
program and not the machine, a fixed task that uses no sicpl code is
timed right after every item. It mixes what sicpl's layers spend their
time on: numpy generator creation, small least-squares steps on vectors
of 1.5k points, and formatting and parsing numeric text.

The task runs in a helper interpreter of its own, pinned to the same CPU
as the benchmark, so nothing the program leaves behind in the benchmark's
process (heap, allocator caches, garbage-collector generations) can
change its time. Before each task the helper sweeps a buffer larger than
the per-core caches, so the task starts from the same cold L1 and L2
whatever the program did before it, and pays for memory traffic as the
program's items do. Each program time is divided by the median reference
time around it and multiplied by REFERENCE_S. A change to the program
moves the numerator only; a change of machine speed moves both. All
reported times are therefore reference-scaled: seconds of a machine on
which the reference task takes REFERENCE_S.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

# median CPU seconds of reference_task() in the helper over six runs of
# 2000 tasks (run medians 1.78-1.90 ms) on a 2-vCPU x86-64 virtual machine,
# Python 3.11, numpy 2.4 with OpenBLAS on one thread; baseline.json records
# the median of each workload's runs
REFERENCE_S = 0.00182
WINDOW = 5   # references on each side of an item that set its scale
SWEEP_BYTES = 32 << 20   # swept before each task; 16x a 2 MB per-core L2


def reference_task():
    seeds = np.random.SeedSequence(12345).spawn(20)
    total = sum(float(np.random.Generator(np.random.PCG64(s)).normal()) for s in seeds)
    x = np.linspace(0.0, 10.0, 1500)
    damping = np.eye(4) * 3.0 + 0.1
    for k in range(1, 25):
        e = np.exp(-x / k)
        jac = np.stack([e, 2.0 * e + 1.0, x, np.ones_like(x)], axis=1)
        total += float(np.linalg.solve(jac.T @ jac + damping, jac.T @ (e / k)).sum())
    text = "".join(f"{v:.9g} {2.0 * v:.9g}\n" for v in x[:300])
    rows = [tuple(float(t) for t in line.split()) for line in text.splitlines()]
    return total + len(rows)


def time_reference():
    """CPU seconds of one reference task in this process."""
    start = time.process_time()
    reference_task()
    return time.process_time() - start


class Reference:
    """The helper interpreter; `time()` runs one reference task in it and
    returns its CPU seconds. It inherits this process's environment and
    CPU affinity."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, bufsize=1)
        self.time()   # the helper's first task pays for its warm-up

    def time(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited {self.proc.wait()}")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scaled(times, refs):
    """Each time over the median of the references within WINDOW of it."""
    out = []
    for i, t in enumerate(times):
        local = refs[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(local))
    return out


def serve():
    """Helper loop: one reference task per input line, its time per output line."""
    sweep = np.ones(SWEEP_BYTES // 8)
    for _ in sys.stdin:
        sweep += 1.0
        print(repr(time_reference()), flush=True)


if __name__ == "__main__":
    serve()
