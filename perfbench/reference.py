"""Fixed reference work, timed between operations to gauge the machine's speed.

    python3 perfbench/reference.py     # the kernel's median and fastest time over 30 s

The benchmark's host alternates between a fast and a slow state, up to about
1.7x apart, that switch within seconds at some times and hold for a minute
at others, so one run can fall in either state or in any mix of them. The
kernel uses no agririsk code: an interpreter loop, a loop of small numpy
calls like the Panjer recursion's, and an FFT and elementwise passes over
arrays of a few MiB, the size of the engine's grids, which feel a
neighbour's use of the shared cache and memory as the operations do. A
sample of it precedes every operation and setup sample, so kernel samples
are spread over a run like the operations, and the ratio of their medians
varies less than either.
Timed metrics are given in seconds at the speed at which the kernel takes
``REFERENCE_S``, its fastest time on the machine the benchmark was written on
(2 vCPU, Python 3.11, numpy 2.4). Work that slows the whole machine, such as
busy background threads, slows the kernel too and is partly scaled away;
unscaled times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.027

_X = np.random.default_rng(0).random(1 << 18)


def kernel() -> None:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    g = np.zeros(2048)
    for n in range(8, g.size):
        g[n] = float(np.dot(_X[:8], g[n - 8 : n])) * 0.1 + _X[n]
    q = np.fft.fft(_X)  # 4 MiB of complex values, like the engine's grids
    np.exp(q * -1e-9).real.cumsum()


def sample() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    samples = []
    end = time.perf_counter() + 30.0
    while time.perf_counter() < end:
        samples.append(sample())
    print(f"median {sorted(samples)[len(samples) // 2]!r} s, fastest {min(samples)!r} s, {len(samples)} samples")
