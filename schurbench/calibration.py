"""Machine-speed calibration for the benchmark's timings.

A shared 2-core Intel Xeon VM was measured changing speed by up to 1.7x
for tens of seconds at a time (other tenants), which moves every wall time
of a run together.  kernel() is a fixed piece of pure-Python work of the same kind
as schurcalc's (Fraction elimination, integer loops, compiling source); it
does not touch schurcalc.  The benchmark runs it between operations and
rescales each operation's wall time by REFERENCE_S over the kernel time
measured around it, so reported times are seconds at the speed where the
kernel takes REFERENCE_S.  Raw wall times are reported next to them.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# kernel() wall time on an idle Intel Xeon VM (Python 3.11)
REFERENCE_S = 0.0135

_SOURCE = "\n".join(f"def f{i}(x):\n    return [x * k for k in range({i})]" for i in range(40))


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    start = perf_counter()
    n = 12
    m = [[Fraction((i * 7 + j * 3) % 11 - 5 + (i == j) * 13) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        for i in range(n):
            if i != c:
                factor = m[i][c] / m[c][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    total = 0
    for i in range(40_000):
        total += i * i % 7
    compile(_SOURCE, "<calibration>", "exec")
    return perf_counter() - start


def scale(samples: list[float], index: int) -> float:
    """Speed factor for work done between samples[index] and samples[index + 1].

    The median of the four samples around the interval damps the kernel's
    own noise while following changes that last a few seconds.
    """
    window = samples[max(0, index - 1):index + 3]
    return REFERENCE_S / statistics.median(window)
