"""A fixed reference loop that tracks the machine's speed next to each op.

On a shared machine the CPU speed drifts by tens of percent over seconds to
minutes, so two runs of the same code can differ by more than any useful
bound.  So the process that does the work also times this loop right
before and right after each operation (and every ``TICK_S`` during a CLI
process), and the operation's latency is scaled by
``(NOMINAL_S / median(those loop times)) ** EXPONENT``: an operation made
while the core is slow is scaled down by about as much as it was slowed.
The loop is plain Python (integer bit counts, dict updates, complex
arithmetic, like the package's kernels) and never touches the package, so
a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import time

# Median time of one loop on a 2-core x86-64 machine with Python 3.11.7;
# it only sets the scale of the scaled metrics.
NOMINAL_S = 2.0e-3
SAMPLES = 5
# The loop slows down more than the package's code when the machine is
# busy: on the 2-core development machine, log latency against log loop
# time had a slope of 0.5-0.75 for fresh CLI processes, and the run-to-run
# spread of the scaled metrics was smallest near 0.75 for those and about
# as small there for the dense_api session, whose best exponent was 1.
EXPONENT = 0.75
# Period of the loops timed while a CLI process runs.
TICK_S = 0.25


def _loop() -> int:
    s = 0
    acc: dict[int, complex] = {}
    z = 1 + 1j
    for a in range(6000):
        b = a * 2654435761 & 0xFFF
        s += (a & b).bit_count()
        acc[b] = acc.get(b, 0j) + z * s
    return s


def sample(n: int = SAMPLES) -> list[float]:
    """Times of ``n`` reference loops, with the garbage collector held off
    so that objects the package left behind cannot slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            _loop()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if enabled:
            gc.enable()


def scale(loop_s: float) -> float:
    """Factor that takes a time measured where the loop took ``loop_s``
    (the median of the loops timed beside it) to the nominal machine speed."""
    return (NOMINAL_S / loop_s) ** EXPONENT
