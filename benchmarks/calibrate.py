"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: for seconds or
minutes at a time every instruction runs up to 1.7 times slower, because of
other load on the same cores.  CPU time drifts with it, so no clock avoids
it.  The benchmark therefore times a fixed pure-Python loop (dict, tuple and
integer work, the same kind of work pgr does) next to the measured calls,
and reports every time in reference seconds: the measured time scaled by
REFERENCE_S / (the loop's time measured around it).  A program change moves
the measured time and not the loop, so it shows in full; a slow phase of the
machine moves both, and cancels out.
"""

from __future__ import annotations

from time import perf_counter

# about the loop's time on an unloaded 2-vCPU x86-64 VM with CPython 3.11;
# any constant works, it only fixes the unit
REFERENCE_S = 1.2e-4


def _loop() -> float:
    acc: dict = {}
    t0 = perf_counter()
    for i in range(500):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + i * 3
    return perf_counter() - t0


def calibrate() -> float:
    """The loop's time at the machine's current speed: the fastest of
    three back-to-back runs (a slow phase lasts far longer than that)."""
    return min(_loop(), _loop(), _loop())
