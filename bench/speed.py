"""The machine's current speed, for scaling end-to-end times.

The shared 2-core machine the baseline was measured on (BASELINE.md) drifts
by 15-25% over seconds to tens of seconds, run after run, for reasons outside
the process: a process's CPU time tracks its wall time, so it is not
preemption.  Left in,
that drift is wider than any bound a regression check could use.  So the
benchmark times a fixed reference loop right before and after each timed
stage and scales the stage's times to a nominal speed.  The reference is
integer arithmetic that allocates nothing tracked, so neither ledgersim's
code nor the state of its heap can move it.  Raw times are printed next to
the scaled ones.
"""

from __future__ import annotations

import time

REFERENCE_LOOP = 150_000
# What one reference timing takes on the nominal machine: the one that
# BASELINE.md was measured on, at its typical speed.
REFERENCE_NOMINAL_S = 0.018


def reference_seconds() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - t0


def machine_speed() -> float:
    """Speed relative to the nominal machine: above 1.0 is faster.  The
    best of two timings, so that an interrupt in one does not count."""
    return REFERENCE_NOMINAL_S / min(reference_seconds(), reference_seconds())
