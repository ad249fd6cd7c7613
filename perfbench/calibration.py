"""Host-speed calibration: a fixed kernel timed between the ops of a run.

The shared 2-vCPU VM this benchmark was tuned on ran the same code 30-60%
slower for seconds to minutes at a time, with nothing else running in the
VM; process CPU time slowed as much as wall time. Whole 35 s runs fell
into slow periods, so no statistic of op latency alone was steady from run
to run. run.py therefore times this kernel after every op, and scales its
throughput figures by the kernel's median time over the same run.

The kernel is interpreter-bound work of the same kind as spoonarm's
rollouts: a fixed-step update of a 3-vector through small numpy arrays
and `math`, one row stored per step, and each row formatted as CSV text.
It calls nothing in spoonarm, so a change to spoonarm moves the scaled
figures by exactly as much as it moves the op latencies.

Do not change the kernel or REFERENCE_S: both fix the scale that figures
of different commits are compared on.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

STEPS = 1500
# the figures are scaled to a host on which one kernel pass takes this long
REFERENCE_S = 0.010
_COUPLING = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.1, 0.0, 1.0]])


def kernel(steps: int = STEPS) -> int:
    rows = np.empty((steps, 3))
    y = (0.1, 0.2, 0.3)
    lines = []
    for k in range(steps):
        t = k * 1e-3
        v = _COUPLING @ np.asarray(y, dtype=float)
        y = (y[0] + 1e-3 * math.sin(t) + 1e-4 * float(v[0]),
             y[1] + 1e-3 * math.cos(t) * y[2],
             y[2] - 1e-3 * float(v[2]))
        rows[k] = y
        lines.append(",".join(repr(float(x)) for x in rows[k]))
    return len("\n".join(lines))


def timed_pass() -> float:
    """Seconds one kernel pass takes, with the cyclic GC held off so
    that the program's heap does not leak into the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
