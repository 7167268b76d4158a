"""Host-speed calibration for the end-to-end host times.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes as other tenants load them.  A fixed pure-Python loop
(heap pushes and pops, dict updates, float arithmetic: the operations
the simulator's hot paths are made of) is timed between units during
the run.  It shares no code with ``repro``, so a change to the simulator
never moves it.  Over windows of a few seconds its time tracks the host
time of a fixed simulator unit with a log-log slope of about 1.

The loop is timed between consecutive units.  Each unit's host times
are divided by its *slowness*, the mean loop time around it over
``NOMINAL_S``, so they read as host times on a host that runs the loop
in exactly ``NOMINAL_S``.  The uncalibrated figures are kept in the
run's details.
"""

from __future__ import annotations

import heapq
import random
import time

#: Loop time of the reference host (a quiet 2-vCPU Xeon VM runs the
#: loop in 10-12 ms).
NOMINAL_S = 0.010


def loop_seconds() -> float:
    """Time one pass of the calibration loop."""
    start = time.perf_counter()
    rng = random.Random(1)
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(15000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        table[i & 1023] = table.get(i & 1023, 0.0) + acc * 1e-9
    return time.perf_counter() - start


class Bracket:
    """Times the calibration loop between consecutive units.

    Each unit's slowness is the mean of the loop times just before and
    just after it, so one loop pass serves two neighbouring units.
    """

    def __init__(self) -> None:
        self._last = loop_seconds()

    def slowness(self) -> float:
        """Close the bracket around the unit that just finished."""
        after = loop_seconds()
        value = (self._last + after) / (2.0 * NOMINAL_S)
        self._last = after
        return value
