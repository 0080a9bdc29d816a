"""Host-speed calibration for the gated times.

On a shared host the speed of the benchmark's own vCPUs drifts by up to
2x over seconds and minutes, with other tenants' load: on a 2-vCPU VM
an identical fig13 pass took from 1.5 to 3.4 s within four minutes,
with CPU time equal to wall time. A time taken on such a host says as
much about the neighbours as about the program.

So every gated time is measured together with a fixed calibration loop
that runs between the measured steps (before each cell of a pass or a
set-up, and once after the last): pure Python that calls nothing in
``src/``, so no change to the program moves it. The loop's own time is
taken out of the measured time, and the rest is scaled by how much
slower than on a quiet host the loop ran in the same window::

    normalized = (wall - loop time) * REFERENCE_S / mean(loop samples)

The result reads in seconds on a quiet host, one on which the loop
takes ``REFERENCE_S``. The loop samples each step's window, so a host
that slows down during one step and not during the next is corrected
step by step. The raw wall times are printed beside the normalized
ones.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Seconds one :func:`loop` takes on a quiet 2-vCPU VM, its fastest
#: there; normalized times are seconds on such a host.
REFERENCE_S = 0.010


def loop() -> int:
    """About 10 ms of interpreter work of the program's kind: dict
    updates, integer arithmetic, string building and closure calls."""
    table = {}
    acc = 0
    for i in range(40_000):
        k = i & 1023
        table[k] = table.get(k, 0) + (i ^ (i >> 3))
        acc += len(str(i)) if i % 7 == 0 else 1
    steps = [lambda x, j=j: x * j + 1 for j in range(16)]
    for i in range(10_000):
        acc = steps[i & 15](acc) & 0xFFFFFFF
    return acc


class HostClock:
    """Calibration samples taken around one measured window."""

    def __init__(self, samples=()):
        self.samples = list(samples)

    def tick(self) -> None:
        """Run the loop once and keep its time. The collector is off, so
        the size of the program's heap does not reach the loop."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            loop()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    @property
    def spent(self) -> float:
        """Seconds the loop took in all, to take out of the window."""
        return sum(self.samples)

    def normalize(self, seconds: float) -> float:
        """``seconds`` of the window's own work, on a quiet host."""
        return seconds * REFERENCE_S / statistics.mean(self.samples)
