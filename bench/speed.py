"""Machine speed, sampled between requests with a fixed reference kernel.

The shared 2-core box this benchmark was built on changes speed by up to
±25% in spells of 10 to 30 s: one identical sort took 190 to 480 ms within
a minute, at 0.99 CPU time per wall second.  A 20 s run cannot average those
spells out.  Timed next to a fixed pure-Python kernel, that sort kept its
ratio to the kernel within ±4% while its own time moved ±20%.

So every request's time is scaled by KERNEL_REF_S over the kernel time
measured around it: the result is the time the request would take on a
machine where the kernel takes KERNEL_REF_S.  The kernel touches no revdcj
code, so no change to the program can move it; it runs with the garbage
collector off, so the program's heap cannot slow it either.
"""

from __future__ import annotations

import gc
from time import perf_counter

KERNEL_REF_S = 0.015  # about the kernel's time on that box in a fast spell
SAMPLE_EVERY_S = 0.1  # of request time between kernel samples


def kernel() -> int:
    """Fixed tuple, frozenset, dict and sort work, like the program's own:
    many small tables that stay in cache, then one large one that does not."""
    total = 0
    for size, rounds in ((300, 40), (6000, 1)):
        for r in range(rounds):
            table = {}
            for i in range(size):
                table[(i, r, i ^ r)] = frozenset((i % 17, r % 13, i % 5, i))
            keys = sorted(table, key=lambda t: (t[2], t[0]))
            total += len(set(table.values())) + len(keys)
    return total


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Kernel samples taken between requests, and the scale factors they give."""

    def __init__(self):
        # (requests served before the sample, kernel seconds)
        self.points = [(0, kernel_seconds())]
        self._busy_at_last = 0.0

    def tick(self, served: int, busy: float) -> float:
        """Before request number `served`: sample the kernel if `busy`, the
        request time so far, is SAMPLE_EVERY_S past the last sample.  Returns
        the scale factor from the latest sample, as an estimate until
        scales() gives the final one."""
        if busy - self._busy_at_last >= SAMPLE_EVERY_S:
            self.points.append((served, kernel_seconds()))
            self._busy_at_last = busy
        return KERNEL_REF_S / self.points[-1][1]

    def scales(self, served: int) -> list[float]:
        """After the last of `served` requests: take the closing sample, and
        give per request KERNEL_REF_S over the mean of the kernel samples
        taken just before and just after it."""
        self.points.append((served, kernel_seconds()))
        out, j = [], 0
        for i in range(served):
            while self.points[j + 1][0] <= i:
                j += 1
            out.append(2 * KERNEL_REF_S / (self.points[j][1] + self.points[j + 1][1]))
        return out
