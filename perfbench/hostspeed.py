"""Timings scaled to a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, as neighbours come and go.  A fixed pure-Python
loop, timed between blocks of work, reads the host's speed at that
moment; a block's times are scaled by ``REF_S`` over the median of the
loop times read around it.  A scaled time is the time the
block would have taken on a host that runs the loop in ``REF_S``, so a
change to the program moves it one for one while the host's drift
mostly cancels.
"""

from __future__ import annotations

import statistics
import time

#: The reference loop's time on the reference host (a 2-vCPU Xeon VM,
#: CPython 3.11, in a typical minute).
REF_S = 0.010
#: The reference loop's length: about REF_S on that host.
REF_ITERATIONS = 100_000


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def scale(readings) -> float:
    """The scale for work done while the loop took ``readings``: their
    median, so one reading cut short by preemption does not count."""
    return REF_S / statistics.median(readings)


class ScaledClock:
    """Item times and busy time of a run of blocks, each block scaled by
    the readings taken around it.  The loop runs once after every block;
    a block's scale is the median of the ``WINDOW`` readings nearest to
    it, which follows the host's drift over a few seconds."""

    WINDOW = 6

    def __init__(self) -> None:
        self.refs = [reference_s()]
        self.blocks = []
        #: Scaled busy time so far, each block by the readings before it.
        self.so_far_s = 0.0

    def add(self, busy_s: float, samples) -> None:
        """Record one block that took ``busy_s`` and yielded ``samples``."""
        self.blocks.append((busy_s, list(samples)))
        self.refs.append(reference_s())
        self.so_far_s += busy_s * scale(self.refs[-self.WINDOW:])

    def summary(self) -> dict:
        """Scaled and raw item times and busy time, and the readings."""
        out = {"samples": [], "busy_s": 0.0, "raw_samples": [], "raw_busy_s": 0.0}
        half = self.WINDOW // 2
        for j, (busy_s, samples) in enumerate(self.blocks):
            # Block j ran between readings j and j + 1.
            k = scale(self.refs[max(0, j + 1 - half):j + 1 + half])
            out["samples"] += [x * k for x in samples]
            out["busy_s"] += busy_s * k
            out["raw_samples"] += samples
            out["raw_busy_s"] += busy_s
        out["refs"] = self.refs
        return out
