"""CPU speed probe: rescales the children's wall times to a reference speed.

The 2-vCPU VM this benchmark was tuned on changes speed every few seconds,
on each CPU independently and whatever the program does: a fixed
pure-Python loop runs at about 1.1x or about 1.55x its best time, and a
15 s command can spend all of it in either state.  Over ten runs the raw
wall times of a workload spread by up to 0.3 of their median, at every
run length the benchmark can afford.

While a SpeedProbe is active, the calling thread, and so every child it
starts, is pinned to one CPU.  A thread pinned to the same CPU times a
fixed loop (``_loop``) every PROBE_INTERVAL_S seconds, in thread CPU time
(about 1.5 % of that CPU).  ``seconds(start, end)`` rescales a wall
interval to the time it would have taken with the loop at PROBE_REF_S,
using the mean loop time of the samples taken within the interval.  The program under test cannot change the probe, so a program
that does more work still reads proportionally slower.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_PASSES = 8
PROBE_INTERVAL_S = 0.05
# The probe's time at the tuning machine's fast speed (Intel Xeon, Python 3.11.7).
PROBE_REF_S = 0.00065
# 34 fixed 67-bit rows: the size of the Steane square's reduced kernel.
_WIDTH = 67
_ROWS = [(i + 1) * 0x9E3779B97F4A7C15 % (1 << _WIDTH) for i in range(34)]


def _loop() -> int:
    """The shape of the library's inner loops: XOR rows of a list of words
    into an accumulator, count the bits and keep the least.  A plain
    integer loop slows less than the library does when the machine slows:
    rescaled with it, the Steane-square times spread twice as much."""
    rows = _ROWS
    k = len(rows)
    best = _WIDTH
    for shift in range(1, PROBE_PASSES + 1):
        for a in range(k):
            acc = rows[a] ^ rows[a - shift]
            for idx in range(k):
                w = (acc ^ rows[idx]).bit_count()
                if w < best:
                    best = w
    return best


class SpeedProbe:
    """Context manager; samples the speed of the CPU the children run on."""

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self._saved = os.sched_getaffinity(0)
        self._ready = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        self._ready.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._saved)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while True:
            # The loop's CPU time, not its wall time: the loop shares the CPU
            # with a child, and the time the child runs in between is not
            # the loop's.
            start, cpu = time.perf_counter(), time.thread_time()
            _loop()
            self.samples.append((start, time.thread_time() - cpu))
            self._ready.set()
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def seconds(self, start: float, end: float) -> float:
        """The wall interval [start, end] rescaled to the reference speed.

        An interval shorter than the sampling period may hold no sample;
        it takes the sample that started nearest to its middle.
        """
        samples = list(self.samples)
        inside = [d for t, d in samples if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
        return (end - start) * PROBE_REF_S / statistics.mean(inside)
