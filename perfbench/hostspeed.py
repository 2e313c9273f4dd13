"""Rescale measured host time to a nominal host speed.

On a shared host the speed of one core moves by up to 2x within
seconds, with drift over minutes.  A fixed pure-Python loop, timed
between samples, moves with it to within a few percent: on a shared
2-vCPU host, over five minutes in 30 s blocks, the reference engine's
raw cycles/s ranged over 0.65 of its median while its ratio to this
loop's speed ranged over 0.05.  So every host time the benchmark
reports is ``measured * speed / NOMINAL``, where ``speed`` is the
loop's rate measured around the sample: the time the work would take
on a host whose loop runs at ``NOMINAL`` iterations per second.  The
loop is the benchmark's own code and never changes with the program,
so a program change shows in full.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager

#: calibration-loop iterations per second of the nominal host.
NOMINAL = 2_000_000
#: one calibration takes about 5 ms.
ITERATIONS = 10_000


def calibrate() -> float:
    """Iterations per CPU-second of a fixed interpreter-bound loop, on
    the calling thread's CPU clock."""
    start = time.thread_time()
    acc = 0
    table = {}
    for i in range(ITERATIONS):
        table[i & 63] = acc
        acc += i ^ (acc >> 3)
    return ITERATIONS / (time.thread_time() - start)


def _reading(count: int) -> float:
    return statistics.median(calibrate() for _ in range(count))


class HostClock:
    """Calibrations around and during the samples of one run.

    A 5 ms calibration is itself a noisy reading, so a sample is
    rescaled by many of them: an engine window by one per chunk
    (:meth:`scale`), a short batch by the median of ``count`` readings
    on each side, and work that runs for seconds or in other processes
    by readings taken every 0.1 s while it runs (:meth:`sampling`).
    """

    def __init__(self) -> None:
        self.speed = calibrate()

    def restart(self, count: int = 1) -> None:
        """Calibrate afresh before a sample that follows untimed work."""
        self.speed = _reading(count)

    def scale(self, seconds: float, count: int = 1) -> float:
        """``seconds`` just measured, rescaled to the nominal host."""
        before = self.speed
        self.speed = _reading(count)
        return seconds * (before + self.speed) / 2 / NOMINAL

    @contextmanager
    def sampling(self, period: float = 0.1):
        """Calibrate on every core, on background threads, while the
        block runs.

        Work in other processes runs on whichever core is free, and the
        cores of a shared host change speed independently, so each
        thread pins itself to one core.  Yields a dict whose
        ``"factor"`` is set on exit: the mean over cores of the median
        reading during the block, divided by ``NOMINAL``.  Multiply a
        time measured inside the block by it.  The readings take about
        a twentieth of each core.
        """
        cores = sorted(os.sched_getaffinity(0))
        readings: dict[int, list[float]] = {core: [] for core in cores}
        stop = threading.Event()

        def sample(core: int) -> None:
            os.sched_setaffinity(0, {core})  # this thread only
            readings[core].append(calibrate())
            while not stop.wait(period):
                readings[core].append(calibrate())
            readings[core].append(calibrate())

        threads = [threading.Thread(target=sample, args=(core,), daemon=True)
                   for core in cores]
        for thread in threads:
            thread.start()
        out: dict[str, float] = {}
        try:
            yield out
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            out["factor"] = statistics.fmean(
                statistics.median(r) for r in readings.values()) / NOMINAL
