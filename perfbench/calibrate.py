"""Host-speed calibration: times are reported in reference seconds.

The benchmark runs on shared hosts whose single-thread speed drifts by up
to a factor of two within minutes, in phases of a few seconds, so a raw
wall time says as much about the neighbours as about bks5.  The benchmark
therefore times a fixed piece of pure-Python work (``reference_work``,
which does not touch bks5) while it measures, and scales each measured
interval by how fast that work ran:

    scaled = wall * REFERENCE_REP_S / rep_time

``REFERENCE_REP_S`` is the time one repetition of the reference work took
on the development host (2 vCPUs, Python 3.11), so a scaled time reads in
seconds of that host.  A change that makes bks5 slower makes every scaled
time slower by the same share, while a host that slows down slows the op
and the reference work alike and leaves the scaled time where it was.

Short intervals (library ops, set-ups) are scaled by the mean of samples
taken just before and just after them.  A ``bks5 verify`` process runs for
7-9 s, across several of the host's speed phases, so it is calibrated from
inside: ``python3 perfbench/calibrate.py MODULE ARGS...`` runs a module as
``python -m`` would, with a ``Sampler`` thread that times one repetition
every 50 ms, and prints the samples as its last line.
"""
from __future__ import annotations

import json
import os
import runpy
import statistics
import sys
import threading
import time
from fractions import Fraction

REFERENCE_REP_S = 0.0005
SAMPLE_INTERVAL_S = 0.05
SAMPLES_PREFIX = "CALIBRATION "


def reference_work() -> int:
    """One repetition: dict, set, tuple, sorting, int and Fraction work."""
    acc = Fraction(0)
    seen = {}
    words = []
    for i in range(1, 400):
        key = (i * 2654435761) & 0xFFFF
        seen[key] = seen.get(key, 0) + 1
        words.append(tuple(sorted((i % 7, i % 11, i % 13))))
        if i % 40 == 0:
            acc += Fraction(i, i % 97 + 1)
    return len(set(words)) + len(seen) + acc.numerator % 7


def rep_time(reps: int) -> float:
    """Seconds per repetition of the reference work, over ``reps`` of them."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_work()
    return (time.perf_counter() - t0) / reps


def scale(wall: float, rep: float) -> float:
    """``wall`` in reference seconds, given the repetition time around it."""
    return wall * REFERENCE_REP_S / rep


def scaled(walls, reps) -> list:
    """Wall times in reference seconds, calibrated between the intervals.

    ``walls[i]`` ran between the calibration samples ``reps[i]`` and
    ``reps[i + 1]``, and is scaled by their mean.
    """
    if len(reps) != len(walls) + 1:
        raise ValueError("need one calibration sample before each wall time "
                         "and one after the last")
    return [scale(wall, (before + after) / 2)
            for wall, before, after in zip(walls, reps, reps[1:])]


class Sampler:
    """Times one repetition of the reference work every 50 ms, in a thread.

    The thread holds the GIL for about half a millisecond per sample, which
    costs the measured program about 1 %, the same on every commit.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval):
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def rep(self) -> float:
        """Mean repetition time of the samples (one fresh sample if none)."""
        return statistics.fmean(self.samples) if self.samples else rep_time(1)


def main(argv) -> None:
    """Run module ``argv[0]`` as ``__main__`` with ``argv[1:]``, sampled."""
    module = argv[0]
    sys.argv = [module] + list(argv[1:])
    sys.path[0] = os.getcwd()
    with Sampler() as sampler:
        try:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        finally:
            print(SAMPLES_PREFIX + json.dumps(sampler.samples), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
