"""Machine-speed calibration for the timings.

On a shared VM the speed of identical single-threaded work alternates
between two modes about 1.7x apart, every one to five seconds. A 25-second
run sees a random share of each, so raw times of the same code spread by
10-30% from run to run. The runner therefore times a short fixed task every
PERIOD_S, from a SIGALRM handler so that samples also fall inside long
calls, subtracts the handler's time from the call it interrupted, and
rescales each call's time to a machine on which the task takes REF_S.

The task does the kinds of work the CLI does (small numpy array updates,
JSON encoding, float formatting, filling fresh 2 MB arrays) and uses
nothing from uarank, so a change to the program moves the rescaled times as
it moves the raw ones.
"""

from __future__ import annotations

import json
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
REF_S = 0.005  # about the task's median time on a shared 2.1 GHz Xeon VM
WINDOW_S = 0.5  # samples this close to a call also count for it


def task_time() -> float:
    """Seconds one run of the calibration task takes now."""
    t0 = perf_counter()
    A = np.full((30, 30), 1 / 900)
    for _ in range(30):
        B = np.zeros((31, 31))
        B[:30, :30] = 0.3 * A
        B[1:, :30] += 0.2 * A
        B[:30, 1:] += 0.5 * A
        A = B[:30, :30] / B.sum()
    json.dumps({"m": A.tolist()}, sort_keys=True, indent=2)
    "\n".join("  ".join(f"{v:.6f}" for v in row) for row in A)
    for _ in range(4):  # fresh 2 MB arrays: page faults and memory bandwidth
        np.ones(1 << 18).sum()
    return perf_counter() - t0


class Sampler:
    """Times the task every PERIOD_S while active, interrupting whatever runs."""

    def __init__(self):
        self.samples = []  # (start time, task seconds)
        self.spent = 0.0  # total time spent in the handler

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.samples.append((t0, task_time()))
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean task time from WINDOW_S before `start` to WINDOW_S after `end`."""
        near = [c for t, c in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REF_S / statistics.fmean(near)

    def median(self) -> float:
        return statistics.median(c for _, c in self.samples)
