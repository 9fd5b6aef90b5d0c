"""Machine-speed gauge for a shared, noisy host.

On a shared machine the same request can take 40 ms one minute and 65 ms
the next, because the CPU itself runs slower at times; CPU time drifts with
wall time, so neither is steady. A fixed reference task, timed between
requests, slows by the same factor. The benchmark divides each request's
time by the median reference time around it and multiplies by
REFERENCE_MS. That reports every request time at the speed of a machine
where the reference task takes REFERENCE_MS. The raw wall times are
printed beside the scaled ones.

The reference task does the kinds of work heunforge does (Fraction
arithmetic, complex Horner evaluation, a small numpy eigenvalue call) but
calls nothing in heunforge, so a change to the program cannot move it.

Set-up time is mostly loader and file work, which the reference task does
not track. Its reference is a launch: a fresh interpreter that imports the
standard modules and numpy that heunforge imports, and nothing of
heunforge. The benchmark times it right after each heunforge launch and
reports set-up time at the speed of a machine where it takes
REFERENCE_LAUNCH_S.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_MS = 1.6  # the reference task on an idle 2-core x86_64 VM
HALF_WINDOW = 2  # reference timings on each side of a request

REFERENCE_LAUNCH = "import argparse, csv, dataclasses, fractions, json, numpy"
REFERENCE_LAUNCH_S = 0.13  # the reference launch on an idle 2-core x86_64 VM


_P = [Fraction(k + 1, 7 + k) for k in range(12)]
_Q = [Fraction(3 - k, 5 + 2 * k) for k in range(12)]
_C = [complex(k, 1.0 / (k + 1)) for k in range(30)]
_M = np.arange(36, dtype=float).reshape(6, 6) + np.eye(6)


def reference_task():
    acc = Fraction(0)
    for _ in range(3):
        out = [Fraction(0)] * (len(_P) + len(_Q) - 1)
        for i, a in enumerate(_P):
            for j, b in enumerate(_Q):
                out[i + j] += a * b
        acc += out[11]
    total = 0j
    for k in range(60):
        z = 0.3 + 0.1j * k
        value = 0j
        for c in _C:
            value = value * z + c
        total += value
    np.linalg.eigvals(_M)
    return acc, total


class SpeedGauge:
    """Reference-task timings, one before each request."""

    def __init__(self):
        self.samples = []

    def sample(self) -> int:
        """Time the reference task once; return the sample's index."""
        start = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale_at(self, index: int) -> float:
        """Factor that turns a wall time measured right after sample
        `index` into one at reference speed: the median of the samples
        around it, so a speed change during a long request counts from
        both sides."""
        window = self.samples[max(0, index - HALF_WINDOW):index + HALF_WINDOW + 1]
        return REFERENCE_MS / (statistics.median(window) * 1e3)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
