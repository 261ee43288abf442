"""The machine's momentary speed, read from a fixed piece of work.

A shared host can change speed by itself: on the 2-vCPU Xeon virtual
machine the first numbers come from, a fixed Python loop takes up to 1.7
times longer in spells of seconds to minutes, in CPU time as much as in
wall time. Spells that long put whole runs into a fast or a slow phase,
and no run length the benchmark's time budget allows averages them out.

So the end-to-end timings are scaled to one reference speed: each timed
phase (a set-up, a crawl) is flanked by two readings of :func:`sample`,
and its wall time is multiplied by :data:`REFERENCE_S` over their mean.
The work below is the benchmark's own (plain Python and NumPy, nothing
from ``repro``), so a change to the program cannot move it; a program
that gets slower reads slower by the same factor.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of one :func:`_chunk` at the reference speed: about its median on
#: the machine above.
REFERENCE_S = 0.007
#: Chunks per reading.
CHUNKS = 5


def _chunk() -> float:
    """Seconds one fixed mix of interpreter and small-array work takes."""
    started = time.perf_counter()
    counts = {}
    total = 0
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        total += i % 7
    values = np.arange(2000, dtype=float)
    for _ in range(100):
        values = np.sqrt(values * 1.0001 + 1.0)
        np.argsort(values)
    return time.perf_counter() - started


def sample() -> float:
    """Mean seconds per chunk over :data:`CHUNKS` chunks (about 35 ms)."""
    return sum(_chunk() for _ in range(CHUNKS)) / CHUNKS


def scale(before: float, after: float) -> float:
    """Factor that takes a phase's wall time to the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
