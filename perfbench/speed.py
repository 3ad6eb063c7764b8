"""Host speed, measured alongside the program, to scale host times.

On a shared host (the baseline's: 2 vCPUs of a shared x86_64 machine) speed
swings by up to 1.8x within seconds as other tenants come and go; a
pure-Python loop's median moves by a quarter between 10 s runs.  Absolute
host times therefore measure the neighbours as much as the program.  So
every measured window
also times a fixed calibration loop, written here and independent of the
program, about every :data:`INTERVAL_S` seconds, outside every page and
outside the window's time.  A host time ``t`` taken at moment ``at`` is
reported at the reference speed::

    t * (REFERENCE_S / median of the NEAREST calibration times around ``at``) ** e

that is, in microseconds of a host on which the calibration loop takes
:data:`REFERENCE_S`.  ``e`` is the workload's measured sensitivity to the
host's swings relative to the loop's (``speed_sensitivity`` in
``spec.WORKLOADS``).  A slower program still reads slower: the loop does not
run any program code.  The loop mixes the program's kinds of work (string
joins and scans of tens of kilobytes, lookups in a dict too large for the
first-level caches, small-object churn) because on the baseline host a loop
of small dict operations alone speeds up by more than the program does when
the host is idle.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter
from typing import List

#: The calibration loop's time on the reference host, in seconds (about the
#: median on the 2-vCPU host the baseline was recorded on).
REFERENCE_S = 250e-6
#: Least measured time between two calibration samples.
INTERVAL_S = 0.005
#: A moment's speed is the median of this many samples nearest to it.
NEAREST = 16
#: Samples taken back to back just before each set-up.
SETUP_SAMPLES = 8

_CHUNKS = ["%05d" % i + "x" * 4000 for i in range(16)]
_TABLE = {"key%d" % i: i for i in range(20000)}
_KEYS = ["key%d" % ((i * 7919) % 20000) for i in range(400)]


class _Node:
    __slots__ = ("number", "text")

    def __init__(self, number: int, text: str) -> None:
        self.number = number
        self.text = text


def calibration_loop() -> int:
    """Fixed work: the same operations on the same data every call."""
    text = "".join(_CHUNKS)
    total = text.count("00") + len(text.encode())
    for key in _KEYS:
        total += _TABLE[key]
    nodes = [_Node(i, str(i)) for i in range(150)]
    return total + sum(node.number for node in nodes)


class SpeedMeter:
    """Calibration samples of one process, in time order."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.seconds: List[float] = []
        self._local: List[float] = []

    def sample(self) -> None:
        start = perf_counter()
        calibration_loop()
        end = perf_counter()
        self.at.append(end)
        self.seconds.append(end - start)

    def tick(self) -> None:
        """Take a sample if none was taken in the last ``INTERVAL_S``."""
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def burst(self) -> None:
        for _ in range(SETUP_SAMPLES):
            self.sample()

    def scales(self, moments: List[float], sensitivity: float) -> List[float]:
        """(``REFERENCE_S`` / the local calibration time) ** ``sensitivity``
        at each moment."""
        count = len(self.seconds)
        if len(self._local) < count:
            self._local = [self._median_around(i) for i in range(count)]
        last = count - 1
        return [(REFERENCE_S / self._local[min(bisect_left(self.at, at), last)]) ** sensitivity
                for at in moments]

    def scaled(self, seconds: List[float], moments: List[float],
               sensitivity: float) -> List[float]:
        return [s * f for s, f in zip(seconds, self.scales(moments, sensitivity))]

    def _median_around(self, index: int) -> float:
        low = max(0, min(index - NEAREST // 2, len(self.seconds) - NEAREST))
        return statistics.median(self.seconds[low:low + NEAREST])


#: The one meter of the benchmark process.
METER = SpeedMeter()
