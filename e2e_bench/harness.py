"""Measurement helpers: host stamp, speed-scaled clock and summary statistics.

The shared host the benchmark was built on switches between a fast and a
slow state every few seconds (another tenant's load), and a slow stretch
can outlast a whole invocation.  A fixed pure-Python calibration loop tracks
that state, so the benchmark times its work with a :class:`SpeedClock`: the
work is split at every window, the loop is sampled at every split (outside
the measured time), and each segment's seconds are scaled to the reference
host speed (``REFERENCE_CALIBRATION_S``) by the samples at its two ends.
A repetition is flagged ``slow_host`` when the samples at its end are more
than ``SLOW_HOST_FACTOR`` times slower than the ones at its start: the host
slowed down while it ran, so its timings are left out of the medians (and
the exclusion is printed) instead of being averaged in.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from typing import Sequence

CALIBRATION_LOOPS = 100_000
# Samples taken at every split of a SpeedClock (about 20 ms).
CALIBRATION_SAMPLES = 3
# What the calibration loop takes on the reference host (a 2-core x86 VM in
# its fast state).  Segment times are scaled by this over the calibration
# measured around them.
REFERENCE_CALIBRATION_S = 0.006
SLOW_HOST_FACTOR = 1.3
# The tail percentile reported is the highest one with at least this many
# samples strictly above it.
TAIL_SAMPLES_BEYOND = 10


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (a host-speed probe).

    The loop stays within CPython's cached small integers, so it allocates
    nothing and its speed does not depend on the state of the process heap.
    """
    started = time.perf_counter()
    value = 1
    for _ in range(CALIBRATION_LOOPS):
        value = (value * 7 + 3) % 251
    elapsed = time.perf_counter() - started
    if value < 0:  # keeps the loop's result live
        raise AssertionError("unreachable")
    return elapsed


def host_speed() -> list[float]:
    """``CALIBRATION_SAMPLES`` calibrations in a row."""
    return [calibrate() for _ in range(CALIBRATION_SAMPLES)]


class SpeedClock:
    """Work time split into segments, each scaled to the reference host speed.

    The clock starts when it is made.  :meth:`split` closes the open segment,
    samples the calibration loop and opens the next one, so calibration time
    is never part of a segment.  Segment ``i`` is scaled by
    ``REFERENCE_CALIBRATION_S`` over the median of the samples taken at its
    two ends, which follows a host that changes speed between segments.
    """

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self.factors: list[float] = []
        self.samples: list[list[float]] = []
        self.calibration_s = 0.0
        self._sample()
        self._started = time.perf_counter()

    def _sample(self) -> None:
        started = time.perf_counter()
        self.samples.append(host_speed())
        self.calibration_s += time.perf_counter() - started

    def split(self) -> float:
        """Close the open segment and return its scaled seconds."""
        raw = time.perf_counter() - self._started
        self._sample()
        factor = REFERENCE_CALIBRATION_S / median(self.samples[-2] + self.samples[-1])
        self.raw_s.append(raw)
        self.factors.append(factor)
        self._started = time.perf_counter()
        return raw * factor

    def scaled(self, first: int, last: int | None = None) -> float:
        """Scaled seconds of segments ``first`` up to, not including, ``last``."""
        return sum(
            raw * factor
            for raw, factor in zip(self.raw_s[first:last], self.factors[first:last])
        )

    def slowed_down(self) -> bool:
        """Whether the host ran more than SLOW_HOST_FACTOR slower at the end."""
        return median(self.samples[-1]) > SLOW_HOST_FACTOR * median(self.samples[0])


def host_stamp() -> dict:
    """What the numbers were measured on: cores, load, interpreter, numpy."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, count)`` of the highest supported percentile.

    The percentile is the highest one with at least ``TAIL_SAMPLES_BEYOND``
    samples above it.  With too few samples for that rule the maximum is
    returned as the 100th percentile; the caller prints the count either way.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0, count
    index = count - TAIL_SAMPLES_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
