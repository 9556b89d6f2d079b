"""Machine fingerprint, speed probe, speed meter and peak memory.

A host-time figure means little without the machine it came from: the
same cold ladder pass has measured 3.4 s and 6.9 s on one shared
2-vCPU host twenty minutes apart. Every result therefore carries the
CPU model and count, the Python and NumPy versions, and the wall time
of a fixed pure-Python reference loop, so a slower machine can be told
from a regression. That probe is a reference figure, never a metric.

The same loop, sampled on a timer through a measured interval
(:class:`SpeedMeter`), gives the host's speed during that interval;
host-time metrics are scaled by it to reference seconds.
"""

from __future__ import annotations

import bisect
import os
import platform
import resource
import signal
import statistics
import sys
import time

PROBE_ITERATIONS = 100_000
"""Iterations of the reference loop (about 40 ms on a 2-vCPU Xeon VM)."""
PROBE_REPEATS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _reference_loop(iterations: int) -> int:
    # Integer arithmetic, a dict and a list: the interpreter work the
    # simulator's per-command solver is made of.
    acc = 0
    table = {}
    items = []
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        items.append(acc & 7)
        if len(items) > 64:
            items.clear()
    return acc + len(table)


class SpeedMeter:
    """Samples the host's speed through a measured interval.

    Every ``SAMPLE_INTERVAL_S`` a ``SIGALRM`` handler runs the reference
    loop for ``SAMPLE_ITERATIONS`` and records how long it took. The
    samples are evenly spaced in time, so the mean of ``REFERENCE_SAMPLE_S
    / sample`` is the interval's average speed relative to a reference
    host on which the loop takes exactly ``REFERENCE_SAMPLE_S``.
    """

    SAMPLE_INTERVAL_S = 0.02
    SAMPLE_ITERATIONS = 2_000
    REFERENCE_SAMPLE_S = 0.0004

    def __init__(self):
        self.starts = []
        self.samples = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_loop(self.SAMPLE_ITERATIONS)
        self.samples.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> list:
        """Samples taken in ``[start, end)``, else the last one before it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if lo == hi:
            lo = max(lo - 1, 0)
            hi = lo + 1
        return self.samples[lo:hi]

    def speed(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean speed relative to the reference host over ``[start, end)``
        (1.0 without samples)."""
        window = self._window(start, end)
        if not window:
            return 1.0
        return statistics.fmean(self.REFERENCE_SAMPLE_S / s for s in window)

    def sampling_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Seconds the samples in ``[start, end)`` took (to leave out of it)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.samples[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """``[start, end)`` in reference seconds."""
        return (end - start - self.sampling_s(start, end)) * self.speed(start, end)


def speed_probe_ms() -> float:
    """Median wall time of the fixed reference loop, in milliseconds."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _reference_loop(PROBE_ITERATIONS)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def fingerprint() -> dict:
    """What a reader needs to place a host-time figure."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
