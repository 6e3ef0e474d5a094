"""Small measurement helpers: the percentile rule, memory and the
environment record that travels with every result."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from typing import Optional, Sequence

#: a reported percentile must leave at least this many samples above it
MIN_SAMPLES_BEYOND = 10

#: iterations of the fixed pure-Python calibration loop
CALIBRATION_ITERATIONS = 1_000_000


def percentile(samples: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``samples`` and the number of
    samples strictly above it.

    The rank is ``ceil(q/100 * n)`` (1-based), so the value is always one
    of the samples.  Raises ``ValueError`` on an empty sample or a ``q``
    outside (0, 100].
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(samples)
    value = ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
    beyond = sum(1 for sample in ordered if sample > value)
    return value, beyond


def supported(beyond: int) -> bool:
    """True when a percentile leaves enough samples above it to be reported."""
    return beyond >= MIN_SAMPLES_BEYOND


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0 * 1024.0)


def pin_to_one_cpu() -> Optional[int]:
    """Restrict this process, and every thread and child it starts, to one
    of the CPUs it may use; returns that CPU, or None where the platform
    has no affinity call.

    The workloads hold the interpreter lock for almost all their work, so a
    second CPU adds little but cross-CPU thread wake-ups.  On a small
    virtual machine those wake-ups wait whenever the hypervisor has taken
    the other CPU, which tripled warm_zipf's p95 in noisy periods.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_ticks() -> Optional[tuple[int, int]]:
    """(steal, total) CPU ticks since boot from ``/proc/stat``, or None
    where the file does not exist."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_pct(before, after) -> Optional[float]:
    """Share of CPU time the hypervisor took between two ``cpu_ticks``."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def calibration_ms() -> float:
    """Best-of-three time of a fixed pure-Python loop, in ms.

    The loop's work never changes, so its time is a measure of the machine
    (and of the load on it), which lets results from different hosts be
    told apart.  It is recorded, never gated.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def environment() -> dict:
    """The machine facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "cpu_pinned": pin_to_one_cpu(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg_1m_at_start": round(os.getloadavg()[0], 2),
        "calibration_ms": round(calibration_ms(), 3),
    }
