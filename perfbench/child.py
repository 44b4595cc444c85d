"""Time one child process at a time, in wall seconds and in reference seconds.

The host this benchmark was written on runs each CPU at one of two speeds,
switching every few tenths of a second to a few seconds, and the slow speed
costs 1.7 to 1.9 times the fast one.  CPU time tracks wall time in both states,
so neither clock removes the noise, and a median over a run does not either
when a whole run falls into slow phases.

While a child runs, the driver wakes every ``PROBE_PERIOD_S`` on the same
CPU and runs a fixed piece of exact rational arithmetic (the probe), timed
by its own thread CPU time.  Each slice of the child's wall time is scaled
by ``PROBE_REF_S / probe time`` for the probe that follows it.  The sum,
``ref_s``, is the time the child would have taken had the CPU run at the
speed where the probe costs ``PROBE_REF_S`` (the fast state of the host
above).  The probes' own wall time is left out of ``ref_s``.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

PROBE_TERMS = 25
PROBE_PERIOD_S = 0.01
# Chosen so that ref_s roughly matches the wall time of a CLI report while
# the host the benchmark was tuned on (an Intel Xeon vCPU, 2 vCPUs,
# CPython 3.11.7) runs at its fast speed.
PROBE_REF_S = 1.5e-4


def probe_cpu_s() -> float:
    """Thread CPU seconds spent on a fixed amount of Fraction arithmetic."""
    start = time.thread_time()
    for i in range(1, PROBE_TERMS + 1):
        Fraction(i % 97, i % 89 + 1) - Fraction(i % 13, 7) * Fraction(5, i % 11 + 1)
    return time.thread_time() - start


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU, so that
    the probe measures the speed of the CPU the child runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float  # spawn to exit, probes included
    ref_s: float  # spawn to exit in reference seconds, probes excluded
    maxrss_mb: float


def run_child(argv: Sequence[str], env: Mapping[str, str],
              stderr_path: Optional[str] = None) -> ChildRun:
    """Run ``argv`` to completion and time it; stdout is discarded."""
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=dict(env), stdout=subprocess.DEVNULL,
                                stderr=err)
    finally:
        if stderr_path:
            err.close()
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        ref_s = 0.0
        slice_start = start
        while not poller.poll(PROBE_PERIOD_S * 1000):
            probe_start = time.perf_counter()
            ref_s += (probe_start - slice_start) * PROBE_REF_S / probe_cpu_s()
            slice_start = time.perf_counter()
        end = time.perf_counter()
        ref_s += (end - slice_start) * PROBE_REF_S / probe_cpu_s()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, end - start, ref_s, usage.ru_maxrss / 1024.0)
