"""Whole-system accounting read from ``/proc``: memory, CPU and the host.

Memory and CPU are counted for the benchmark process *and* every process it
forks (ingest lanes, node workers), because moving work into a child must
not read as a saving.  ``psutil`` is deliberately not used: the tree is found
through ``/proc/<pid>/task/*/children``.
"""

from __future__ import annotations

import glob
import hashlib
import os
import time
from typing import Dict, List

MiB = 1 << 20
_TICKS = os.sysconf("SC_CLK_TCK")


def _status_kib(pid: "int | str", field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return 0
    return 0


def rss_bytes(pid: "int | str" = "self") -> int:
    return _status_kib(pid, "VmRSS") * 1024


def hwm_bytes(pid: "int | str" = "self") -> int:
    """Peak resident set (``VmHWM``) since start or the last reset."""
    return _status_kib(pid, "VmHWM") * 1024


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS (``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def children(pid: "int | str" = "self") -> List[int]:
    """Live direct children of ``pid``, from every thread's children list."""
    found: List[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                found.extend(int(token) for token in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(found))


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process (clock-tick resolution)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    # Fields after the command name start at state (field 3); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def reaped_children_cpu() -> float:
    """CPU of every child this process has waited for (``os.times``)."""
    times = os.times()
    return times.children_user + times.children_system


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except FileNotFoundError:
        pass
    return "unknown"


def probe_ms() -> float:
    """Median time of a fixed reference kernel: a Python loop plus SHA-1 of
    4 MiB.  A host-speed diagnostic only; never used to scale a metric."""
    block = bytes(range(256)) * (4 * MiB // 256)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        hashlib.sha1(block).digest()
        samples.append((time.perf_counter() - start) * 1e3)
    samples.sort()
    return samples[len(samples) // 2]


def host_record() -> Dict[str, object]:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }
