"""Small measurement helpers: percentiles and peak memory from ``/proc``."""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import List, Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (1..99), as ``statistics.quantiles`` cuts it."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _hwm_mb(status: Path) -> float:
    """``VmHWM`` (peak resident set) of one process, in MB."""
    try:
        text = status.read_text()
    except OSError:  # The process ended meanwhile.
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def self_hwm_mb() -> float:
    return _hwm_mb(Path("/proc/self/status"))


def child_pids() -> List[int]:
    """Live child processes of this process (for example pool workers)."""
    me = str(os.getpid())
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (after the parenthesised command name) is the parent pid.
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry.name))
    return pids


def children_hwm_mb() -> float:
    """Summed peak resident set of the live children.  ``RUSAGE_CHILDREN``
    only counts children that have been waited for, so live pool workers
    are read from ``/proc/<pid>/status`` instead."""
    return sum(_hwm_mb(Path(f"/proc/{pid}/status")) for pid in child_pids())
