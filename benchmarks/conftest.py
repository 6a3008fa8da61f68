"""Shared configuration of the benchmark harness.

Every benchmark reproduces one of the paper's evaluation artefacts (see
DESIGN.md, per-experiment index).  The scale of the synthetic workload is
controlled by two environment variables so the harness can be run quickly in
CI or at a larger scale for a closer look:

* ``REPRO_BENCH_BLOCKS`` — superblocks generated per benchmark (default 2);
* ``REPRO_BENCH_BUDGET`` — the large ("4-minute-equivalent") work budget for
  the proposed scheduler (default 60000 deduction rule firings).

All experiment drivers execute through the parallel batch runner
(``repro.runner``), so ``REPRO_JOBS=N`` shards every figure's block-level
scheduling across N worker processes; the results are byte-identical to
the serial default (``REPRO_JOBS=1``).
"""

import os
import sys

try:  # Installed package (pip install -e .) takes precedence.
    import repro  # noqa: F401
except ImportError:  # Fallback: make the src layout importable in place.
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import pytest

from repro.analysis import EffortThresholds
from repro.config import RuntimeConfig
from repro.runner import BatchScheduler


def bench_blocks() -> int:
    return RuntimeConfig.load().bench_blocks


def bench_budget() -> int:
    return RuntimeConfig.load().bench_budget


def bench_thresholds() -> EffortThresholds:
    """Work thresholds standing in for the paper's 1 s / 1 min / 4 min."""
    large = bench_budget()
    return EffortThresholds(small=max(large // 30, 500), medium=max(large // 4, 2000), large=large)


@pytest.fixture(scope="session")
def thresholds() -> EffortThresholds:
    return bench_thresholds()


@pytest.fixture(scope="session")
def runner() -> BatchScheduler:
    """The batch runner every figure shards its jobs through
    (worker count from ``REPRO_JOBS``, serial by default)."""
    return BatchScheduler()
