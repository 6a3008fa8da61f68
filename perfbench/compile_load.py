"""The compile-budget workload: one thread schedules generated blocks back to back.

Every schedule carries a ``finalize_partial`` budget policy (the paper's
timeout mechanism as a production compiler would run it).  Each (block,
machine) pair goes through ``repro.scheduler.create("vcs").schedule``, one
at a time.  Generating the next block and validating each output happen
inside the loop but outside the measured time, so no output has to be
kept: only the first ``MIN_OPS`` schedules, which the AWCT ratio is taken
over, are remembered, and memory does not grow with the number of
schedules a run gets through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.machine.presets import example_2cluster
from repro.scheduler import create
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.policy import SchedulePolicy
from repro.scheduler.schedule import ScheduleResult
from repro.scheduler.vcs import VcsConfig
from repro.workloads.kernels import paper_figure1_block

from perfbench.inputs import compile_items

#: Schedules every run completes, whatever its length: enough for ten
#: samples beyond p95, and the fixed prefix the AWCT ratio is taken over.
MIN_OPS = 420
#: The budget policy of every schedule.
BUDGET = SchedulePolicy(exhaustion_mode="finalize_partial", max_dp_work=20000)
CONFIG = VcsConfig(policy=BUDGET)


@dataclass
class CompileRun:
    """What one timed window did."""

    #: Measured time: the loop's wall time less input generation and
    #: output checks.
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    #: ``(start, end)`` of every schedule call, on ``time.perf_counter``.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: (block, machine, VCS total cycles) of each of the first ``MIN_OPS``
    #: schedules that produced a schedule.
    kept: List[Tuple[Superblock, ClusteredMachine, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies_s)


def check_output(result: ScheduleResult) -> List[str]:
    """Validate one output; a message if it failed."""
    if result.schedule is None:
        return [f"{result.block.name} on {result.machine.name}: no schedule"]
    report = validate_schedule(result.schedule)
    if not report.ok:
        return [f"{result.block.name} on {result.machine.name}: {report.errors[:3]}"]
    return []


def timed_window(
    items: Iterator[Tuple[Superblock, ClusteredMachine]],
    seconds: float,
    min_ops: int = MIN_OPS,
    max_ops: Optional[int] = None,
    before_op: Optional[Callable[[int], None]] = None,
) -> CompileRun:
    """Schedule *items* in order until *seconds* of measured time have
    passed and at least *min_ops* are done (or exactly *max_ops*, when
    given).  ``before_op(index)`` runs before each schedule, unmeasured.
    """
    run = CompileRun()
    clock = time.perf_counter
    start = clock()
    unmeasured = 0.0
    while True:
        if max_ops is not None:
            if run.ops >= max_ops:
                break
        elif run.ops >= min_ops and clock() - start - unmeasured >= seconds:
            break
        t_next = clock()
        block, machine = next(items)
        if before_op is not None:
            before_op(run.ops)
        t0 = clock()
        try:
            result = create("vcs", CONFIG).schedule(block, machine)
        except Exception as exc:  # A failed schedule is counted, not fatal.
            result = None
            run.failures.append(f"{block.name} on {machine.name}: {type(exc).__name__}: {exc}")
        t1 = clock()
        run.latencies_s.append(t1 - t0)
        run.intervals.append((t0, t1))
        if result is not None:
            run.failures += check_output(result)
            if run.ops <= MIN_OPS and result.schedule is not None:
                run.kept.append((block, machine, result.total_cycles))
        del result
        unmeasured += (t0 - t_next) + (clock() - t1)
    run.wall_s = clock() - start - unmeasured
    return run


def check_figure1() -> List[str]:
    """The paper's Fig. 1 block on the Section 5 machine: AWCT 9.4 with
    B0 (op 4) in cycle 5 and B1 (op 6) in cycle 7, derived by hand."""
    result = create("vcs").schedule(paper_figure1_block(), example_2cluster())
    if result.schedule is None:
        return ["figure 1: no schedule"]
    got = (round(result.awct, 6), result.schedule.cycles.get(4), result.schedule.cycles.get(6))
    if got != (9.4, 5, 7):
        return [f"figure 1: got (awct, B0, B1) = {got}, expected (9.4, 5, 7)"]
    return []


def awct_speedup(run: CompileRun) -> float:
    """Sum of CARS weighted cycles over sum of VCS weighted cycles on the
    first ``MIN_OPS`` schedules (the Fig. 11 metric; deterministic).
    Failed schedules are left out; the window counts them."""
    cars = create("cars")
    cars_cycles = sum(cars.schedule(block, machine).total_cycles for block, machine, _ in run.kept)
    vcs_cycles = sum(cycles for _, _, cycles in run.kept)
    return cars_cycles / vcs_cycles if vcs_cycles else 0.0


def run_untraced(seed: int, seconds: float) -> dict:
    """The end-to-end run: timed window, then the remaining checks."""
    run = timed_window(compile_items(seed), seconds)
    failures = run.failures + check_figure1()
    return {
        "run": run,
        "attempted": run.ops + 1,  # every schedule, plus the Fig. 1 check
        "failures": failures,
        "awct_speedup_vs_cars": awct_speedup(run),
    }
