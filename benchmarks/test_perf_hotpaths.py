"""Micro-benchmarks of the deduction hot path.

Times:

* **trail probing** — apply-then-undo of a candidate decision, the
  scheduler's one way to probe, versus the copy-then-apply reference
  oracle (:meth:`DeductionProcess.check`);
* **full scheduler passes** over a seeded synthetic workload (scaled by
  ``REPRO_BENCH_BLOCKS``).

``scripts/bench_report.py`` aggregates the scheduler legs (plus a
baseline git revision) into ``BENCH_vcs.json`` for trend tracking.
"""

import pytest

from benchmarks.conftest import bench_blocks
from repro.deduction import DeductionProcess, SchedulingState
from repro.deduction.consequence import ScheduleInCycle, SetExitDeadlines
from repro.machine import paper_2c_8i_1lat
from repro.scheduler import VirtualClusterScheduler
from repro.sgraph import SchedulingGraph
from repro.workloads.synth import GeneratorConfig, SuperblockGenerator


@pytest.fixture(scope="module")
def probe_context():
    """A mid-size bounded state plus a decision worth probing."""
    gen = SuperblockGenerator(GeneratorConfig(min_ops=30, max_ops=40), seed=5)
    block = gen.generate("hotpath")
    machine = paper_2c_8i_1lat()
    sgraph = SchedulingGraph(block, machine)
    dp = DeductionProcess()
    state = SchedulingState(block, machine, sgraph)
    deadline = max(state.estart[e] for e in block.exit_ids) + 6
    result = dp.apply(
        state,
        SetExitDeadlines.from_mapping({e: deadline for e in block.exit_ids}),
        in_place=True,
    )
    assert result.ok
    op_id = next(i for i in block.op_ids if not state.is_fixed(i))
    return dp, state, ScheduleInCycle(op_id, state.estart[op_id])


def test_bench_probe_with_trail(benchmark, probe_context):
    """Apply-then-undo of one decision (the new hot path)."""
    dp, state, decision = probe_context

    def probe():
        mark = state.checkpoint()
        result = dp.apply(state, decision, in_place=True)
        state.rollback(mark)
        return result

    result = benchmark(probe)
    assert result.ok


def test_bench_probe_with_copy(benchmark, probe_context):
    """Deep-copy-then-apply of the same decision — the reference oracle
    the tests check in-place probing against, timed for comparison."""
    dp, state, decision = probe_context

    def probe():
        return dp.check(state, decision)

    result = benchmark(probe)
    assert result.ok


@pytest.fixture(scope="module")
def workload():
    gen = SuperblockGenerator(GeneratorConfig(min_ops=16, max_ops=32), seed=9)
    return gen.generate_many("perf", max(bench_blocks(), 1)), paper_2c_8i_1lat()


def test_bench_vcs_full_pass(benchmark, workload):
    """One full scheduling pass over the synthetic workload."""
    blocks, machine = workload

    def run():
        return [VirtualClusterScheduler().schedule(b, machine) for b in blocks]

    results = benchmark(run)
    assert all(r.ok for r in results)


def test_trail_avoids_every_copy(workload, monkeypatch):
    """The scheduler probes only in place: a full pass never copies a
    scheduling state."""
    blocks, machine = workload

    def no_copy(self):
        raise AssertionError("the scheduler copied a SchedulingState")

    monkeypatch.setattr(SchedulingState, "copy", no_copy)
    for block in blocks:
        result = VirtualClusterScheduler().schedule(block, machine)
        assert result.ok
        assert result.stats["probes"] > 0
