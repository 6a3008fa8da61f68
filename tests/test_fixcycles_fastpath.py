"""The fix-cycles early cut keeps every winner.

A cycle-pinning round stops probing once
:func:`repro.scheduler.pipeline.floor_rules_out` proves that no remaining
candidate cycle can beat the current ``(score, cycle)`` winner.  The
oracle here is the full probe: the same scheduler with that helper patched
to never cut.  On random superblocks, through both VCS-derived backends,
the cut must reproduce the oracle's schedules exactly while only ever
skipping work.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import paper_2c_8i_1lat
from repro.scheduler import create, pipeline
from repro.workloads import GeneratorConfig, SuperblockGenerator, fir_kernel


def _random_block(seed: int, size: int, ilp: float):
    config = GeneratorConfig(min_ops=size, max_ops=size, ilp=ilp, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"fastpath/{seed}")


def _fingerprint(result):
    schedule = result.schedule
    if schedule is None:
        body = None
    else:
        body = (
            sorted(schedule.cycles.items()),
            sorted(schedule.clusters.items()),
            [
                (c.value, c.producer, c.cycle, c.src_cluster, c.dst_cluster)
                for c in schedule.comms
            ],
        )
    return (result.awct_target_steps, result.fallback_used, body)


def _full_probe(backend, block, machine):
    """The oracle: *backend* with the early cut disabled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "floor_rules_out", lambda floor, best_score: False)
        return create(backend).schedule(block, machine)


@given(seed=st.integers(0, 10_000), size=st.integers(5, 12), ilp=st.floats(1.5, 4.0))
@settings(max_examples=8, deadline=None)
def test_early_cut_keeps_schedules(seed, size, ilp):
    """Same (score, cycle) winners everywhere, at most the oracle's work."""
    block = _random_block(seed, size, ilp)
    machine = paper_2c_8i_1lat()
    for backend in ("vcs", "hybrid"):
        cut = create(backend).schedule(block, machine)
        oracle = _full_probe(backend, block, machine)
        assert _fingerprint(cut) == _fingerprint(oracle), backend
        assert cut.work <= oracle.work, backend


def test_early_cut_skips_probes():
    """The cut fires on a real kernel, and the oracle never cuts."""
    block, machine = fir_kernel(taps=3), paper_2c_8i_1lat()
    cut = create("vcs").schedule(block, machine)
    oracle = _full_probe("vcs", block, machine)
    assert cut.stats["early_cut_skips"] > 0
    assert oracle.stats["early_cut_skips"] == 0
    assert cut.stats["probes"] + cut.stats["early_cut_skips"] == oracle.stats["probes"]
    assert cut.work < oracle.work
