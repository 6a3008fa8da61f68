"""The fix-cycles fast path: the optimistic early cut of a probe round.

``VcsConfig.probe_early_cut`` stops probing a cycle-pinning round once an
optimistic score bound proves no remaining candidate cycle can beat the
current ``(score, cycle)`` winner.  A Hypothesis property on random
superblocks asserts its byte-level contract: the exact same schedules as
the default configuration, with at most the default's work.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import paper_2c_8i_1lat
from repro.scheduler import VcsConfig, VirtualClusterScheduler
from repro.workloads import GeneratorConfig, SuperblockGenerator


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


@given(seed=st.integers(0, 10_000), size=st.integers(5, 12), ilp=st.floats(1.5, 4.0))
@settings(max_examples=8, deadline=None)
def test_early_cut_keeps_schedules(seed, size, ilp):
    """The opt-in early cut reproduces the default schedule exactly — same
    (score, cycle) winners everywhere — while only ever skipping work."""
    block = _random_block(seed, size, ilp)
    machine = paper_2c_8i_1lat()
    fast = VirtualClusterScheduler(VcsConfig(probe_early_cut=True)).schedule(block, machine)
    oracle = VirtualClusterScheduler(VcsConfig()).schedule(block, machine)
    assert _fingerprint(fast) == _fingerprint(oracle)
    assert fast.work <= oracle.work
