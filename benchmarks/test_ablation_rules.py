"""Ablations of the design choices DESIGN.md calls out.

The paper attributes its gains to three mechanisms: the deduction rules for
partially linked communications (Section 3.3.1), the postponement of the
VC-to-PC mapping until after scheduling (Section 3.2), and the maximum
weight matching used to eliminate out-edges globally (Section 4.4.1.2).  The
ablation benchmark schedules a media-leaning workload slice on the hardest
configuration (4 clusters, 2-cycle non-pipelined bus) with each mechanism
disabled in turn and reports the resulting speed-up over CARS.

Expected shape: the full configuration is at least as good as every ablated
one (small differences are possible because all variants share the CARS
fallback)."""

import pytest

from benchmarks.conftest import bench_blocks, bench_budget
from repro.analysis import format_table, geometric_mean
from repro.analysis.experiments import run_workload
from repro.machine import paper_4c_16i_2lat
from repro.scheduler import VcsConfig
from repro.scheduler.pipeline import EAGER_STAGE_ORDER
from repro.workloads import build_suite, profile_by_name

ABLATION_BENCHMARKS = ["mpeg2dec", "epicenc", "099.go"]


@pytest.fixture(scope="module")
def ablation_suite():
    profiles = [profile_by_name(name) for name in ABLATION_BENCHMARKS]
    return build_suite(profiles, blocks_per_benchmark=max(bench_blocks(), 2))


def _variants(budget):
    return {
        "full": VcsConfig(work_budget=budget),
        "A1 no PLC rules": VcsConfig(work_budget=budget, enable_plc=False),
        "A2 eager mapping": VcsConfig(work_budget=budget, stage_order=EAGER_STAGE_ORDER),
        "A3 no matching": VcsConfig(work_budget=budget, use_matching=False),
    }


def test_ablation_design_choices(benchmark, ablation_suite, runner):
    machine = paper_4c_16i_2lat()
    budget = max(bench_budget() // 2, 4000)
    outcome = {}

    def run():
        table = {}
        for label, config in _variants(budget).items():
            speedups = []
            fallbacks = 0
            blocks = 0
            for workload in ablation_suite:
                record = run_workload(workload, machine, vcs_config=config, runner=runner)
                comparison = record.comparison()
                speedups.append(comparison.speedup)
                fallbacks += sum(1 for b in comparison.blocks if b.proposed_fallback)
                blocks += comparison.n_blocks
            table[label] = (geometric_mean(speedups), fallbacks, blocks)
        outcome.update(table)
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [label, f"{mean:.4f}", f"{fallbacks}/{blocks}"]
        for label, (mean, fallbacks, blocks) in outcome.items()
    ]
    print("\n=== Ablations | 4clust 1b 2lat | geometric-mean speed-up over CARS ===")
    print(format_table(["configuration", "speed-up", "CARS fallbacks"], rows))

    full_mean = outcome["full"][0]
    assert full_mean >= 1.0
    for label, (mean, _, _) in outcome.items():
        assert mean >= 0.97, f"{label} regressed far below CARS"
    # The full configuration should not lose noticeably to any ablation.
    assert all(full_mean >= mean - 0.03 for label, (mean, _, _) in outcome.items())
