"""Tests for the proposed virtual cluster scheduler."""

import pytest

from repro.bounds import min_awct
from repro.machine import (
    example_2cluster,
    paper_2c_8i_1lat,
    paper_4c_16i_1lat,
    paper_4c_16i_2lat,
    unified,
)
from repro.scheduler import CarsScheduler, VcsConfig, VirtualClusterScheduler, validate_schedule
from repro.scheduler.pipeline import EAGER_STAGE_ORDER
from repro.workloads import (
    dct_butterfly_kernel,
    dot_product_kernel,
    fir_kernel,
    paper_figure1_block,
    string_search_kernel,
)

from tests.helpers import linear_chain_block

# See test_cars.py: the reduced example machine cannot execute memory or
# floating-point operations, so the kernel sweep uses the paper machines.
MACHINES = [
    paper_2c_8i_1lat(),
    paper_4c_16i_1lat(),
    paper_4c_16i_2lat(),
]

KERNELS = [
    paper_figure1_block(),
    fir_kernel(taps=3),
    dot_product_kernel(width=3),
    dct_butterfly_kernel(),
    string_search_kernel(),
]


class TestVcsBasics:
    def test_result_metadata(self):
        result = VirtualClusterScheduler().schedule(paper_figure1_block(), example_2cluster())
        assert result.scheduler == "VCS"
        assert result.ok
        assert result.work > 0
        assert result.awct_target_steps >= 1

    def test_schedules_every_operation(self):
        block = paper_figure1_block()
        result = VirtualClusterScheduler().schedule(block, paper_2c_8i_1lat())
        assert set(result.schedule.cycles) == set(block.op_ids)

    def test_respects_awct_lower_bound(self):
        for block in KERNELS:
            for machine in MACHINES:
                result = VirtualClusterScheduler().schedule(block, machine)
                assert result.awct >= min_awct(block, machine) - 1e-9

    def test_chain_block_is_trivially_optimal(self):
        block = linear_chain_block(length=4, latency=2)
        result = VirtualClusterScheduler().schedule(block, paper_4c_16i_1lat())
        assert result.awct == pytest.approx(min_awct(block))
        assert result.schedule.n_communications == 0
        assert not result.fallback_used

    def test_single_cluster_machine(self):
        block = dot_product_kernel(width=3)
        result = VirtualClusterScheduler().schedule(block, unified())
        assert validate_schedule(result.schedule).ok
        assert result.schedule.n_communications == 0


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("block", KERNELS, ids=lambda b: b.name)
class TestVcsValidity:
    def test_schedules_are_valid(self, block, machine):
        result = VirtualClusterScheduler().schedule(block, machine)
        report = validate_schedule(result.schedule)
        assert report.ok, report.errors


class TestVcsQuality:
    def test_never_worse_than_cars_on_kernels(self):
        """With the CARS fallback the technique is never worse than the
        baseline on the hand-written kernels; on most it is strictly
        better somewhere."""
        strictly_better = 0
        for machine in MACHINES:
            for block in KERNELS:
                cars = CarsScheduler().schedule(block, machine)
                vcs = VirtualClusterScheduler().schedule(block, machine)
                assert vcs.awct <= cars.awct + 1e-9 or vcs.fallback_used
                if vcs.awct < cars.awct - 1e-9:
                    strictly_better += 1
        assert strictly_better >= 3

    def test_paper_example_beats_cars(self):
        """Section 5: the proposed technique schedules the running example
        at AWCT 9.4 on the 2-cluster example machine; CARS stays at 9.8."""
        block = paper_figure1_block()
        machine = example_2cluster()
        cars = CarsScheduler().schedule(block, machine)
        vcs = VirtualClusterScheduler().schedule(block, machine)
        assert vcs.awct == pytest.approx(9.4, abs=1e-6)
        assert cars.awct == pytest.approx(9.8, abs=1e-6)
        assert not vcs.fallback_used

    def test_paper_example_needs_second_awct_target(self):
        """The first target (AWCT 9.1) is proven infeasible and the second
        (9.4) succeeds, mirroring the paper's walk-through."""
        result = VirtualClusterScheduler().schedule(paper_figure1_block(), example_2cluster())
        assert result.awct_target_steps == 2


class TestVcsConfigurations:
    def test_work_budget_triggers_cars_fallback(self):
        config = VcsConfig(work_budget=10)
        result = VirtualClusterScheduler(config).schedule(
            paper_figure1_block(), example_2cluster()
        )
        assert result.fallback_used
        assert result.timed_out
        assert validate_schedule(result.schedule).ok

    def test_no_fallback_returns_empty_schedule(self):
        config = VcsConfig(work_budget=10, fallback_to_cars=False)
        result = VirtualClusterScheduler(config).schedule(
            paper_figure1_block(), example_2cluster()
        )
        assert not result.ok
        assert result.timed_out

    def test_time_limit_respected(self):
        config = VcsConfig(time_limit=0.0)
        result = VirtualClusterScheduler(config).schedule(
            paper_figure1_block(), example_2cluster()
        )
        assert result.fallback_used

    def test_plc_ablation_still_valid(self):
        config = VcsConfig(enable_plc=False)
        for machine in (example_2cluster(), paper_4c_16i_2lat()):
            result = VirtualClusterScheduler(config).schedule(paper_figure1_block(), machine)
            assert validate_schedule(result.schedule).ok

    def test_eager_mapping_ablation_still_valid(self):
        config = VcsConfig(stage_order=EAGER_STAGE_ORDER)
        result = VirtualClusterScheduler(config).schedule(
            dct_butterfly_kernel(), paper_2c_8i_1lat()
        )
        assert validate_schedule(result.schedule).ok

    def test_matching_ablation_still_valid(self):
        config = VcsConfig(use_matching=False)
        result = VirtualClusterScheduler(config).schedule(
            dct_butterfly_kernel(), paper_4c_16i_1lat()
        )
        assert validate_schedule(result.schedule).ok

    def test_stage1_slack_limit_configurable(self):
        config = VcsConfig(stage1_slack_limit=0.0)
        result = VirtualClusterScheduler(config).schedule(
            paper_figure1_block(), example_2cluster()
        )
        assert validate_schedule(result.schedule).ok

    def test_deterministic(self):
        block = string_search_kernel()
        machine = paper_4c_16i_1lat()
        first = VirtualClusterScheduler().schedule(block, machine)
        second = VirtualClusterScheduler().schedule(block, machine)
        assert first.awct == second.awct
        assert first.schedule.cycles == second.schedule.cycles
        assert first.schedule.clusters == second.schedule.clusters
