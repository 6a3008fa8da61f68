"""Integration tests reproducing the paper's worked example (Sections 2-5).

These tests pin down the numbers the paper states explicitly for the Figure 1
superblock: the AWCT formula value, the scheduling-graph structure of Figure
4, the deductions of Section 5 (B1 cannot sit in cycle 6; the forced fusion
of I0/I3/B0; the failure of the 9.1 target and the success of 9.4) and the
final schedule quality relative to a list scheduler.
"""

import pytest

from repro.bounds import ExitBoundEnumerator, awct, min_awct
from repro.deduction import DeductionProcess, SchedulingState, SetExitDeadlines
from repro.machine import example_1cluster_fig4, example_2cluster
from repro.scheduler import CarsScheduler, VirtualClusterScheduler, validate_schedule
from repro.sgraph import SchedulingGraph
from repro.workloads import paper_figure1_block

I0, I1, I2, I3, B0, I4, B1 = range(7)


@pytest.fixture()
def block():
    return paper_figure1_block()


class TestSection2Awct:
    def test_awct_formula(self, block):
        """Section 2.2: B0 in cycle 4 and B1 in cycle 6 give AWCT 8.4."""
        assert awct(block, {B0: 4, B1: 6}) == pytest.approx(8.4)

    def test_min_awct_unclustered(self, block):
        assert min_awct(block) == pytest.approx(8.4)

    def test_exit_probabilities(self, block):
        assert block.exit_probability(B0) == pytest.approx(0.3)
        assert block.exit_probability(B1) == pytest.approx(0.7)


class TestSection3SchedulingGraph:
    def test_figure4_bounds(self, block):
        """Figure 4 annotates estarts 0/2/2/2/4/4/6 for I0..B1."""
        from repro.bounds import compute_estart

        estart = compute_estart(block.graph)
        assert [estart[i] for i in range(7)] == [0, 2, 2, 2, 4, 4, 6]

    def test_figure4_edges(self, block):
        """The SG has an edge between the two branches and between any pair
        not ordered by dependences; I4 has no edge with its producers."""
        sg = SchedulingGraph(block, example_1cluster_fig4())
        assert sg.has_edge(B0, B1)
        assert not sg.has_edge(I1, I4)
        assert not sg.has_edge(I0, I1)
        assert sg.has_edge(I1, I2)

    def test_branch_pair_has_no_same_cycle_combination(self, block):
        sg = SchedulingGraph(block, example_1cluster_fig4())
        distances = [c.distance for c in sg.combinations(B0, B1)]
        assert 0 not in distances


class TestSection5Deductions:
    def test_b1_cannot_sit_in_cycle_6(self, block):
        machine = example_2cluster()
        state = SchedulingState(block, machine, SchedulingGraph(block, machine))
        result = DeductionProcess().apply(state, SetExitDeadlines.from_mapping({B0: 4, B1: 6}))
        assert not result.ok

    def test_forced_virtual_cluster_of_i0_i3_b0(self, block):
        """Figure 9.c: at deadlines (4, 7), I0, I3 and B0 share a virtual
        cluster because no copy fits between them."""
        machine = example_2cluster()
        state = SchedulingState(block, machine, SchedulingGraph(block, machine))
        result = DeductionProcess().apply(state, SetExitDeadlines.from_mapping({B0: 4, B1: 7}))
        assert result.ok
        assert result.state.same_vc(I0, I3)
        assert result.state.same_vc(I3, B0)

    def test_first_two_targets_match_paper(self, block):
        """The enhanced minAWCT probes make the first target 9.1 (B0@4,
        B1@7) and the second 9.4 (B0@5, B1@7), as in the paper."""
        machine = example_2cluster()
        scheduler = VirtualClusterScheduler()
        dp = DeductionProcess()
        from repro.deduction import WorkBudget
        from repro.scheduler.pipeline import ProbeEngine, StageContext

        ctx = StageContext(
            dp=dp,
            budget=WorkBudget(None),
            config=scheduler.config,
            engine=ProbeEngine(),
        )
        state = SchedulingState(block, machine, SchedulingGraph(block, machine))
        tightened = scheduler._tighten_exit_bounds(block, machine, ctx, state, state.checkpoint())
        enumerator = ExitBoundEnumerator(block, machine, initial_cycles=tightened)
        targets = enumerator.targets(2)
        assert targets[0].exit_cycles == {B0: 4, B1: 7}
        assert targets[0].awct == pytest.approx(9.1)
        assert targets[1].exit_cycles == {B0: 5, B1: 7}
        assert targets[1].awct == pytest.approx(9.4)


class TestSection5FinalSchedule:
    def test_vcs_schedule_matches_paper_quality(self, block):
        machine = example_2cluster()
        result = VirtualClusterScheduler().schedule(block, machine)
        assert result.awct == pytest.approx(9.4)
        assert validate_schedule(result.schedule).ok
        # Figure 9.d places B0 in cycle 5 and B1 in cycle 7.
        assert result.schedule.cycles[B0] == 5
        assert result.schedule.cycles[B1] == 7
        # One value crosses clusters, as in the example's single "com".
        assert result.schedule.n_communications >= 1

    def test_workload_is_split_across_clusters(self, block):
        machine = example_2cluster()
        result = VirtualClusterScheduler().schedule(block, machine)
        load = result.schedule.cluster_load()
        assert load[0] > 0 and load[1] > 0

    def test_list_scheduling_baseline_is_slower(self, block):
        machine = example_2cluster()
        cars = CarsScheduler().schedule(block, machine)
        vcs = VirtualClusterScheduler().schedule(block, machine)
        assert vcs.awct < cars.awct
