"""The proposed technique: virtual cluster scheduling through the scheduling
graph (Section 4 of the paper).

The driver iterates over target AWCT values from an enhanced lower bound
upwards; for each target it initialises a scheduling state through the
deduction process and runs the paper's six decision stages — now a
composable :class:`~repro.scheduler.pipeline.StagePipeline` of independent
:class:`~repro.scheduler.pipeline.DecisionStage` objects (combinations,
fix-cycles, eliminate-outedges, final-mapping, fix-communications,
extraction) sharing a :class:`~repro.scheduler.pipeline.StageContext`.
The stage order is configuration (``VcsConfig.stage_order``), with the
paper's order as the default and the A2 eager-mapping ablation as a
reordering rather than a separate code path.

Whenever the deduction process proves that a candidate can neither be chosen
nor discarded, the target AWCT is abandoned and the next one is tried.  A
work budget (the compile-time proxy) or wall-clock limit aborts the whole
attempt, in which case the scheduler falls back to its ``fallback`` backend
for the block — CARS by default, exactly the paper's threshold mechanism,
but expressed as backend composition (any registered scheduler backend can
stand in).

Hot-path design
---------------
Candidate decisions are *probed in place* using the scheduling state's
mutation trail: a probe checkpoints the state, applies the decision
through the deduction process, records the resulting score, and rolls the
state back while capturing a redo log.  When one of several scored
candidates wins, its captured mutations are redone on the live state
without re-running its deduction or re-charging the work budget.  A
single pristine state is built per block and rolled back between AWCT
targets and minAWCT probes, so the global estart computation runs once and
bound deltas propagate only from changed nodes.  The probing primitives
live in :class:`~repro.scheduler.pipeline.ProbeEngine`, shared by all
stages; :meth:`SchedulingState.copy` and :meth:`DeductionProcess.check`
remain as the reference oracle the tests compare in-place probing against.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bounds.awct import min_exit_cycles
from repro.bounds.enumeration import ExitBoundEnumerator, ExitBoundStep
from repro.deduction.consequence import SetExitDeadlines
from repro.deduction.engine import BudgetExhausted, DeductionProcess, WorkBudget
from repro.deduction.rules import default_rules
from repro.deduction.state import SchedulingState
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.scheduler.correctness import validate_schedule
from repro.scheduler.pipeline import (
    ProbeEngine,
    StageContext,
    StagePipeline,
    new_probe_stats,
)
from repro.scheduler.policy import PolicyTracker, SchedulePolicy, cheap_extraction
from repro.scheduler.schedule import Schedule, ScheduleResult
from repro.sgraph.scheduling_graph import SchedulingGraph

#: ``VcsConfig`` fields coerced from strings by :meth:`VcsConfig.from_dict`
#: (environment overrides arrive as text).
_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


@dataclass
class VcsConfig:
    """Tunable knobs of the proposed scheduler.

    The defaults correspond to the configuration used for the main results;
    the ablation benchmarks flip individual flags.  The whole object is
    picklable — it travels inside :class:`repro.runner.ScheduleJob` to
    worker processes — and round-trips through :meth:`to_dict` /
    :meth:`from_dict` (the JSON/CLI/environment configuration surface).
    """

    #: Deterministic compile-effort limit (deduction rule firings); None = unlimited.
    work_budget: Optional[int] = None
    #: Wall-clock limit in seconds; None = unlimited.
    time_limit: Optional[float] = None
    #: Maximum number of AWCT targets tried before giving up.
    max_awct_steps: int = 48
    #: Stage 1 only studies pairs whose combination slack is at most this
    #: value (pairs forced to overlap are always studied); the remaining
    #: pairs are decided implicitly by the cycle-pinning stage.  The default
    #: of -1 restricts stage 1 to pairs that are forced to overlap: electing
    #: to rigidly link two operations that could also be kept apart turned
    #: out to over-constrain the schedule more often than it helped.
    stage1_slack_limit: float = -1.0
    #: Hard cap on stage-1 decisions per AWCT target.
    stage1_max_decisions: int = 64
    #: Number of cycles studied per operation in stages 2 and 6.
    cycle_candidates: int = 2
    #: Enable the partially-linked-communication rules (ablation A1).
    enable_plc: bool = True
    #: Use the maximum weight matching in stage 3 (ablation A3); when off,
    #: out-edges are eliminated one highest-weight pair at a time.
    use_matching: bool = True
    #: Fall back to the fallback backend (CARS by default) when the budget
    #: is exhausted — the paper's timeout mechanism.  When False the
    #: scheduler returns a schedule-less result instead.
    fallback_to_cars: bool = True
    #: Explicit decision-stage order (names from
    #: :func:`repro.scheduler.pipeline.available_stages`); None selects the
    #: paper's order.  Ablation A2 (map virtual clusters eagerly after
    #: stage 1) is :data:`~repro.scheduler.pipeline.EAGER_STAGE_ORDER`.
    stage_order: Optional[Tuple[str, ...]] = None
    #: Per-operation cycle hints ``((op_id, cycle), ...)`` biasing the
    #: cycle-candidate windows of stage 2 — the hybrid backend seeds these
    #: from a CARS pre-pass.  A tuple of pairs so the config stays
    #: picklable and comparable.
    cycle_hints: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Budget policy (:class:`~repro.scheduler.policy.SchedulePolicy`):
    #: limits on dp_work/wall/probes with status tiers, graceful
    #: degradation on exhaustion (``finalize_partial``) and leftover-budget
    #: refinement.  ``None`` (the default) is fail-equivalent and leaves
    #: every code path byte-identical to the policy-free scheduler.
    #: Environment form (``REPRO_VCS_POLICY``):
    #: ``"mode=finalize_partial,max_dp_work=20000"``.
    policy: Optional[SchedulePolicy] = None

    # ------------------------------------------------------------------ #
    # serialisation (CLI / JSON / environment configuration surface)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-serialisable description (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        if out["stage_order"] is not None:
            out["stage_order"] = list(out["stage_order"])
        if out["cycle_hints"] is not None:
            out["cycle_hints"] = [list(pair) for pair in out["cycle_hints"]]
        # asdict already recursed into the nested SchedulePolicy dataclass.
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "VcsConfig":
        """Build a config from a mapping, coercing string values (JSON or
        environment sources); unknown keys are rejected."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(
                f"unknown VcsConfig keys {sorted(unknown)}; known: {sorted(fields)}"
            )
        kwargs = {}
        for key, value in data.items():
            kwargs[key] = cls._coerce(key, value)
        return cls(**kwargs)

    @staticmethod
    def _coerce(key: str, value):
        if value is None:
            return None
        if key == "policy":
            if isinstance(value, SchedulePolicy):
                return value
            if isinstance(value, str):
                # Environment/CLI form: "mode=...,max_dp_work=...".
                return SchedulePolicy.parse(value)
            if isinstance(value, Mapping):
                return SchedulePolicy.from_dict(value)
            raise ValueError(f"invalid policy {value!r} for VcsConfig.policy")
        if key == "stage_order":
            # Environment/CLI sources deliver a comma-separated string.
            if isinstance(value, str):
                value = [name.strip() for name in value.split(",") if name.strip()]
            return tuple(str(name) for name in value)
        if key == "cycle_hints":
            # String form: "op:cycle,op:cycle".
            if isinstance(value, str):
                value = [pair.split(":") for pair in value.split(",") if pair.strip()]
            return tuple((int(op), int(cycle)) for op, cycle in value)
        if key in ("work_budget", "max_awct_steps", "stage1_max_decisions", "cycle_candidates"):
            try:
                return int(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid integer {value!r} for VcsConfig.{key}") from None
        if key in ("time_limit", "stage1_slack_limit"):
            try:
                return float(value)
            except (TypeError, ValueError):
                raise ValueError(f"invalid number {value!r} for VcsConfig.{key}") from None
        # Booleans: accept real bools and the usual textual spellings.
        if isinstance(value, str):
            text = value.strip().lower()
            if text in _BOOL_TRUE:
                return True
            if text in _BOOL_FALSE:
                return False
            raise ValueError(f"invalid boolean {value!r} for VcsConfig.{key}")
        return bool(value)

    def hints_mapping(self) -> Dict[int, int]:
        """The cycle hints as a dict (empty when unset)."""
        return dict(self.cycle_hints or ())


class VirtualClusterScheduler:
    """Scheduler implementing the paper's technique.

    Parameters
    ----------
    config:
        The :class:`VcsConfig` knobs; defaults to the main-results
        configuration.
    fallback:
        The scheduler backend used when the work budget or wall-clock
        limit is exhausted (``config.fallback_to_cars``).  Any object with
        a ``schedule(block, machine) -> ScheduleResult`` method works —
        the registry composes the default CARS baseline in, and tests can
        substitute other backends.  ``None`` builds a
        :class:`~repro.scheduler.cars.CarsScheduler` lazily.
    """

    name = "VCS"

    def __init__(self, config: Optional[VcsConfig] = None, fallback=None) -> None:
        self.config = config or VcsConfig()
        self._fallback = fallback
        self._pipeline = StagePipeline.from_config(self.config)
        #: Probe counters of the most recent :meth:`schedule` call.
        self.stats: Dict[str, int] = new_probe_stats()
        #: Per-stage call counts and wall times of the most recent call.
        self.stage_timings: Dict[str, Dict[str, float]] = {}

    @property
    def stage_order(self) -> Tuple[str, ...]:
        """The effective decision-stage order of this scheduler."""
        return self._pipeline.stage_names

    def _fallback_backend(self):
        if self._fallback is None:
            from repro.scheduler.cars import CarsScheduler

            self._fallback = CarsScheduler()
        return self._fallback

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def schedule(self, block: Superblock, machine: ClusteredMachine) -> ScheduleResult:
        """Schedule *block* on *machine*; never returns without a schedule
        (falls back to the fallback backend on budget exhaustion unless
        configured not to)."""
        start = time.perf_counter()
        self.stats = new_probe_stats()
        engine = ProbeEngine(self.stats)
        dp = DeductionProcess(rules=default_rules(enable_plc=self.config.enable_plc))
        budget = WorkBudget(self.config.work_budget)
        policy = self.config.policy
        tracker: Optional[PolicyTracker] = None
        if policy is not None:
            tracker = PolicyTracker(policy, budget, started=start)
            tracker.attach(budget)
            engine.tracker = tracker
        wall_limits = [
            limit
            for limit in (self.config.time_limit, policy.max_wall_s if policy else None)
            if limit is not None
        ]
        if wall_limits:
            engine.deadline = start + min(wall_limits)
        sgraph = SchedulingGraph(block, machine)
        ctx = StageContext(
            dp=dp,
            budget=budget,
            config=self.config,
            engine=engine,
            cycle_hints=self.config.hints_mapping(),
            tracker=tracker,
        )
        self.stage_timings = ctx.timings

        # One pristine state serves every minAWCT probe and AWCT target
        # (rolled back in between).
        state = SchedulingState(block, machine, sgraph)
        pristine = state.checkpoint()

        steps_tried = 0
        timed_out = False
        try:
            initial = self._tighten_exit_bounds(block, machine, ctx, state, pristine)
            enumerator = ExitBoundEnumerator(block, machine, initial_cycles=initial)
            for target in enumerator:
                steps_tried += 1
                if steps_tried > self.config.max_awct_steps:
                    break
                engine.check_time()
                engine.rollback(state, pristine)
                if not self._try_target(ctx, state, target) or ctx.schedule is None:
                    continue
                result = ScheduleResult(
                    scheduler=self.name,
                    block=block,
                    machine=machine,
                    schedule=ctx.schedule,
                    work=budget.spent,
                    wall_time=time.perf_counter() - start,
                    awct_target_steps=steps_tried,
                    stats=self._result_stats(dp),
                    stage_timings={k: dict(v) for k, v in ctx.timings.items()},
                )
                if tracker is not None:
                    self._refine(block, result, budget, tracker)
                    result.policy = tracker.summary(partial=False, source="vcs")
                    result.wall_time = time.perf_counter() - start
                return result
        except BudgetExhausted as exc:
            timed_out = True
            if tracker is not None:
                tracker.mark_exhausted(str(exc))

        if tracker is not None and timed_out and tracker.policy.finalizes_partial:
            return self._finalize_partial(
                block, machine, state, budget, tracker, steps_tried, dp, ctx, start
            )

        if not self.config.fallback_to_cars:
            result = ScheduleResult(
                scheduler=self.name,
                block=block,
                machine=machine,
                schedule=None,
                work=budget.spent,
                wall_time=time.perf_counter() - start,
                timed_out=timed_out,
                awct_target_steps=steps_tried,
                stats=self._result_stats(dp),
                stage_timings={k: dict(v) for k, v in ctx.timings.items()},
            )
            if tracker is not None:
                result.policy = tracker.summary(partial=False, source="none")
            return result
        fallback = self._fallback_backend().schedule(block, machine)
        result = ScheduleResult(
            scheduler=self.name,
            block=block,
            machine=machine,
            schedule=fallback.schedule,
            work=budget.spent + fallback.work,
            wall_time=time.perf_counter() - start,
            timed_out=timed_out,
            awct_target_steps=steps_tried,
            fallback_used=True,
            stats=self._result_stats(dp),
            stage_timings={k: dict(v) for k, v in ctx.timings.items()},
        )
        if tracker is not None:
            result.policy = tracker.summary(partial=False, source="fallback")
        return result

    def _result_stats(self, dp: DeductionProcess) -> Dict[str, int]:
        """The probe counters plus the deduction engine's per-rule-class
        work split (all reported, never gated)."""
        stats = dict(self.stats)
        for name in sorted(dp.work_by_rule):
            stats[f"dp_rule_{name}"] = dp.work_by_rule[name]
        return stats

    # ------------------------------------------------------------------ #
    # budget-policy phases: partial finalization and refinement
    # ------------------------------------------------------------------ #
    def _finalize_partial(
        self,
        block: Superblock,
        machine: ClusteredMachine,
        state: SchedulingState,
        budget: WorkBudget,
        tracker: PolicyTracker,
        steps_tried: int,
        dp: DeductionProcess,
        ctx: StageContext,
        start: float,
    ) -> ScheduleResult:
        """Exhaustion under a ``finalize_partial`` policy.

        The shared state holds the best-so-far valid decision set
        (:meth:`ProbeEngine.apply_sequence` rolled back the aborted
        deduction, so it is consistent); freeze it and finalize cheaply —
        a list-scheduling extraction over the partially-fixed scheduling graph
        (:func:`~repro.scheduler.policy.cheap_extraction`) — then emit the
        better of that extraction and the plain fallback schedule, so the
        output is never worse than the paper's timeout mechanism."""
        extraction = cheap_extraction(block, machine, state)
        chosen: Optional[Schedule] = None
        source = "none"
        extra_work = 0
        if extraction is not None and extraction.schedule is not None:
            chosen, source = extraction.schedule, "partial-extraction"
            extra_work += extraction.work
        if self.config.fallback_to_cars:
            fallback = self._fallback_backend().schedule(block, machine)
            extra_work += fallback.work
            if fallback.schedule is not None and (
                chosen is None or fallback.schedule.awct < chosen.awct
            ):
                # Strict improvement only: ties keep the extraction, whose
                # cluster decisions came from the paid-for deduction.
                chosen, source = fallback.schedule, "fallback"
        if chosen is not None:
            chosen.provenance = {"policy": "finalize_partial", "source": source}
        result = ScheduleResult(
            scheduler=self.name,
            block=block,
            machine=machine,
            schedule=chosen,
            work=budget.spent + extra_work,
            wall_time=time.perf_counter() - start,
            timed_out=True,
            awct_target_steps=steps_tried,
            fallback_used=(source == "fallback"),
            stats=self._result_stats(dp),
            stage_timings={k: dict(v) for k, v in ctx.timings.items()},
        )
        result.policy = tracker.summary(partial=True, source=source)
        return result

    def _refine(
        self,
        block: Superblock,
        result: ScheduleResult,
        budget: WorkBudget,
        tracker: PolicyTracker,
    ) -> None:
        """Spend leftover budget improving a successful schedule.

        Randomized-restart / large-neighborhood re-probing: each round
        frees the worst-slack region of the current best schedule — the
        operations completing latest, which bound the AWCT — keeps every
        other operation hinted at its current cycle, and re-runs the full
        pipeline under the remaining dp_work budget.  Strict AWCT
        improvements (validated) replace the best schedule; anything else
        is discarded, so AWCT is monotone non-increasing across rounds and
        every intermediate output is a complete valid schedule — the
        anytime property.  The round RNG is seeded from the policy seed
        and the block name (:meth:`SchedulePolicy.refine_rng_seed`), never
        from process state, so refinement is deterministic.  Requires a
        dp_work limit (the "remaining budget" that bounds each round)."""
        policy = tracker.policy
        if policy.refine_rounds <= 0 or result.schedule is None or budget.limit is None:
            return
        best = result.schedule
        rng = random.Random(policy.refine_rng_seed(block.name))
        for round_no in range(policy.refine_rounds):
            remaining = budget.limit - budget.spent
            if remaining <= 0:
                break
            hints, freed = self._neighborhood_hints(best, rng, policy.refine_neighborhood)
            config = dataclasses.replace(
                self.config,
                policy=None,
                cycle_hints=hints,
                work_budget=remaining,
                time_limit=None,
                fallback_to_cars=False,
            )
            attempt = VirtualClusterScheduler(config).schedule(block, best.machine)
            entry: Dict[str, object] = {
                "round": round_no,
                "freed_ops": sorted(freed),
                "work": attempt.work,
                "awct": attempt.schedule.awct if attempt.schedule is not None else None,
            }
            try:
                budget.charge_block(attempt.work)
            except BudgetExhausted as exc:
                tracker.mark_exhausted(str(exc))
                entry["accepted"] = False
                tracker.refine_history.append(entry)
                break
            accepted = (
                attempt.schedule is not None
                and attempt.schedule.awct < best.awct
                and validate_schedule(attempt.schedule).ok
            )
            if accepted:
                best = attempt.schedule
                assert best is not None
                best.provenance = {"policy": "refine", "round": str(round_no)}
            entry["accepted"] = accepted
            entry["best_awct"] = best.awct
            tracker.refine_history.append(entry)
            tracker.refresh()
        result.schedule = best
        result.work = budget.spent

    @staticmethod
    def _neighborhood_hints(
        schedule: Schedule, rng: random.Random, neighborhood: int
    ) -> Tuple[Tuple[Tuple[int, int], ...], List[int]]:
        """One refinement round's cycle hints.

        Samples the freed region from the operations completing latest
        (twice the neighborhood size as the pool) and hints every other
        operation at its current cycle; returns ``(hints, freed_ops)``."""
        block = schedule.block
        completion = {
            op_id: cycle + block.op(op_id).latency
            for op_id, cycle in schedule.cycles.items()
        }
        ordered = sorted(completion, key=lambda op_id: (-completion[op_id], op_id))
        pool = ordered[: max(2 * neighborhood, 1)]
        k = min(len(pool), max(1, neighborhood))
        freed = set(rng.sample(pool, k))
        hints = tuple(
            sorted(
                (op_id, cycle)
                for op_id, cycle in schedule.cycles.items()
                if op_id not in freed
            )
        )
        return hints, sorted(freed)

    # ------------------------------------------------------------------ #
    # minAWCT tightening (Section 4.2)
    # ------------------------------------------------------------------ #
    def _tighten_exit_bounds(
        self,
        block: Superblock,
        machine: ClusteredMachine,
        ctx: StageContext,
        state: SchedulingState,
        pristine: int,
        max_probe: int = 6,
    ) -> Dict[int, int]:
        """Enhanced minAWCT (Section 4.2): probe each exit's earliest cycle
        through the deduction process and push it up when the DP proves it
        impossible."""
        engine = ctx.engine
        base = min_exit_cycles(block, machine)
        tightened: Dict[int, int] = {}
        for exit_id, cycle in base.items():
            chosen = cycle
            for attempt in range(max_probe):
                engine.check_time()
                engine.rollback(state, pristine)
                result = engine.apply_sequence(
                    ctx.dp,
                    state,
                    [SetExitDeadlines.from_mapping({exit_id: chosen})],
                    ctx.budget,
                )
                if result.ok:
                    break
                chosen += 1
            tightened[exit_id] = chosen
        engine.rollback(state, pristine)
        return tightened

    # ------------------------------------------------------------------ #
    # per-target scheduling: run the stage pipeline
    # ------------------------------------------------------------------ #
    def _try_target(
        self, ctx: StageContext, state: SchedulingState, target: ExitBoundStep
    ) -> bool:
        """Run the stage pipeline for one AWCT target on *state* (already
        rolled back to pristine by the caller); True when it got through
        every stage."""
        result = ctx.engine.apply_sequence(
            ctx.dp,
            state,
            [SetExitDeadlines.from_mapping(target.exit_cycles)],
            ctx.budget,
        )
        if not result.ok:
            return False
        return self._pipeline.run(ctx, state) is not None
