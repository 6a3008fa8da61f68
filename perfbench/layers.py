"""Per-layer metrics of a traced run.

Times called ``*_ms`` with unit ``ms/op`` are self times (span minus
child spans) per operation of the workload (one compile, or one request).
On compile, those of the layers below the operation span (every one but
``vcs.self_ms``) add up, together with the unattributed time, to the
traced window.  Units ``ms/call`` are mean span durations per call.  Layers a
workload never calls read 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.measure import mean, percentile
from perfbench.tracing import SpanSet, uncovered_s

RULES = (
    "BackwardBoundPropagation",
    "ChosenCombinationClusterRule",
    "ClassWindowPressureRule",
    "CombinationWindowRule",
    "CommunicationLinkRule",
    "CommunicationSlackRule",
    "CommunicationTimingRule",
    "ComponentPropagation",
    "FixedCycleResourceRule",
    "ForwardBoundPropagation",
    "IncompatibilityCommunicationRule",
    "MustOverlapRule",
    "PLCCreationRule",
    "PLCPromotionRule",
    "VCFusionResourceRule",
)
STAGES = (
    "combinations",
    "fix-cycles",
    "eliminate-outedges",
    "final-mapping",
    "fix-communications",
    "extraction",
)

Metrics = Dict[str, Tuple[float, str]]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(spans: SpanSet, ops: int) -> Metrics:
    """The metrics read from spans and wrapper counters."""
    c = spans.counters

    def per_op_ms(*names: str) -> float:
        return _ratio(spans.self_s(*names) * 1e3, ops)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def per_call_ms(name: str) -> float:
        return _ratio(spans.total_s(name) * 1e3, spans.calls(name))

    rule_work = sum(c[f"stats.dp_rule_{rule}"] for rule in RULES)
    vcs_calls = c["vcs.calls"]
    probe_lookups = c["stats.probe_cache_hits"] + c["stats.probe_cache_misses"]
    m: Metrics = {
        "bounds.enum_ms": (
            per_op_ms("bounds.min_awct", "bounds.enum_init", "bounds.enum_advance"),
            "ms/op",
        ),
        "sgraph.build_ms": (per_op_ms("sgraph.build"), "ms/op"),
        "sgraph.combinations": (_ratio(c["sgraph.combinations"], c["sgraph.graphs"]), "count"),
        "deduction.apply_calls": (per_op(spans.calls("deduction.apply")), "1/op"),
        "deduction.self_ms": (per_op_ms("deduction.apply"), "ms/op"),
        "deduction.dp_work": (per_op(c["deduction.dp_work"]), "1/op"),
        "deduction.work_per_ms": (
            _ratio(rule_work, spans.total_s("deduction.apply") * 1e3),
            "1/ms",
        ),
    }
    for rule in RULES:
        m[f"deduction.rule.{rule}"] = (per_op(c[f"stats.dp_rule_{rule}"]), "1/op")
    m["trail.rollbacks"] = (per_op(spans.calls("trail.rollback")), "1/op")
    m["trail.entries_undone"] = (per_op(c["trail.entries_undone"]), "1/op")
    m["trail.rollback_ms"] = (per_op_ms("trail.rollback"), "ms/op")
    for stage in STAGES:
        m[f"stage.{stage}.self_ms"] = (per_op_ms(f"stage.{stage}"), "ms/op")
        m[f"stage.{stage}.calls"] = (per_op(spans.calls(f"stage.{stage}")), "1/op")
    m["probe.count"] = (per_op(c["stats.probes"]), "1/op")
    m["probe.redos"] = (per_op(c["stats.redos"]), "1/op")
    m["probe.cache_hit_ratio"] = (_ratio(c["stats.probe_cache_hits"], probe_lookups), "ratio")
    m["vcs.awct_targets"] = (_ratio(c["vcs.awct_targets"], vcs_calls), "count")
    m["vcs.solved_ratio"] = (_ratio(c["vcs.solved"], vcs_calls), "ratio")
    m["vcs.self_ms"] = (per_op_ms("vcs.schedule"), "ms/op")
    m["cars.calls"] = (per_op(spans.calls("cars.schedule")), "1/op")
    m["cars.self_ms"] = (per_op_ms("cars.schedule"), "ms/op")
    m["policy.partial_rate"] = (_ratio(c["policy.partial"], vcs_calls), "ratio")
    m["policy.extract_ms"] = (per_op_ms("policy.extract"), "ms/op")
    batches = spans.calls("runner.batch")
    m["runner.batches"] = (per_op(batches), "1/op")
    m["runner.jobs_per_batch"] = (_ratio(c["runner.jobs"], batches), "count")
    m["runner.batch_ms"] = (per_call_ms("runner.batch"), "ms/call")
    m["runner.hit_batch_ms"] = (
        _ratio(c["runner.hit_batch_s"] * 1e3, c["runner.hit_batches"]),
        "ms/call",
    )
    m["cache.hit_ratio"] = (_ratio(c["cache.hits"], c["cache.gets"]), "ratio")
    m["cache.get_ms"] = (per_call_ms("cache.get"), "ms/call")
    m["cache.put_ms"] = (per_call_ms("cache.put"), "ms/call")
    m["api.encode_ms"] = (per_op_ms("api.encode"), "ms/op")
    m["api.decode_ms"] = (per_op_ms("api.decode"), "ms/op")
    m["api.response_ms"] = (per_op_ms("api.response"), "ms/op")
    return m


def job_times(run) -> Dict[str, List[float]]:
    """Per window job of a serve run, in seconds: queue wait, run time, and
    the client's latency minus the server's submit-to-finish span."""
    done = [times for times in run.jobs.values() if times[2]]
    http = []
    for sample in run.samples:
        if sample.response is not None and sample.response.job_id in run.jobs:
            submitted, _, finished = run.jobs[sample.response.job_id]
            http.append(sample.latency_s - (finished - submitted))
    return {
        "wait": [started - submitted for submitted, started, _ in done],
        "run": [finished - started for _, started, finished in done],
        "http": http,
    }


def serve_metrics(untraced, spin_ups: int, entry_bytes: float) -> Metrics:
    """The service-state metrics.  Queue waits, latencies and rounds come
    from the untraced serve window (the server's own job records); pool
    spin-ups and cache entry sizes from the traced one.  ``untraced`` is
    ``None`` for workloads that never call the service."""
    if untraced is None:
        times: Dict[str, List[float]] = {"wait": [], "run": [], "http": []}
        ops = rounds = jobs = retained = 0.0
        repeat: List[float] = []
    else:
        times = job_times(untraced)
        ops = untraced.ops
        rounds = untraced.stats["rounds_dispatched"] - untraced.stats_before["rounds_dispatched"]
        jobs = len(untraced.jobs)
        retained = untraced.stats["jobs"]["total"]
        repeat = [s.latency_s for s in untraced.samples if s.kind == "repeat"]
    return {
        "runner.pool_spin_ups": (float(spin_ups), "count"),
        "cache.entry_bytes": (entry_bytes, "B"),
        "service.queue_wait_ms_p50": (percentile(times["wait"], 50) * 1e3, "ms"),
        "service.queue_wait_ms_p99": (percentile(times["wait"], 99) * 1e3, "ms"),
        "service.run_ms": (mean(times["run"]) * 1e3, "ms"),
        "service.http_ms": (mean(times["http"]) * 1e3, "ms"),
        "service.rounds": (_ratio(rounds, ops), "1/op"),
        "service.jobs_per_round": (_ratio(jobs, rounds), "count"),
        "service.jobs_retained": (float(retained), "count"),
        "service.repeat_ms_p99": (percentile(repeat, 99) * 1e3, "ms"),
    }


def accounting(
    spans: SpanSet,
    windows: List[Tuple[float, float]],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict:
    """Where the traced window's time went.

    *windows* are the measured stretches of the traced run on the span
    clock (each schedule call on compile, the whole client loop on serve).
    ``unattributed_s`` is the time inside them that no layer span of any
    thread or process covers, found by walking the span intervals; the
    operation spans themselves do not count as cover.  On the
    single-threaded compile workload the layer self times plus that time
    make up the window, which the benchmark's tests check against the
    separately timed untraced run.
    """
    window_s = sum(end - start for start, end in windows)
    unattributed = uncovered_s(spans.coverage, windows)
    return {
        "traced_wall_s": traced_wall_s,
        "untraced_wall_s": untraced_wall_s,
        "overhead_share": _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
        "window_s": window_s,
        "unattributed_s": unattributed,
        "unattributed_share": _ratio(unattributed, window_s),
        "layer_self_s": spans.self_by_layer(),
    }
