#!/usr/bin/env python
"""Hot-path benchmark report: emit ``BENCH_vcs.json``.

Runs every registered scheduler backend (``cars``/``vcs``/``list``/
``hybrid``) once, serially, over the paper's three machine
configurations (2c-8i-1lat, 4c-16i-1lat, 4c-16i-2lat) on the hand-written
kernels plus a seeded synthetic workload.  That one sweep feeds:

* ``backends`` — per backend and machine: wall time, deterministic
  ``dp_work`` and a SHA-256 digest of every produced schedule (gated),
  plus the VCS pipeline's per-decision-stage wall-time breakdown
  (reported only);
* ``trail`` — the proposed scheduler's rows: wall time, schedules/second,
  ``dp_work``, total AWCT, the summed deduction counters and the
  schedule digest the CI perf-regression gate compares;
* ``deduction`` — the per-rule-class ``dp_work`` split, probe/rollback/
  redo/early-cut counters and the share of the VCS stage wall spent in
  the two probing stages (fix-cycles + fix-communications);
* ``policy`` — the anytime-quality curve of the budget-policy layer:
  each block re-scheduled under a ``finalize_partial`` policy at
  25/50/75/100% of its own full-run ``dp_work``, with mean AWCT ratios
  vs the full run and vs pure CARS, tier transitions and the
  partial-finalize rate (the gate requires the section and warns on
  curve drift).

``parallel`` re-runs the vcs workload once on the warm shared worker
pool and records its throughput against the serial sweep, plus whether
every schedule is byte-identical to it.

The gated scenario-matrix sample (``ring``/``p2p`` machine families
crossed with the ``membound``/``exitdense`` workload families) runs
twice against a fresh temporary result cache: the cold pass feeds
``scenarios`` (per-cell ``dp_work`` + digest) and stores every cell, the
warm pass must be served entirely from the cache (``runner.matrix``).
``service`` then submits the same jobs to a live HTTP job server (its
own fresh cache) from concurrent clients, cold then warm, and records
per-pass digests over every response for comparison with the cold
batch pass, job by job.

Usage::

    PYTHONPATH=src python scripts/bench_report.py            # full report
    PYTHONPATH=src python scripts/bench_report.py --jobs 4
    REPRO_BENCH_BLOCKS=4 PYTHONPATH=src python scripts/bench_report.py

The perf smoke job of CI runs this with ``REPRO_BENCH_BLOCKS=1`` and
``REPRO_JOBS`` of 1 and 2, gates on the result with
``scripts/check_perf_regression.py`` and uploads the JSON as an
artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import run_scenario_matrix, scenario_matrix_jobs  # noqa: E402
from repro.api import ScheduleRequest, ScheduleResponse, schedule_many  # noqa: E402
from repro.config import RuntimeConfig  # noqa: E402
from repro.machine import paper_4c_16i_1lat, paper_configurations  # noqa: E402
from repro.runner import (  # noqa: E402
    BatchScheduler,
    CacheSpec,
    CacheStats,
    ScheduleJob,
    fingerprint_digest,
    resolve_jobs,
    schedule_job_id,
)
from repro.scheduler import (  # noqa: E402
    SchedulePolicy,
    VcsConfig,
    VirtualClusterScheduler,
    available_backends,
    create,
)
from repro.service import ServerThread, ServiceClient  # noqa: E402
from repro.workloads import (  # noqa: E402
    dct_butterfly_kernel,
    dot_product_kernel,
    fir_kernel,
    paper_figure1_block,
    string_search_kernel,
)
from repro.workloads.synth import GeneratorConfig, SuperblockGenerator  # noqa: E402


def build_workload(n_synth: int) -> list:
    """The bench workload: five hand-written kernels plus *n_synth*
    seeded synthetic superblocks."""
    blocks = [
        paper_figure1_block(),
        fir_kernel(taps=3),
        dot_product_kernel(width=3),
        dct_butterfly_kernel(),
        string_search_kernel(),
    ]
    gen = SuperblockGenerator(GeneratorConfig(min_ops=24, max_ops=48), seed=7)
    return blocks + gen.generate_many("bench-synth", n_synth)


def trail_fingerprint(block, result) -> list:
    """One block's entry of the ``trail`` digest.

    The layout predates :meth:`ScheduleResult.fingerprint` and is kept so
    the committed ``trail`` digests stay comparable."""
    s = result.schedule
    return [
        block.name,
        sorted(s.cycles.items()) if s else None,
        sorted(s.clusters.items()) if s else None,
        sorted(
            (c.value, c.producer, c.cycle, c.src_cluster, c.dst_cluster)
            for c in (s.comms if s else [])
        ),
    ]


def measure_backends(blocks: list, machines: list):
    """Serial sweep of every registered scheduler backend.

    Returns the ``backends`` section — per backend and machine the
    deterministic ``dp_work`` and a SHA-256 digest of every result
    fingerprint (gated), the wall time (reported, not gated) and, for the
    VCS pipeline, aggregated per-decision-stage call counts and wall
    times — plus the raw ``(results, wall)`` per ``(backend, machine
    name)`` that the other legs reuse instead of recomputing."""
    backends: dict = {}
    runs: dict = {}
    for name in available_backends():
        backend = create(name)
        per_machine = []
        stage_totals: dict = {}
        for machine in machines:
            t0 = time.perf_counter()
            results = [backend.schedule(block, machine) for block in blocks]
            wall = time.perf_counter() - t0
            runs[name, machine.name] = (results, wall)
            for result in results:
                for stage, entry in result.stage_timings.items():
                    slot = stage_totals.setdefault(stage, {"calls": 0, "wall_time_s": 0.0})
                    slot["calls"] += entry["calls"]
                    slot["wall_time_s"] += entry["wall_time_s"]
            per_machine.append(
                {
                    "machine": machine.name,
                    "wall_time_s": wall,
                    "dp_work": sum(r.work for r in results),
                    "schedule_digest": fingerprint_digest(r.fingerprint() for r in results),
                    "fallback_blocks": sum(1 for r in results if r.fallback_used),
                }
            )
        entry = {"machines": per_machine}
        if stage_totals:
            entry["stage_timings"] = stage_totals
        backends[name] = entry
    return backends, runs


def trail_section(blocks: list, machines: list, runs: dict) -> dict:
    """The proposed scheduler's per-machine rows, from the serial sweep."""
    rows = []
    for machine in machines:
        results, wall = runs["vcs", machine.name]
        stats: Counter = Counter()
        for result in results:
            stats.update(result.stats)
        rows.append(
            {
                "machine": machine.name,
                "wall_time_s": wall,
                "schedules": len(results),
                "schedules_per_sec": len(results) / wall if wall > 0 else None,
                "dp_work": sum(r.work for r in results),
                "awct_total": sum(r.awct if r.ok else 0.0 for r in results),
                "stats": dict(stats),
                "schedule_digest": fingerprint_digest(
                    trail_fingerprint(block, result) for block, result in zip(blocks, results)
                ),
            }
        )
    return {"machines": rows}


def measure_parallel(blocks: list, machines: list, runs: dict, workers: int) -> dict:
    """The vcs workload once more, on the warm shared pool.

    Records the wall-time throughput against the serial sweep and whether
    every result (schedule and ``dp_work``) is byte-identical to it.  The
    throughput ratio is gated >= 1.0 on multi-CPU hosts and skipped with
    an explicit reason on 1-CPU hosts, where a "speedup" would really
    measure pool overhead."""
    jobs = [
        ScheduleJob(
            job_id=schedule_job_id("vcs", "bench", machine.name, index, block.name),
            scheduler="vcs",
            block=block,
            machine=machine,
            check_schedule=False,
        )
        for machine in machines
        for index, block in enumerate(blocks)
    ]
    runner = BatchScheduler(jobs=workers)
    no_cache = CacheSpec.disabled()
    # Spin the shared pool up first, so the timed pass runs on warm workers.
    schedule_many(jobs[:workers], runner=runner, cache=no_cache)
    t0 = time.perf_counter()
    parallel = schedule_many(jobs, runner=runner, cache=no_cache).values
    wall = time.perf_counter() - t0

    serial = [result for machine in machines for result in runs["vcs", machine.name][0]]
    serial_wall = sum(runs["vcs", machine.name][1] for machine in machines)
    cpu_count = os.cpu_count() or 1
    section = {
        "jobs": workers,
        "cpu_count": cpu_count,
        "wall_time_s": wall,
        "serial_wall_time_s": serial_wall,
        "schedules_identical_serial_vs_parallel": (
            [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]
        ),
    }
    if cpu_count <= 1:
        section["throughput_speedup_vs_serial"] = None
        section["skipped"] = (
            "single-CPU host: parallel wall time measures pool overhead, not speedup"
        )
    else:
        section["throughput_speedup_vs_serial"] = serial_wall / wall if wall else None
    return section


#: The gated scenario sample: every machine of these families crossed with
#: these workload families (>= 2 interconnect topologies x >= 2 workload
#: families).  Fixed block count so the committed digests are environment
#: independent (REPRO_BENCH_BLOCKS scales only the main bench workload).
#: The keys are the keyword arguments of ``run_scenario_matrix`` and
#: ``scenario_matrix_jobs``; the dict is also the report's
#: ``scenarios.config``.
SCENARIO_CONFIG = {
    "machine_families": ["ring", "p2p"],
    "workload_families": ["membound", "exitdense"],
    "backends": ["vcs"],
    "blocks_per_benchmark": 1,
}


def measure_matrix(workers: int):
    """The gated scenario sample, cold then warm, against a fresh cache.

    The cold pass computes and stores every cell; its cells are the
    gated ``scenarios`` section.  The warm pass must be served entirely
    from the cache with identical cells (``runner.matrix``, gated on the
    cache counters and the two cell digests).  Also returns the cold
    pass's per-job ``[digest, dp_work]`` keyed by job id, the reference
    the HTTP passes are compared with."""
    runner = BatchScheduler(jobs=workers)
    passes = []
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        spec = CacheSpec(root=tmp)
        for _ in ("cold", "warm"):
            stats = CacheStats()
            t0 = time.perf_counter()
            cells, records = run_scenario_matrix(
                **SCENARIO_CONFIG, runner=runner, cache=spec, cache_stats=stats
            )
            rows = [cell.as_row() for cell in cells]
            passes.append((rows, records, stats, time.perf_counter() - t0))
    (cold_rows, cold_records, cold_stats, cold_wall), (warm_rows, _, warm_stats, warm_wall) = passes

    scenarios = {"config": SCENARIO_CONFIG, "wall_time_s": cold_wall, "cells": cold_rows}
    matrix = {
        "cells": len(cold_rows),
        "workers": workers,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup_vs_cold": cold_wall / warm_wall if warm_wall else None,
        "cold_cache": cold_stats.to_dict(),
        "warm_cache": warm_stats.to_dict(),
        "cold_cells_digest": fingerprint_digest(cold_rows),
        "warm_cells_digest": fingerprint_digest(warm_rows),
    }
    per_job = {
        schedule_job_id(
            record.backend, record.workload.name, record.machine.name, index, block.name
        ): [fingerprint_digest([result.fingerprint()]), result.work]
        for record in cold_records
        for index, (block, result) in enumerate(zip(record.workload.blocks, record.results))
    }
    return scenarios, matrix, per_job


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank method."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def latency_summary(latencies: Sequence[float]) -> dict:
    return {
        "p50_s": percentile(latencies, 0.50),
        "p99_s": percentile(latencies, 0.99),
        "max_s": max(latencies) if latencies else 0.0,
    }


def http_pass(url: str, jobs: Sequence[ScheduleJob], clients: int) -> dict:
    """Submit every job over HTTP from ``clients`` concurrent threads.

    Jobs are strided across clients (client ``c`` takes positions ``c,
    c+clients, …``), each submitted and long-polled to completion.
    Returns the pass's section: submission errors, response states and
    cache outcomes, latency percentiles and ``jobs_digest`` — the digest
    over every job's ``[job id, response digest, dp_work]`` in job
    order, comparable to the batch side's."""
    responses: List[Optional[ScheduleResponse]] = [None] * len(jobs)
    latencies: List[float] = [0.0] * len(jobs)
    errors: List[str] = []
    lock = threading.Lock()

    def worker(name: str, positions: range) -> None:
        client = ServiceClient(url)
        for index in positions:
            request = ScheduleRequest.from_job(jobs[index], client=name)
            begin = time.perf_counter()
            try:
                response = client.schedule(request)
            except Exception as exc:  # noqa: BLE001 - report, don't crash the bench
                with lock:
                    errors.append(f"{jobs[index].job_id} via {name}: {exc}")
                continue
            latencies[index] = time.perf_counter() - begin
            responses[index] = response

    threads = [
        threading.Thread(
            target=worker,
            args=(f"client-{c}", range(c, len(jobs), clients)),
            name=f"bench-service-client-{c}",
        )
        for c in range(clients)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    answered = [r for r in responses if r is not None]
    return {
        "wall_s": time.perf_counter() - t0,
        "submission_errors": errors,
        "states": dict(Counter(r.state for r in answered)),
        "cache": dict(Counter(r.cache for r in answered)),
        "jobs_digest": fingerprint_digest(
            [job.job_id, r.digest, r.work] if r is not None else [job.job_id, None, None]
            for job, r in zip(jobs, responses)
        ),
        "latency": latency_summary(latencies),
    }


#: Concurrent HTTP clients of the service load benchmark (the gate
#: requires >= 4).
SERVICE_CLIENTS = 4


def measure_service(per_job: dict, workers: int, n_clients: int = SERVICE_CLIENTS) -> dict:
    """The HTTP job-server load benchmark.

    Submits the gated 12-cell scenario sample to a live in-process
    :class:`repro.service.JobServer` with a fresh temp result cache,
    from ``n_clients`` concurrent clients: a cold pass that computes and
    stores, then a warm pass that must be served 100% from cache.  The
    gate compares each pass's ``jobs_digest`` with
    ``batch_jobs_digest``, built the same way from the cold batch
    matrix pass (*per_job*).  Latency percentiles are reported, not
    gated."""
    jobs = scenario_matrix_jobs(**SCENARIO_CONFIG)
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        with ServerThread(runner=BatchScheduler(jobs=workers), cache=CacheSpec(root=tmp)) as server:
            cold = http_pass(server.url, jobs, n_clients)
            warm = http_pass(server.url, jobs, n_clients)
    return {
        "clients": n_clients,
        "workers": workers,
        "jobs": len(jobs),
        "batch_jobs_digest": fingerprint_digest(
            [job.job_id, *per_job[job.job_id]] for job in jobs
        ),
        "cold": cold,
        "warm": warm,
    }


#: The anytime-quality sample: budget fractions of each block's own full-run
#: ``dp_work`` (deterministic, so the recorded curve is environment
#: independent) under a ``finalize_partial`` policy, on one machine.
POLICY_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def measure_policy(blocks: list, runs: dict) -> dict:
    """The anytime-quality curve of the budget-policy layer.

    For every bench block, take the full (unlimited) VCS run's
    ``dp_work`` from the serial sweep, then re-run under a
    ``finalize_partial`` policy whose ``max_dp_work`` is 25/50/75/100%
    of that — each run emits a complete valid schedule (partial
    extraction, fallback, or the real thing) — and record AWCT relative
    to the full run and to the pure-CARS baseline, plus tier transitions
    and the partial-finalize rate.  All recorded values are
    deterministic; the perf gate requires the section to exist and warns
    (never fails) on curve drift."""
    machine = paper_4c_16i_1lat()
    full_results = runs["vcs", machine.name][0]
    cars_results = runs["cars", machine.name][0]

    t0 = time.perf_counter()
    per_block = []
    totals = {
        fraction: {"vs_full": 0.0, "vs_cars": 0.0, "partial": 0, "fallback": 0}
        for fraction in POLICY_FRACTIONS
    }
    n_blocks = 0
    for block, full, cars in zip(blocks, full_results, cars_results):
        if not (full.ok and cars.ok):
            continue
        n_blocks += 1
        row = {
            "block": block.name,
            "full_dp_work": full.work,
            "full_awct": full.awct,
            "cars_awct": cars.awct,
            "points": [],
        }
        for fraction in POLICY_FRACTIONS:
            limit = max(1, int(full.work * fraction))
            policy = SchedulePolicy(exhaustion_mode="finalize_partial", max_dp_work=limit)
            result = VirtualClusterScheduler(VcsConfig(policy=policy)).schedule(
                block, machine
            )
            info = result.policy or {}
            row["points"].append(
                {
                    "fraction": fraction,
                    "dp_limit": limit,
                    "awct": result.awct if result.ok else None,
                    "source": info.get("source"),
                    "tier": info.get("tier"),
                    "partial_finalize": bool(info.get("partial_finalize")),
                    "tier_transitions": [t["tier"] for t in info.get("transitions", [])],
                }
            )
            totals[fraction]["vs_full"] += result.awct / full.awct
            totals[fraction]["vs_cars"] += result.awct / cars.awct
            totals[fraction]["partial"] += bool(info.get("partial_finalize"))
            totals[fraction]["fallback"] += bool(result.fallback_used)
        per_block.append(row)

    curve = [
        {
            "fraction": fraction,
            "mean_awct_ratio_vs_full": entry["vs_full"] / n_blocks,
            "mean_awct_ratio_vs_cars": entry["vs_cars"] / n_blocks,
            "partial_finalize_rate": entry["partial"] / n_blocks,
            "fallback_rate": entry["fallback"] / n_blocks,
        }
        for fraction, entry in totals.items()
    ]
    return {
        "config": {
            "machine": machine.name,
            "mode": "finalize_partial",
            "fractions": list(POLICY_FRACTIONS),
        },
        "wall_time_s": time.perf_counter() - t0,
        "anytime_curve": curve,
        "blocks": per_block,
    }


def deduction_counters(trail: dict) -> dict:
    """Aggregate the deduction-layer counters of the ``trail`` rows.

    Sums the per-machine ``stats`` and splits them into the per-rule-class
    ``dp_work`` breakdown and the probing counters.  Reported in the summary (and compared by the
    perf gate as non-gating warnings); the gated totals stay ``dp_work``
    and the schedule digests."""
    totals: dict = {}
    for machine in trail["machines"]:
        for key, value in machine.get("stats", {}).items():
            totals[key] = totals.get(key, 0) + value
    prefix = "dp_rule_"
    by_rule = {
        key.removeprefix(prefix): value
        for key, value in sorted(totals.items())
        if key.startswith(prefix)
    }
    return {
        "dp_work_by_rule": by_rule,
        "probing": {
            "probes": totals.get("probes", 0),
            "rollbacks": totals.get("rollbacks", 0),
            "redos": totals.get("redos", 0),
            # Candidate cycles the fix-cycles early cut never probed.
            "early_cut_skips": totals.get("early_cut_skips", 0),
        },
    }


#: The two probing stages the fix-cycles fast path targets; their share of
#: the VCS stage wall is the headline number PR 6 drives down.
PROBING_STAGES = ("fix-cycles", "fix-communications")


def fix_cycles_wall_share(stage_timings: dict) -> float | None:
    """Fraction of the VCS per-stage wall spent in the probing stages.

    Wall times are host dependent, so the share is reported (and compared
    by the perf gate as a non-gating warning), never gated."""
    total = sum(entry.get("wall_time_s", 0.0) for entry in stage_timings.values())
    if not total:
        return None
    probing = sum(
        stage_timings.get(stage, {}).get("wall_time_s", 0.0) for stage in PROBING_STAGES
    )
    return probing / total


def profile_vcs_leg(blocks: list, top_n: int, out_path: str) -> None:
    """cProfile the vcs leg in-process and write the top-N
    functions (by cumulative and by internal time) as a text artifact.

    Runs a dedicated serial pass over the bench workload — the recorded
    numbers always come from unprofiled passes, so enabling the profiler
    cannot skew them."""
    import cProfile
    import io
    import pstats

    scheduler = VirtualClusterScheduler()
    profiler = cProfile.Profile()
    profiler.enable()
    for machine in paper_configurations():
        for block in blocks:
            scheduler.schedule(block, machine)
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    for sort in ("cumulative", "tottime"):
        buffer.write(f"== vcs leg, top {top_n} by {sort} ==\n")
        stats.sort_stats(sort).print_stats(top_n)
        buffer.write("\n")
    Path(out_path).write_text(buffer.getvalue())
    print(f"[bench] wrote {out_path} (cProfile top {top_n}, vcs leg)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_vcs.json"))
    parser.add_argument(
        "--blocks",
        type=int,
        default=RuntimeConfig.load().bench_blocks,
        help="synthetic superblocks added to the kernel workload "
        "(default: $REPRO_BENCH_BLOCKS or 2)",
    )
    parser.add_argument(
        "--cprofile",
        type=int,
        default=0,
        metavar="N",
        help="also cProfile the vcs leg and write the top-N "
        "functions to --cprofile-output (0 disables; nightly artifact)",
    )
    parser.add_argument(
        "--cprofile-output",
        default=str(REPO_ROOT / "BENCH_profile_vcs.txt"),
        help="where --cprofile writes its text report",
    )
    parser.add_argument(
        "--jobs",
        default=None,
        help="workers of the scenario-matrix passes (default: $REPRO_JOBS or 2); "
        "the parallel and service legs use at least 2",
    )
    args = parser.parse_args()

    if args.jobs is None and "REPRO_JOBS" not in os.environ:
        jobs = 2
    else:
        # An explicit worker count (flag or env) is honoured as-is so CI can
        # matrix the gate over REPRO_JOBS={1,2} and verify that the recorded
        # digests are identical whether the runner shards or not.
        jobs = resolve_jobs(args.jobs)
    workers = max(jobs, 2)

    blocks = build_workload(args.blocks)
    machines = paper_configurations()
    print(f"[bench] serial backend sweep ({args.blocks} synthetic blocks)...")
    backends, runs = measure_backends(blocks, machines)
    trail = trail_section(blocks, machines, runs)
    print(f"[bench] vcs workload on the warm pool ({workers} workers)...")
    parallel = measure_parallel(blocks, machines, runs, workers)
    print("[bench] anytime policy curve (finalize_partial @ 25/50/75/100%)...")
    policy = measure_policy(blocks, runs)
    print(f"[bench] scenario matrix, cold then warm result cache ({jobs} workers)...")
    scenarios, matrix, per_job = measure_matrix(jobs)
    print(
        f"[bench] HTTP job server ({SERVICE_CLIENTS} clients x "
        f"{len(per_job)} jobs, cold then warm; {workers} workers)..."
    )
    service = measure_service(per_job, workers)
    if args.cprofile > 0:
        print(f"[bench] cProfile of the vcs leg (top {args.cprofile})...")
        profile_vcs_leg(blocks, args.cprofile, args.cprofile_output)

    summary = {
        "generated_unix": time.time(),
        "workload": {
            "kernels": 5,
            "synthetic_blocks": args.blocks,
            "machines": [machine.name for machine in machines],
        },
        "trail": trail,
        "parallel": parallel,
        "runner": {"matrix": matrix},
        "service": service,
        "backends": backends,
        "scenarios": scenarios,
        "policy": policy,
        "deduction": {
            **deduction_counters(trail),
            "fix_cycles_wall_share": fix_cycles_wall_share(
                backends["vcs"].get("stage_timings", {})
            ),
        },
    }
    Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")

    print(f"\n[bench] wrote {args.output}")
    speedup = parallel["throughput_speedup_vs_serial"]
    throughput = (
        f"throughput {speedup:.2f}x"
        if speedup is not None
        else f"throughput skipped ({parallel['skipped']})"
    )
    print(
        f"[bench] vcs serial {parallel['serial_wall_time_s']:.2f}s | warm pool "
        f"({workers} workers, {parallel['cpu_count']} cpus) {parallel['wall_time_s']:.2f}s | "
        f"{throughput} | identical={parallel['schedules_identical_serial_vs_parallel']}"
    )
    print(
        f"[bench] result cache: matrix cold {matrix['cold_wall_s']:.2f}s -> warm "
        f"{matrix['warm_wall_s']:.2f}s | cold {matrix['cold_cache']} | "
        f"warm {matrix['warm_cache']}"
    )
    latency = {leg: service[leg]["latency"] for leg in ("cold", "warm")}
    print(
        f"[bench] service: {service['jobs']} jobs x {service['clients']} clients over HTTP | "
        f"cold p50 {latency['cold']['p50_s'] * 1000:.0f}ms "
        f"p99 {latency['cold']['p99_s'] * 1000:.0f}ms | "
        f"warm p50 {latency['warm']['p50_s'] * 1000:.0f}ms | "
        f"warm cache {service['warm']['cache']}"
    )
    deduction = summary["deduction"]
    probing = deduction["probing"]
    print(
        f"[bench] probing: {probing['probes']} probes, {probing['rollbacks']} rollbacks, "
        f"{probing['redos']} redos | early-cut {probing['early_cut_skips']} probes"
    )
    share = deduction["fix_cycles_wall_share"]
    if share is not None:
        print(f"[bench] fix-cycles wall share (vcs probing stages): {share:.1%}")
    top_rules = sorted(deduction["dp_work_by_rule"].items(), key=lambda item: -item[1])[:4]
    if top_rules:
        split = " | ".join(f"{name} {count}" for name, count in top_rules)
        print(f"[bench] dp_work by rule (top): {split}")
    for name, entry in backends.items():
        wall = sum(m["wall_time_s"] for m in entry["machines"])
        work = sum(m["dp_work"] for m in entry["machines"])
        print(f"[bench] backend {name:8s} wall {wall:.2f}s | dp_work {work}")
    curve_text = " | ".join(
        f"{point['fraction']:.0%}: {point['mean_awct_ratio_vs_full']:.3f}x full, "
        f"{point['mean_awct_ratio_vs_cars']:.3f}x cars, "
        f"partial {point['partial_finalize_rate']:.0%}"
        for point in policy["anytime_curve"]
    )
    print(f"[bench] anytime curve ({policy['config']['machine']}): {curve_text}")
    vcs_stages = backends["vcs"].get("stage_timings", {})
    if vcs_stages:
        breakdown = " | ".join(
            f"{stage} {entry['wall_time_s']:.2f}s/{entry['calls']}"
            for stage, entry in vcs_stages.items()
        )
        print(f"[bench] vcs stage timing: {breakdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
