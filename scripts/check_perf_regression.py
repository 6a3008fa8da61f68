#!/usr/bin/env python
"""CI perf-regression gate: compare a fresh ``BENCH_vcs.json`` against
the committed one.

Gated against the committed report (the job fails on any mismatch):

* the workload definition (kernels, synthetic blocks, machines) — a drift
  here means the two reports are not comparable at all;
* ``dp_work`` (deterministic deduction effort) and ``schedule_digest``
  (SHA-256 over every produced schedule) of every keyed row: per machine
  in ``trail``, per backend and machine in ``backends`` (a behaviour
  change in *any* backend fails the gate), and per scenario cell
  (machine x workload family x backend) in ``scenarios``;
* the presence of the ``policy`` anytime curve and of every
  ``deduction`` counter block.

Gated on the fresh report alone:

* ``parallel`` — warm-pool parallel schedules byte-identical to the
  serial sweep, with throughput >= 1.0x serial (skipped with an explicit
  reason on single-CPU hosts);
* ``runner.matrix`` — the cold matrix pass against a fresh cache scores
  no hit; the warm pass recomputes and stores nothing, its hits equal
  the cold pass's stores (hit rate 1.0), and its cells are identical to
  the cold cells;
* ``service`` — at least 4 concurrent clients, no HTTP submission error,
  every response in both passes ``done`` with per-job digest and
  ``dp_work`` equal to the cold batch pass, no cache hit in the cold
  HTTP pass and 100% hits in the warm one.

Reported but NOT gated: wall times, throughput figures and the
per-decision-stage timing breakdown (host dependent).  Per-stage timing
drift against the committed report is surfaced as a warning section, as
is drift in the deduction-layer counters (per-rule-class ``dp_work``
split, probing counters), in the fix-cycles wall share and in the policy
curve: those counters are deterministic, but a shift with an unchanged
total usually means a rule or probing-policy change worth a look, not a
regression.

Usage::

    python scripts/check_perf_regression.py BENCH_vcs.json BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Concurrent HTTP clients the ``service`` section must have run with.
MIN_SERVICE_CLIENTS = 4


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"[gate] cannot read {path}: {exc}")


def machine_rows(section: dict) -> dict:
    return {m["machine"]: m for m in section.get("machines", [])}


def compare_rows(label: str, old_rows: dict, new_rows: dict, errors: list) -> None:
    """Gate ``dp_work`` and ``schedule_digest`` of every keyed row."""
    if set(old_rows) != set(new_rows):
        errors.append(f"{label}: row sets differ: {sorted(old_rows)} vs {sorted(new_rows)}")
        return
    for key in sorted(old_rows):
        for field in ("dp_work", "schedule_digest"):
            old, new = old_rows[key].get(field), new_rows[key].get(field)
            if old != new:
                errors.append(f"{label} {key}: {field} changed: {old!r} -> {new!r}")


def report_stage_drift(old_stages: dict, new_stages: dict) -> None:
    """Per-decision-stage timing drift vs the committed report (warnings,
    never gated: wall times are host dependent, but a stage suddenly
    dominating the pipeline is worth a look before it shows up as a wall
    regression)."""
    if not new_stages or not old_stages:
        return
    old_total = sum(entry.get("wall_time_s", 0) for entry in old_stages.values())
    new_total = sum(entry.get("wall_time_s", 0) for entry in new_stages.values())
    for stage in sorted(set(old_stages) | set(new_stages)):
        old = old_stages.get(stage, {})
        new = new_stages.get(stage, {})
        old_share = old.get("wall_time_s", 0) / old_total if old_total else 0.0
        new_share = new.get("wall_time_s", 0) / new_total if new_total else 0.0
        line = (
            f"vcs stage {stage}: {old.get('wall_time_s', 0):.2f}s "
            f"({old_share:5.1%}) -> {new.get('wall_time_s', 0):.2f}s "
            f"({new_share:5.1%}), calls {old.get('calls', 0)} -> {new.get('calls', 0)}"
        )
        why = []
        if abs(new_share - old_share) > 0.10:
            why.append("wall-time share drifted > 10pp")
        if old.get("calls") != new.get("calls"):
            why.append("call count changed")
        if why:
            print(f"[gate] WARNING {line} ({'; '.join(why)}; not gated)")
        else:
            print(f"[gate] {line} (not gated)")


def check_backends(old_backends, new_backends, errors: list) -> None:
    """Gate the registry sweep: per backend and machine ``dp_work`` + digest."""
    if old_backends is None:
        # Only the committed report may legitimately predate the registry.
        print("[gate] committed report predates the backend sweep; skipping backend gate")
        return
    if new_backends is None:
        errors.append(
            "fresh report is missing the 'backends' sweep the committed report has "
            "(bench_report.py no longer measuring the registry backends?)"
        )
        return
    if set(old_backends) != set(new_backends):
        errors.append(f"backend sets differ: {sorted(old_backends)} vs {sorted(new_backends)}")
        return
    for backend in sorted(old_backends):
        compare_rows(
            f"backend {backend}",
            machine_rows(old_backends[backend]),
            machine_rows(new_backends[backend]),
            errors,
        )
    report_stage_drift(
        old_backends.get("vcs", {}).get("stage_timings", {}),
        new_backends.get("vcs", {}).get("stage_timings", {}),
    )


#: Blocks the fresh report's ``deduction`` section must carry.  Their
#: *values* are warned on, not gated, but their *presence* is: dropping
#: one silently would blind the drift warnings below.
DEDUCTION_BLOCKS = ("dp_work_by_rule", "probing")


def check_deduction_blocks(new_section, errors: list) -> None:
    """Gate the shape of the fresh deduction-counter section."""
    if not new_section:
        errors.append(
            "fresh report is missing the 'deduction' counter section "
            "(bench_report.py no longer aggregating the probe stats?)"
        )
        return
    missing = [block for block in DEDUCTION_BLOCKS if block not in new_section]
    if missing:
        errors.append(
            f"fresh deduction section is missing the {missing} block(s) "
            "(bench_report.py stopped recording a deterministic counter group)"
        )


def report_deduction_drift(old_section, new_section) -> None:
    """Deduction-counter drift vs the committed report (warnings only).

    Compares the per-rule-class ``dp_work`` split, the probing counters
    (probes/rollbacks/redos plus early-cut) and the fix-cycles wall
    share.  Never gated: the gated ``dp_work`` totals and digests already
    pin behaviour; this surfaces *where* inside the deduction the effort
    moved when they legitimately change."""
    if not new_section or not old_section:
        return
    for block in DEDUCTION_BLOCKS:
        old_counters = old_section.get(block) or {}
        new_counters = new_section.get(block) or {}
        for counter in sorted(set(old_counters) | set(new_counters)):
            old, new = old_counters.get(counter, 0), new_counters.get(counter, 0)
            if old != new:
                print(f"[gate] WARNING deduction {block} {counter}: {old} -> {new} (not gated)")
    old_share = old_section.get("fix_cycles_wall_share")
    new_share = new_section.get("fix_cycles_wall_share")
    if isinstance(old_share, float) and isinstance(new_share, float):
        line = f"fix-cycles wall share: {old_share:.1%} -> {new_share:.1%}"
        if abs(new_share - old_share) > 0.10:
            print(f"[gate] WARNING {line} (drifted > 10pp; host dependent, not gated)")
        else:
            print(f"[gate] {line} (not gated)")


def check_policy(old_section, new_section, errors: list) -> None:
    """The anytime-policy section: presence gated, curve drift warned.

    The curve's inputs are deterministic (dp_work-fraction budgets,
    deterministic scheduling), but the curve is a quality trajectory, not
    a byte-identity invariant: legitimate scheduler changes move it.  So
    a missing section fails the gate — ``bench_report.py`` silently
    stopped recording degradation quality — while value drift is
    surfaced as warnings for a human to judge."""
    if new_section is None:
        if old_section is not None:
            errors.append(
                "fresh report is missing the 'policy' anytime-curve section the "
                "committed report has (bench_report.py no longer measuring "
                "budget-policy degradation quality?)"
            )
        return
    if old_section is None:
        print("[gate] committed report predates the policy anytime curve; not compared")
        return
    if old_section.get("config") != new_section.get("config"):
        print(
            "[gate] WARNING policy curve configuration changed "
            f"({old_section.get('config')} -> {new_section.get('config')}); "
            "values not compared (not gated)"
        )
        return
    old_curve = {point["fraction"]: point for point in old_section.get("anytime_curve", [])}
    new_curve = {point["fraction"]: point for point in new_section.get("anytime_curve", [])}
    for fraction in sorted(set(old_curve) | set(new_curve)):
        old = old_curve.get(fraction)
        new = new_curve.get(fraction)
        if old is None or new is None:
            print(
                f"[gate] WARNING policy curve fraction {fraction} "
                f"{'appeared' if old is None else 'disappeared'} (not gated)"
            )
            continue
        for key in (
            "mean_awct_ratio_vs_full",
            "mean_awct_ratio_vs_cars",
            "partial_finalize_rate",
            "fallback_rate",
        ):
            old_value, new_value = old.get(key), new.get(key)
            if old_value is None or new_value is None:
                continue
            if abs(new_value - old_value) > 1e-9:
                print(
                    f"[gate] WARNING policy curve @{fraction:.0%} {key}: "
                    f"{old_value:.4f} -> {new_value:.4f} (not gated)"
                )


def scenario_cells(section: dict) -> dict:
    return {
        (cell["machine"], cell["workload_family"], cell["backend"]): cell
        for cell in section.get("cells", [])
    }


def check_scenarios(old_section, new_section, errors: list) -> None:
    """Gate the scenario-matrix sample: per-cell dp_work and digest."""
    if old_section is None:
        # Only the committed report may legitimately predate the sweep.
        print("[gate] committed report predates the scenario sweep; skipping")
        return
    if new_section is None:
        errors.append(
            "fresh report is missing the 'scenarios' sweep the committed report "
            "has (bench_report.py no longer sampling the scenario matrix?)"
        )
        return
    if old_section.get("config") != new_section.get("config"):
        errors.append(
            "scenario sweep configuration differs (not comparable):\n"
            f"  committed: {old_section.get('config')}\n"
            f"  fresh:     {new_section.get('config')}"
        )
        return
    compare_rows("scenario", scenario_cells(old_section), scenario_cells(new_section), errors)


def check_parallel(section, errors: list) -> None:
    """Gate warm-pool parallel vs serial: identity always, throughput
    >= 1.0x unless skipped with an explicit reason (1-CPU hosts)."""
    if not section:
        errors.append("fresh report is missing the 'parallel' section")
        return
    if section.get("schedules_identical_serial_vs_parallel") is not True:
        errors.append(
            f"warm-pool parallel schedules differ from the serial sweep (parallel: {section})"
        )
    throughput = section.get("throughput_speedup_vs_serial")
    if section.get("skipped"):
        print(f"[gate] parallel throughput gate skipped: {section['skipped']}")
    elif throughput is None:
        errors.append(
            f"parallel carries neither a throughput ratio nor a skip reason ({section})"
        )
    elif throughput < 1.0:
        errors.append(
            f"warm-pool parallel throughput {throughput:.2f}x is below serial "
            f"({section.get('jobs')} workers on {section.get('cpu_count')} cpus)"
        )
    else:
        print(
            f"[gate] parallel: {throughput:.2f}x serial throughput "
            f"({section.get('jobs')} workers on {section.get('cpu_count')} cpus), "
            "gated >= 1.0"
        )


def check_matrix(section, errors: list) -> None:
    """Gate the cold-then-warm matrix passes against one fresh cache."""
    if not section:
        errors.append("fresh report is missing the 'runner.matrix' section")
        return
    cold, warm = section.get("cold_cache", {}), section.get("warm_cache", {})
    if cold.get("hits") != 0:
        errors.append(
            f"cold matrix pass hit a supposedly fresh cache ({cold.get('hits')!r} hits)"
        )
    if warm.get("misses") != 0 or warm.get("stores") != 0:
        errors.append(
            f"warm matrix pass recomputed {warm.get('misses')!r} job(s) and stored "
            f"{warm.get('stores')!r}; expected a pure cache replay"
        )
    if warm.get("hits") != cold.get("stores") or warm.get("hit_rate") != 1.0:
        errors.append(
            f"warm matrix hits ({warm.get('hits')!r}) != cold stores "
            f"({cold.get('stores')!r}) or hit rate {warm.get('hit_rate')!r} != 1.0"
        )
    if section.get("warm_cells_digest") != section.get("cold_cells_digest"):
        errors.append("warm matrix cells differ from the cold pass")


def check_service(section, errors: list) -> None:
    """Gate the HTTP passes against the cold batch matrix pass."""
    if not section:
        errors.append("fresh report is missing the 'service' section")
        return
    clients = section.get("clients", 0)
    if clients < MIN_SERVICE_CLIENTS:
        errors.append(
            f"service ran {clients} concurrent client(s); the gate requires "
            f">= {MIN_SERVICE_CLIENTS}"
        )
    n_jobs = section.get("jobs")
    for leg in ("cold", "warm"):
        http = section.get(leg, {})
        if http.get("submission_errors"):
            errors.append(
                f"service {leg}: {len(http['submission_errors'])} HTTP submission "
                f"error(s): {http['submission_errors'][:3]}"
            )
        if http.get("states") != {"done": n_jobs}:
            errors.append(
                f"service {leg}: not every response is done ({http.get('states')} "
                f"of {n_jobs} jobs)"
            )
        if http.get("jobs_digest") != section.get("batch_jobs_digest"):
            errors.append(
                f"service {leg}: per-job digests or dp_work differ from the batch pass"
            )
    cold_hits = section.get("cold", {}).get("cache", {}).get("hit", 0)
    if cold_hits:
        errors.append(f"service cold pass hit a supposedly fresh cache ({cold_hits} hits)")
    warm_hits = section.get("warm", {}).get("cache", {}).get("hit", 0)
    if warm_hits != n_jobs:
        errors.append(f"service warm pass served {warm_hits}/{n_jobs} jobs from cache")


def gate(committed: dict, fresh: dict) -> list:
    """Every gate failure of *fresh* against *committed*, as messages."""
    errors: list = []
    if committed.get("workload") != fresh.get("workload"):
        # Without comparability the per-row diffs would only bury this.
        errors.append(
            "workload definition differs (not comparable):\n"
            f"  committed: {committed.get('workload')}\n"
            f"  fresh:     {fresh.get('workload')}"
        )
    else:
        old_trail = machine_rows(committed.get("trail", {}))
        new_trail = machine_rows(fresh.get("trail", {}))
        compare_rows("trail", old_trail, new_trail, errors)
        for name in sorted(set(old_trail) & set(new_trail)):
            old_wall = old_trail[name].get("wall_time_s")
            new_wall = new_trail[name].get("wall_time_s")
            if old_wall and new_wall:
                print(
                    f"[gate] trail / {name}: wall {old_wall:.2f}s -> {new_wall:.2f}s "
                    f"({new_wall / old_wall:.2f}x, not gated)"
                )
        check_backends(committed.get("backends"), fresh.get("backends"), errors)
    check_scenarios(committed.get("scenarios"), fresh.get("scenarios"), errors)
    check_policy(committed.get("policy"), fresh.get("policy"), errors)
    check_deduction_blocks(fresh.get("deduction"), errors)
    report_deduction_drift(committed.get("deduction"), fresh.get("deduction"))
    check_parallel(fresh.get("parallel"), errors)
    check_matrix(fresh.get("runner", {}).get("matrix"), errors)
    check_service(fresh.get("service"), errors)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="the BENCH_vcs.json checked into the repository")
    parser.add_argument("fresh", help="the BENCH_vcs.json produced by this run")
    args = parser.parse_args()

    errors = gate(load(args.committed), load(args.fresh))
    if errors:
        print("\n[gate] PERF REGRESSION GATE FAILED:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print(
        "[gate] ok: dp_work and schedule digests match the committed report; "
        "parallel, result-cache and HTTP identity hold"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
