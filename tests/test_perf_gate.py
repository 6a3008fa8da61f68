"""The perf gate (``scripts/check_perf_regression.py``) catches every
regression it claims to.

Reports are built from the committed ``BENCH_vcs.json``: it must pass
against itself, and each single mutation below — one per gated
assertion — must fail the gate with exactly its own message.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    path = ROOT / "scripts" / "check_perf_regression.py"
    spec = importlib.util.spec_from_file_location("check_perf_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_vcs.json").read_text())


def _bump(row: dict, field: str) -> None:
    row[field] += 1


def _redigest(row: dict, field: str) -> None:
    row[field] = "0" * 64


def _matrix(report: dict) -> dict:
    return report["runner"]["matrix"]


def _slower_parallel(report: dict) -> None:
    report["parallel"].pop("skipped", None)
    report["parallel"]["throughput_speedup_vs_serial"] = 0.9


#: (mutation of the fresh report, the one error message it must cause).
MUTATIONS = {
    # dp_work + digests against the committed report
    "trail-dp-work": (
        lambda r: _bump(r["trail"]["machines"][0], "dp_work"),
        "trail 2clust 1b 1lat: dp_work changed",
    ),
    "trail-digest": (
        lambda r: _redigest(r["trail"]["machines"][2], "schedule_digest"),
        "trail 4clust 1b 2lat: schedule_digest changed",
    ),
    "backend-dp-work": (
        lambda r: _bump(r["backends"]["hybrid"]["machines"][1], "dp_work"),
        "backend hybrid 4clust 1b 1lat: dp_work changed",
    ),
    "backend-digest": (
        lambda r: _redigest(r["backends"]["cars"]["machines"][0], "schedule_digest"),
        "backend cars 2clust 1b 1lat: schedule_digest changed",
    ),
    "scenario-dp-work": (
        lambda r: _bump(r["scenarios"]["cells"][0], "dp_work"),
        "scenario ('4c-ring-lat1', 'membound', 'vcs'): dp_work changed",
    ),
    "scenario-digest": (
        lambda r: _redigest(r["scenarios"]["cells"][0], "schedule_digest"),
        "scenario ('4c-ring-lat1', 'membound', 'vcs'): schedule_digest changed",
    ),
    # presence of the warned-on sections
    "missing-policy": (
        lambda r: r.pop("policy"),
        "fresh report is missing the 'policy' anytime-curve section",
    ),
    "missing-deduction": (
        lambda r: r.pop("deduction"),
        "fresh report is missing the 'deduction' counter section",
    ),
    # warm-pool parallel vs serial
    "parallel-identity": (
        lambda r: r["parallel"].update(schedules_identical_serial_vs_parallel=False),
        "warm-pool parallel schedules differ from the serial sweep",
    ),
    "parallel-throughput": (
        _slower_parallel,
        "warm-pool parallel throughput 0.90x is below serial",
    ),
    # cold-then-warm matrix against one fresh cache
    "matrix-cold-hit": (
        lambda r: _matrix(r)["cold_cache"].update(hits=1),
        "cold matrix pass hit a supposedly fresh cache (1 hits)",
    ),
    "matrix-warm-miss": (
        lambda r: _matrix(r)["warm_cache"].update(misses=1),
        "warm matrix pass recomputed 1 job(s) and stored 0",
    ),
    "matrix-warm-store": (
        lambda r: _matrix(r)["warm_cache"].update(stores=1),
        "warm matrix pass recomputed 0 job(s) and stored 1",
    ),
    "matrix-warm-hits": (
        lambda r: _bump(_matrix(r)["warm_cache"], "hits"),
        "warm matrix hits (37) != cold stores (36)",
    ),
    "matrix-warm-hit-rate": (
        lambda r: _matrix(r)["warm_cache"].update(hit_rate=0.5),
        "hit rate 0.5 != 1.0",
    ),
    "matrix-warm-cells": (
        lambda r: _redigest(_matrix(r), "warm_cells_digest"),
        "warm matrix cells differ from the cold pass",
    ),
    # the HTTP passes against the cold batch pass
    "service-cold-hit": (
        lambda r: r["service"]["cold"].update(cache={"hit": 1, "miss": 35}),
        "service cold pass hit a supposedly fresh cache (1 hits)",
    ),
    "service-not-done": (
        lambda r: r["service"]["warm"].update(states={"done": 35, "failed": 1}),
        "service warm: not every response is done",
    ),
    "service-job-drift": (
        lambda r: _redigest(r["service"]["cold"], "jobs_digest"),
        "service cold: per-job digests or dp_work differ from the batch pass",
    ),
    "service-submission-error": (
        lambda r: r["service"]["warm"].update(submission_errors=["job-1 via client-0: boom"]),
        "service warm: 1 HTTP submission error(s)",
    ),
    "service-clients": (
        lambda r: r["service"].update(clients=3),
        "service ran 3 concurrent client(s); the gate requires >= 4",
    ),
    "service-warm-miss": (
        lambda r: r["service"]["warm"].update(cache={"hit": 35, "miss": 1}),
        "service warm pass served 35/36 jobs from cache",
    ),
}


def test_committed_report_passes_against_itself(committed):
    assert gate.gate(committed, copy.deepcopy(committed)) == []


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_fails_with_its_own_message(committed, name):
    mutate, message = MUTATIONS[name]
    fresh = copy.deepcopy(committed)
    mutate(fresh)
    errors = gate.gate(committed, fresh)
    assert len(errors) == 1 and message in errors[0], errors


def test_compare_rows_reports_every_changed_field():
    errors = []
    old = {"m": {"dp_work": 1, "schedule_digest": "a"}}
    gate.compare_rows("trail", old, {"m": {"dp_work": 2, "schedule_digest": "b"}}, errors)
    assert errors == [
        "trail m: dp_work changed: 1 -> 2",
        "trail m: schedule_digest changed: 'a' -> 'b'",
    ]
    errors.clear()
    gate.compare_rows("trail", old, {}, errors)
    assert errors == ["trail: row sets differ: ['m'] vs []"]
