"""Tests of the benchmark itself: short smokes and the trace accounting.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import block_to_dict

from perfbench import compile_load, run, serve_load
from perfbench.inputs import compile_items
from perfbench.tracing import uncovered_s

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_compile_smoke(monkeypatch):
    # Only the first MIN_OPS schedules are kept, however many run.
    monkeypatch.setattr(compile_load, "MIN_OPS", 4)
    window = compile_load.timed_window(compile_items(3), seconds=0, max_ops=6)
    assert window.ops == 6 and len(window.intervals) == 6
    assert window.failures == []
    assert len(window.kept) == 4
    assert 0 < window.wall_s <= window.intervals[-1][1] - window.intervals[0][0]
    assert compile_load.check_figure1() == []
    assert compile_load.awct_speedup(window) > 0


def test_inputs_follow_the_seed():
    def content(seed):
        items = itertools.islice(compile_items(seed), 14 * 2 * 3)
        return [(block_to_dict(b), m.name) for b, m in items]

    first = content(5)
    assert len(first) == 14 * 2 * 3
    assert first == content(5)
    assert first != content(6)
    # Stratified: another seed changes the blocks, not their sizes.
    assert [len(b["operations"]) for b, _ in first] == [
        len(b["operations"]) for b, _ in content(6)
    ]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_serve_repeats_hit_and_fresh_requests_miss(tmp_path):
    inputs = serve_load.make_inputs(4)
    window = serve_load.serve(4, 0, tmp_path / "cache", inputs, counts=[30] * serve_load.n_clients())
    assert serve_load.check(window, inputs, 4) == []
    kinds = {s.kind: s.response.cache for s in window.samples}
    assert kinds == {"repeat": "hit", "fresh": "miss"}
    assert serve_load.entry_bytes(tmp_path / "cache") > 0


def test_uncovered_time_is_the_gaps_between_spans():
    spans = [(1.0, 2.0), (1.5, 2.5), (4.0, 5.0), (9.0, 12.0)]
    assert uncovered_s(spans, [(0.0, 10.0)]) == pytest.approx(1.0 + 1.5 + 4.0)
    # Windows clip the spans; a span may reach over two windows.
    assert uncovered_s(spans, [(1.5, 3.0), (4.5, 6.0), (8.0, 11.0)]) == pytest.approx(0.5 + 1.0 + 1.0)
    assert uncovered_s([], [(0.0, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


#: How far the traced window may be from the untraced one: the tracing
#: overhead (a few per cent) plus the host's speed drift between two
#: back-to-back passes of about ten seconds each.
TRACE_TOLERANCE = 0.3


def test_traced_run_accounts_for_the_wall_time(tmp_path):
    """The layer self times (from the span tree) plus the time no layer
    span covers (from walking the span intervals) make up the traced
    window, and that matches the separately timed untraced run."""
    out = run.run_compile(seed=3, seconds=0, trace=True, tmp=tmp_path)
    account = out["summary"]["accounting"]
    layer_s = sum(account["layer_self_s"].values())
    assert "vcs" not in account["layer_self_s"]  # the operation span is not cover
    assert layer_s + account["unattributed_s"] == pytest.approx(account["window_s"], rel=1e-6)
    assert layer_s + account["unattributed_s"] == pytest.approx(
        account["untraced_wall_s"], rel=TRACE_TOLERANCE
    )
    # The scheduler's own code outside the named layers shows, but is small.
    assert 0 < account["unattributed_share"] < 0.2
    assert out["failures"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in out["metrics"].items()} == expected
    assert out["metrics"]["deduction.self_ms"][0] > 0
    assert out["metrics"]["service.rounds"][0] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = bench("--workload", "compile-budget", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
