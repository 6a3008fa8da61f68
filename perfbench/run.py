#!/usr/bin/env python3
"""The repository benchmark: compile-budget and serve-mixed.

Run from the repository root::

    python3 perfbench/run.py --workload compile-budget --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs the workload twice on the same inputs, first
untraced and then with span wrappers around every layer's entry points,
and reports the per-layer metrics, the tracing overhead and the share of
time no layer span covers.  Correctness checks run outside the timed
window in both modes.  Standard output carries a human-readable summary
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Every run works in a fresh temporary directory under ``.perfbench-tmp/``
in the current directory (result cache, span files), with every
``REPRO_*`` variable removed from the environment, and removes it again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("compile-budget", "serve-mixed")
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
#: The spans that wrap one whole operation of each workload: the call its
#: loop makes.  They are not counted as layer cover in the traced run.
COMPILE_OP_SPANS = ("vcs.schedule",)
SERVE_OP_SPANS = ("service.submit", "service.result")


def scrub_environment(cache_dir: Path) -> None:
    """Drop every ``REPRO_*`` knob; point the default cache into the run's
    temporary directory so nothing is read from or written to ``~``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


# --------------------------------------------------------------------------- #
# set-up time
# --------------------------------------------------------------------------- #
def setup_probe(workload: str, tmp: Path) -> None:
    """Child side of a set-up measurement: get ready, print the
    ``time.monotonic()`` reading at that point, tear down."""
    from repro.machine.presets import paper_configurations
    from repro.scheduler import create

    paper_configurations()
    create("vcs")
    if workload == "serve-mixed":
        from perfbench.serve_load import Server, n_clients

        with Server(tmp / "probe-cache", n_clients()):
            print(time.monotonic(), flush=True)
    else:
        print(time.monotonic(), flush=True)


def measure_setup(workload: str, tmp: Path) -> float:
    """Median time from starting a fresh interpreter to the workload being
    ready (imports, machines and, for serve, server bind plus pool spin-up)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload, "--tmp", str(tmp)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(child.stdout.split()[-1]) - start)
    return statistics.median(times)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def run_compile(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    from perfbench import compile_load as cl
    from perfbench.inputs import compile_items
    from perfbench.measure import percentile, self_hwm_mb

    if not trace:
        out = cl.run_untraced(seed, seconds)
        run = out["run"]
        latencies = run.latencies_s
        return {
            "attempted": out["attempted"],
            "failures": out["failures"],
            "metrics": {
                "peak_rss_mb": (self_hwm_mb(), "MB"),
                "throughput_per_s": (run.ops / run.wall_s, "1/s"),
                "latency_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
                "latency_ms_tail": (percentile(latencies, 95) * 1e3, "ms"),
                "awct_speedup_vs_cars": (out["awct_speedup_vs_cars"], "ratio"),
            },
            "summary": {"ops": run.ops, "wall_s": run.wall_s},
        }

    from perfbench import layers, tracing

    untraced = cl.timed_window(compile_items(seed), seconds / 2, cl.MIN_OPS // 2)
    tracer = tracing.Tracer(tmp)
    tracing.install(tracer)
    tracer.active = True
    # Freshly generated blocks, so no cache filled by the untraced pass is reused.
    traced = cl.timed_window(
        compile_items(seed), 0, max_ops=untraced.ops, before_op=tracer.set_request
    )
    tracer.active = False
    spans = tracing.collect(tracer, op_spans=COMPILE_OP_SPANS)
    metrics = layers.span_metrics(spans, traced.ops)
    metrics.update(layers.serve_metrics(None, 0, 0.0))
    account = layers.accounting(spans, traced.intervals, traced.wall_s, untraced.wall_s)
    failures = untraced.failures + traced.failures
    return _traced_result(metrics, account, traced.ops, untraced.ops + traced.ops, failures)


def run_serve(seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    from perfbench import serve_load as sl
    from perfbench.measure import percentile

    if not trace:
        inputs = sl.make_inputs(seed)
        run = sl.serve(seed, seconds, tmp / "cache", inputs)
        failures = sl.check(run, inputs, seed)
        latencies = [s.latency_s for s in run.samples]
        repeat = [s.latency_s for s in run.samples if s.kind == "repeat"]
        return {
            "attempted": run.ops + len(run.warm) + sl.RECHECK_SAMPLE,
            "failures": failures,
            "metrics": {
                "peak_rss_mb": (run.peak_rss_mb, "MB"),
                "throughput_per_s": (run.ops / run.wall_s, "1/s"),
                "latency_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
                "latency_ms_tail": (percentile(latencies, 99) * 1e3, "ms"),
                "awct_speedup_vs_cars": (sl.awct_speedup(run, inputs), "ratio"),
            },
            "summary": {
                "ops": run.ops,
                "wall_s": run.wall_s,
                "fresh": sum(1 for s in run.samples if s.kind == "fresh"),
                "repeat_ms_p99": percentile(repeat, 99) * 1e3,
            },
        }

    from perfbench import layers, tracing

    inputs = sl.make_inputs(seed)
    untraced = sl.serve(seed, seconds / 2, tmp / "cache-untraced", inputs)
    failures = sl.check(untraced, inputs, seed)
    tracer = tracing.Tracer(tmp)
    tracing.install(tracer)
    tracer.active = True
    inputs = sl.make_inputs(seed)
    traced = sl.serve(
        seed, 0, tmp / "cache-traced", inputs, counts=untraced.per_client, tag_request=tracer.set_request
    )
    tracer.active = False
    failures += sl.check(traced, inputs, seed)
    spans = tracing.collect(tracer, op_spans=SERVE_OP_SPANS)
    metrics = layers.span_metrics(spans, traced.ops)
    metrics.update(
        layers.serve_metrics(untraced, traced.spin_ups, sl.entry_bytes(tmp / "cache-traced"))
    )
    account = layers.accounting(spans, [traced.window], traced.wall_s, untraced.wall_s)
    attempted = untraced.ops + traced.ops + 2 * (len(inputs.hot) + sl.RECHECK_SAMPLE)
    return _traced_result(metrics, account, traced.ops, attempted, failures)


def _traced_result(metrics, account, ops, attempted, failures) -> dict:
    metrics["trace.ops"] = (float(ops), "count")
    metrics["trace.overhead_share"] = (account["overhead_share"], "share")
    metrics["trace.unattributed_share"] = (account["unattributed_share"], "share")
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "summary": {"accounting": account},
    }


# --------------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--tmp", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the repository root")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    if args.setup_probe:
        scrub_environment(args.tmp / "probe-cache")
        setup_probe(args.setup_probe, args.tmp)
        return 0

    # Let a terminated run still remove its directory and stop its pool.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        scrub_environment(tmp / "cache")
        setup_s = 0.0 if args.trace else measure_setup(args.workload, tmp)
        if args.workload == "serve-mixed":
            out = run_serve(args.seed, args.seconds, bool(args.trace), tmp)
        else:
            out = run_compile(args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # Another run is using it.

    metrics = dict(out["metrics"])
    attempted = out["attempted"]
    failed = min(len(out["failures"]), attempted)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["success_rate"] = (1.0 - failed / attempted, "share")
    for failure in out["failures"][:20]:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} {out['summary']}")
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
