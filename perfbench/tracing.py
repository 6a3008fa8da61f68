"""Span tracing around the public entry points of each layer.

The benchmark installs these wrappers from its own files; the program
under test carries no tracing code.  A wrapper records one span per call
(name, start, end, parent span, request id) into a per-thread buffer in
memory.  Worker processes forked by the result-serving pool inherit the
wrappers, start with empty buffers and write their spans out when they
exit; the benchmark process reads them back after shutting the pool down.

Self time of a span is its duration minus the time covered by its child
spans (spans started on the same thread while it was open).  All
processes read the same clock (``time.perf_counter`` is the system-wide
monotonic clock on Linux), so spans of the server, its client threads and
its pool workers can be laid on one time line.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (name id, start, end, parent index or -1, request id).
Span = Tuple[int, float, float, int, int]


class Tracer:
    """Collects spans and counters for one process (and its forked workers)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.active = False
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._buffers: List[List[Optional[Span]]] = []
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = defaultdict(float)
        self._dump_registered = False

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "buffer"):
            local.buffer = []
            local.stack = []
            local.request = -1
            with self._lock:
                self._buffers.append(local.buffer)
                if not self._dump_registered and self.pid != self.main_pid:
                    # A pool worker: write spans out when the worker exits
                    # (multiprocessing runs these finalizers on shutdown).
                    multiprocessing.util.Finalize(None, self.dump, exitpriority=10)
                    self._dump_registered = True
        return local

    def set_request(self, request: int) -> None:
        """Tag the spans this thread records next with *request*."""
        self._thread_state().request = request

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """*fn* wrapped to record a span called *name*.

        ``after(result, args)`` runs after the call, outside the span, to
        record counters from the call's result.
        """
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            local = self._thread_state()
            buffer, stack = local.buffer, local.stack
            index = len(buffer)
            buffer.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer[index] = (nid, start, end, parent, local.request)
            if after is not None:
                after(result, args)
            return result

        return traced

    def spans(self) -> List[List[Optional[Span]]]:
        """This process's spans, one list per thread (``None`` for a span
        still open, so parent indices stay valid)."""
        return [list(buffer) for buffer in self._buffers]

    def dump(self) -> None:
        """Write this process's spans and counters to the output directory."""
        payload = {
            "pid": os.getpid(),
            "names": self.names,
            "threads": self.spans(),
            "counters": dict(self.counters),
        }
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as handle:
            json.dump(payload, handle)


# --------------------------------------------------------------------------- #
# installing the wrappers
# --------------------------------------------------------------------------- #
def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's name for *original* at *replacement*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, after))


def _wrap_function(tracer: Tracer, module, attr: str, name: str, after=None) -> None:
    original = getattr(module, attr)
    _rebind_everywhere(original, tracer.wrap(name, original, after))


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return span_name.split(".", 1)[0]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer.  Call before the pool
    starts, so forked workers inherit the wrappers."""
    # Through sys.modules: ``repro.bounds.awct`` is shadowed by the
    # function of the same name that the package re-exports.
    api = importlib.import_module("repro.api")
    awct = importlib.import_module("repro.bounds.awct")
    policy = importlib.import_module("repro.scheduler.policy")
    client_module = importlib.import_module("repro.service.client")
    importlib.import_module("repro.service.server")
    from repro.bounds.enumeration import ExitBoundEnumerator
    from repro.deduction.engine import DeductionProcess
    from repro.deduction.state import SchedulingState
    from repro.runner.batch import BatchScheduler
    from repro.runner.cache import ResultCache
    from repro.scheduler import pipeline
    from repro.scheduler.cars import CarsScheduler
    from repro.scheduler.vcs import VirtualClusterScheduler
    from repro.service.client import ServiceClient
    from repro.sgraph.scheduling_graph import SchedulingGraph

    count = tracer.count

    def after_sgraph(_, args):
        count("sgraph.graphs")
        count("sgraph.combinations", args[0].n_combinations())

    def after_rollback(undone, _):
        count("trail.entries_undone", undone)

    def after_rollback_capture(log, _):
        count("trail.entries_undone", len(log))

    def after_vcs(result, _):
        count("vcs.calls")
        count("vcs.awct_targets", result.awct_target_steps)
        count("deduction.dp_work", result.work)
        partial = bool(result.policy and result.policy.get("partial_finalize"))
        count("policy.partial", partial)
        count("vcs.solved", not (partial or result.fallback_used))
        for key, value in result.stats.items():
            count(f"stats.{key}", value)

    def after_cache_get(hit, _):
        count("cache.gets")
        count("cache.hits", hit is not None)

    def after_schedule_many(batch, _):
        outcomes = batch.cache_outcomes or []
        if outcomes and all(outcome == "hit" for outcome in outcomes):
            count("runner.hit_batches")
            count("runner.hit_batch_s", batch.wall_time)

    def after_map(batch, args):
        count("runner.jobs", len(args[2]))

    _wrap_function(tracer, awct, "min_awct", "bounds.min_awct")
    _wrap_method(tracer, ExitBoundEnumerator, "__init__", "bounds.enum_init")
    _wrap_method(tracer, ExitBoundEnumerator, "advance", "bounds.enum_advance")
    _wrap_method(tracer, SchedulingGraph, "__init__", "sgraph.build", after_sgraph)
    _wrap_method(tracer, DeductionProcess, "apply", "deduction.apply")
    _wrap_method(tracer, SchedulingState, "rollback", "trail.rollback", after_rollback)
    _wrap_method(
        tracer, SchedulingState, "rollback_capture", "trail.rollback", after_rollback_capture
    )
    for stage_cls in pipeline.STAGE_FACTORIES.values():
        _wrap_method(tracer, stage_cls, "run", f"stage.{stage_cls.name}")
    _wrap_method(tracer, VirtualClusterScheduler, "schedule", "vcs.schedule", after_vcs)
    _wrap_method(tracer, CarsScheduler, "schedule", "cars.schedule")
    _wrap_function(tracer, policy, "cheap_extraction", "policy.extract")
    _wrap_method(tracer, BatchScheduler, "map", "runner.batch", after_map)
    _wrap_function(tracer, api, "schedule_many", "runner.schedule_many", after_schedule_many)
    _wrap_method(tracer, ResultCache, "get", "cache.get", after_cache_get)
    _wrap_method(tracer, ResultCache, "put", "cache.put")
    _wrap_method(tracer, api.ScheduleRequest, "to_dict", "api.encode")
    _wrap_method(tracer, api.ScheduleRequest, "from_dict", "api.decode")
    _wrap_method(tracer, api.ScheduleResponse, "from_result", "api.response")
    json_module = client_module.json
    client_module.json = _JsonProxy(tracer.wrap("api.encode", json_module.dumps), json_module)
    _wrap_method(tracer, ServiceClient, "submit", "service.submit")
    _wrap_method(tracer, ServiceClient, "result", "service.result")


class _JsonProxy:
    """The client module's ``json`` with ``dumps`` traced (request encoding)."""

    def __init__(self, dumps: Callable, module):
        self.dumps = dumps
        self._module = module

    def __getattr__(self, attr: str):
        return getattr(self._module, attr)


# --------------------------------------------------------------------------- #
# reading spans back
# --------------------------------------------------------------------------- #
class SpanSet:
    """Spans of every process of one traced run, with self times.

    *op_spans* names the spans that wrap a whole operation of the workload
    (the call its loop makes).  They are kept for their counters and self
    times, but are not coverage: the layer spans inside them are, so time
    an operation spends outside every named layer shows as uncovered.
    """

    def __init__(self, processes: Iterable[dict], op_spans: Iterable[str] = ()):
        op_spans = set(op_spans)
        self.op_spans = op_spans
        #: name -> [calls, total seconds, self seconds]
        self.by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        #: (start, end) of every outermost layer span (no layer span above
        #: it), from every thread of every process.
        self.coverage: List[Tuple[float, float]] = []
        for process in processes:
            names = process["names"]
            for key, value in process["counters"].items():
                self.counters[key] += value
            for thread in process["threads"]:
                self._add_thread(names, thread)

    def _add_thread(self, names: List[str], thread: List[Optional[Span]]) -> None:
        child_time: Dict[int, float] = defaultdict(float)
        for span in thread:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        is_op = [span is not None and names[span[0]] in self.op_spans for span in thread]
        for index, span in enumerate(thread):
            if span is None:
                continue
            nid, start, end, parent, _ = span
            entry = self.by_name[names[nid]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - child_time.get(index, 0.0)
            if not is_op[index] and (parent < 0 or is_op[parent]):
                self.coverage.append((start, end))

    def calls(self, *names: str) -> float:
        return sum(self.by_name[n][0] for n in names if n in self.by_name)

    def self_s(self, *names: str) -> float:
        return sum(self.by_name[n][2] for n in names if n in self.by_name)

    def total_s(self, *names: str) -> float:
        return sum(self.by_name[n][1] for n in names if n in self.by_name)

    def self_by_layer(self) -> Dict[str, float]:
        """Self time per layer, operation spans left out."""
        out: Dict[str, float] = defaultdict(float)
        for name, (_, _, self_s) in self.by_name.items():
            if name not in self.op_spans:
                out[layer_of(name)] += self_s
        return dict(out)


def uncovered_s(coverage: Iterable[Tuple[float, float]], windows: Iterable[Tuple[float, float]]) -> float:
    """Time inside *windows* (disjoint intervals) that no *coverage*
    interval covers: the gaps found by walking both in time order."""
    merged: List[List[float]] = []
    for start, end in sorted(coverage):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    gaps = 0.0
    first = 0
    for w_start, w_end in sorted(windows):
        while first < len(merged) and merged[first][1] <= w_start:
            first += 1
        cursor = w_start
        index = first
        while index < len(merged) and merged[index][0] < w_end:
            start, end = merged[index]
            if start > cursor:
                gaps += start - cursor
            cursor = max(cursor, min(end, w_end))
            index += 1
        gaps += max(0.0, w_end - cursor)
    return gaps


def collect(tracer: Tracer, op_spans: Iterable[str] = ()) -> SpanSet:
    """This process's spans plus every worker's span file."""
    processes = [
        {
            "names": tracer.names,
            "threads": tracer.spans(),
            "counters": dict(tracer.counters),
        }
    ]
    for path in sorted(tracer.out_dir.glob("spans-*.json")):
        with open(path) as handle:
            processes.append(json.load(handle))
    return SpanSet(processes, op_spans)
