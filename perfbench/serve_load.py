"""The serve-mixed workload: closed-loop clients against an in-process job server.

One client thread per CPU, one tenant each, calls
``ServiceClient.schedule`` back to back.  About 90% of the requests repeat
a hot set that was computed once before the window (cache reads); the
rest are fresh paper-profile blocks (cache misses plus writes).  The
server is a ``ServerThread`` with ``BatchScheduler(jobs=nproc)`` and a
fresh ``ResultCache`` in a temporary directory.

The traffic mix (repeat share, hot-set size, one tenant per CPU) is an
assumption, not a measurement: no record of real request traffic exists
for this service.  The numbers were picked so that both cache hits and
misses weigh in every end-to-end figure (a miss costs two to three
orders of magnitude more than a hit).  Every serve figure depends
strongly on them, so results are comparable only between runs of the
same mix.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import ScheduleRequest, ScheduleResponse
from repro.runner import BatchScheduler, CacheSpec
from repro.runner.jobs import fingerprint_digest, run_schedule_job
from repro.runner.pool import shared_pool, shared_pool_stats, shutdown_shared_pools
from repro.scheduler import create
from repro.service import ServerThread, ServiceClient

from perfbench.compile_load import BUDGET
from perfbench.inputs import request_blocks
from perfbench.measure import children_hwm_mb, self_hwm_mb

#: Hot-set blocks per profile (14 profiles): the repeated requests.
#: Assumed, like ``REPEAT_SHARE`` (see the module docstring).
HOT_PER_PROFILE = 3
#: Fresh blocks generated per profile, more than any run sends.
FRESH_PER_PROFILE = 150
#: Share of requests that repeat a hot-set request (assumed).
REPEAT_SHARE = 0.9
#: Requests every run completes: enough for ten samples beyond p99.
MIN_REQUESTS = 1000
#: Fresh responses recomputed in process after the window.
RECHECK_SAMPLE = 8


def n_clients() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class ServeInputs:
    hot: List[ScheduleRequest]
    fresh: List[ScheduleRequest]


def make_inputs(seed: int) -> ServeInputs:
    def requests(stream: str, per_profile: int) -> List[ScheduleRequest]:
        return [
            ScheduleRequest(block=block, machine=machine, policy=BUDGET)
            for block, machine in request_blocks(seed, stream, per_profile)
        ]

    return ServeInputs(hot=requests("hot", HOT_PER_PROFILE), fresh=requests("fresh", FRESH_PER_PROFILE))


def client_plan(seed: int, client: int, clients: int, inputs: ServeInputs) -> Iterator[Tuple[str, int]]:
    """The request sequence of one client: ``("repeat", hot index)`` or
    ``("fresh", fresh index)``; clients draw disjoint fresh requests."""
    rng = random.Random(f"perfbench|serve|{seed}|{client}")
    fresh = iter(range(client, len(inputs.fresh), clients))
    while True:
        if rng.random() < REPEAT_SHARE:
            yield "repeat", rng.randrange(len(inputs.hot))
        else:
            index = next(fresh, None)
            if index is None:
                return
            yield "fresh", index


@dataclass
class Sample:
    #: ``client * 1_000_000 + position`` in that client's sequence.
    request: int
    kind: str
    index: int
    latency_s: float
    response: Optional[ScheduleResponse]
    error: str = ""


@dataclass
class ServeRun:
    wall_s: float = 0.0
    #: ``(start, end)`` of the window on ``time.perf_counter``.
    window: Tuple[float, float] = (0.0, 0.0)
    samples: List[Sample] = field(default_factory=list)
    per_client: List[int] = field(default_factory=list)
    warm: List[ScheduleResponse] = field(default_factory=list)
    #: Warm-up requests that did not miss, clients that ran dry.
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: ``/api/v1/stats`` after the warm-up and after the window.
    stats_before: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    spin_ups: int = 0
    #: Window jobs by id: (submitted, started, finished) in server seconds.
    jobs: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.samples)


class Server:
    """The job server plus its warm worker pool, as the workload runs them."""

    def __init__(self, cache_dir: Path, workers: int):
        self.workers = workers
        self.spin_ups = 0
        self.thread = ServerThread(
            runner=BatchScheduler(jobs=workers), cache=CacheSpec(root=str(cache_dir))
        )

    def __enter__(self) -> "Server":
        self.thread.__enter__()
        try:
            # Spin the shared pool up now, so set-up pays for it.
            executor = shared_pool(self.workers).executor()
            for future in [executor.submit(os.getpid) for _ in range(self.workers)]:
                future.result()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.thread.__exit__(*exc_info)
        self.spin_ups = sum(stats["spin_ups"] for stats in shared_pool_stats().values())
        shutdown_shared_pools(wait=True)

    @property
    def url(self) -> str:
        return self.thread.url


def warm_up(url: str, inputs: ServeInputs, clients: int) -> Tuple[List[ScheduleResponse], List[str]]:
    """Compute the hot set once; each must be a cache miss."""
    client = ServiceClient(url)
    with ThreadPoolExecutor(clients) as pool:
        responses = list(pool.map(client.schedule, inputs.hot))
    failures = [
        f"warm-up {i}: state {r.state}, cache {r.cache!r}"
        for i, r in enumerate(responses)
        if r.state != "done" or r.cache != "miss"
    ]
    return responses, failures


def timed_window(
    url: str,
    seed: int,
    inputs: ServeInputs,
    clients: int,
    seconds: float,
    counts: Optional[List[int]] = None,
    tag_request=None,
) -> Tuple[Tuple[float, float], List[List[Sample]], List[str]]:
    """Run the closed loop for *seconds* (and at least ``MIN_REQUESTS``),
    or, with *counts*, exactly ``counts[c]`` requests per client.  Returns
    the window's start and end, each client's samples and any client that
    ran out of fresh requests before the window ended."""
    stop = threading.Event()
    per_client: List[List[Sample]] = [[] for _ in range(clients)]
    exhausted: List[str] = []

    def loop(c: int) -> None:
        client = ServiceClient(url)
        tenant = f"tenant-{c}"
        out = per_client[c]
        for kind, index in client_plan(seed, c, clients, inputs):
            if counts is not None and len(out) >= counts[c]:
                break
            if counts is None and stop.is_set():
                break
            request = (inputs.hot if kind == "repeat" else inputs.fresh)[index]
            request = replace(request, client=tenant)
            request_id = c * 1_000_000 + len(out)
            if tag_request is not None:
                tag_request(request_id)
            t0 = time.perf_counter()
            try:
                response, error = client.schedule(request), ""
            except Exception as exc:  # A failed request is counted, not fatal.
                response, error = None, f"{type(exc).__name__}: {exc}"
            out.append(Sample(request_id, kind, index, time.perf_counter() - t0, response, error))
        else:
            if counts is None:
                exhausted.append(f"client {c} ran out of fresh requests")

    threads = [threading.Thread(target=loop, args=(c,), name=f"client-{c}") for c in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    if counts is None:
        deadline = start + seconds
        while time.perf_counter() < deadline or (
            sum(map(len, per_client)) < MIN_REQUESTS and any(t.is_alive() for t in threads)
        ):
            time.sleep(0.05)
        stop.set()
    for thread in threads:
        thread.join()
    return (start, time.perf_counter()), per_client, exhausted


def serve(
    seed: int,
    seconds: float,
    cache_dir: Path,
    inputs: ServeInputs,
    counts: Optional[List[int]] = None,
    tag_request=None,
) -> ServeRun:
    """Start a server, warm the hot set, run the window, read the server's
    state and shut everything down."""
    clients = n_clients()
    run = ServeRun()
    with Server(cache_dir, clients) as server:
        run.warm, run.failures = warm_up(server.url, inputs, clients)
        run.stats_before = ServiceClient(server.url).stats()
        run.window, per_client, exhausted = timed_window(
            server.url, seed, inputs, clients, seconds, counts, tag_request
        )
        run.wall_s = run.window[1] - run.window[0]
        run.failures += exhausted
        run.per_client = [len(samples) for samples in per_client]
        run.samples = [sample for samples in per_client for sample in samples]
        run.peak_rss_mb = self_hwm_mb() + children_hwm_mb()
        run.stats = ServiceClient(server.url).stats()
        job_server = server.thread.server
        window_jobs = list(job_server.jobs.values())[len(inputs.hot) :]
        run.jobs = {
            job.job_id: (job.submitted_s, job.started_s, job.finished_s) for job in window_jobs
        }
    run.spin_ups = server.spin_ups
    return run


def check(run: ServeRun, inputs: ServeInputs, seed: int) -> List[str]:
    """Repeats return their warm-up digest from the cache, fresh requests
    miss, and a seeded sample of fresh responses matches an in-process
    recomputation on digest and dp_work."""
    failures = list(run.failures)
    warm_digest = {i: r.digest for i, r in enumerate(run.warm)}
    fresh_served: List[Sample] = []
    for sample in run.samples:
        response = sample.response
        if response is None or response.state != "done" or not response.ok:
            failures.append(f"{sample.kind} {sample.index}: {sample.error or response}")
        elif sample.kind == "repeat":
            if response.digest != warm_digest.get(sample.index) or response.cache != "hit":
                failures.append(f"repeat {sample.index}: cache {response.cache!r}, digest differs")
        else:
            if response.cache != "miss":
                failures.append(f"fresh {sample.index}: cache {response.cache!r}, expected a miss")
            fresh_served.append(sample)
    rng = random.Random(f"perfbench|recheck|{seed}")
    for sample in rng.sample(fresh_served, min(RECHECK_SAMPLE, len(fresh_served))):
        result = run_schedule_job(inputs.fresh[sample.index].job())
        digest = fingerprint_digest([result.fingerprint()])
        if digest != sample.response.digest or result.work != sample.response.work:
            failures.append(f"fresh {sample.index}: recomputed result differs from the served one")
    return failures


def awct_speedup(run: ServeRun, inputs: ServeInputs) -> float:
    """CARS weighted cycles over served VCS weighted cycles, over the hot
    set and every fresh request the window served."""
    served = [(inputs.hot[i], r) for i, r in enumerate(run.warm)]
    served += [
        (inputs.fresh[s.index], s.response)
        for s in run.samples
        if s.kind == "fresh" and s.response is not None and s.response.ok
    ]
    cars = create("cars")
    cars_cycles = sum(cars.schedule(q.block, q.machine).total_cycles for q, _ in served)
    vcs_cycles = sum(response.total_cycles for _, response in served)
    return cars_cycles / vcs_cycles if vcs_cycles else 0.0


def entry_bytes(cache_dir: Path) -> float:
    """Mean size of a result-cache entry on disk."""
    sizes = [path.stat().st_size for path in cache_dir.rglob("*.pkl")]
    return sum(sizes) / len(sizes) if sizes else 0.0
