"""The asyncio job server and its background-thread harness.

:class:`JobServer` accepts :class:`repro.api.ScheduleRequest` JSON over
a small HTTP/1.1 API.  A cache hit is answered inside the POST handler:
the raw body is keyed as it stands
(:func:`repro.scheduler.fingerprint.request_cache_key`, the key the
batch path derives from the same job's objects), and the reply carries
the finished job and its response, read straight off the JSON cache
entry.  No ``Superblock``, ``ClusteredMachine`` or ``ScheduleResult`` is
built, and the job never enters the queue, the dispatcher or a thread.
This fast path is taken only for a self-contained body — one that brings
its own policy, or whose tenant has no default policy — and a body
spelled other than canonically simply misses it.

Every other request is decoded, queued in the fair per-client queue and
run through :func:`repro.api.schedule_many` on its own worker thread —
the *exact* batch-runner path (shared persistent pool, machine
interning, content-addressed result cache), so HTTP results are
byte-identical to batch results and repeated submissions are cache
hits.  The dispatcher keeps up to ``max_batch`` jobs in flight.
Whenever a slot frees it takes the next fair-queue round for the free
slots and starts each job on its own: a hit found on this path is
answered from the cache in the server process, a miss runs on the warm
worker pool, and each job is folded into its response as soon as it
finishes, so a hit never waits behind a miss.

Endpoints (all JSON, ``Connection: close``)::

    GET  /api/v1/health                   liveness + version
    POST /api/v1/jobs                     submit; body = ScheduleRequest.to_dict();
                                          a cache hit replies ``done`` with its
                                          ScheduleResponse
    GET  /api/v1/jobs/<id>                JobStatus snapshot
    GET  /api/v1/jobs/<id>/result[?timeout=S]
                                          long-poll; 200 + ScheduleResponse when
                                          terminal, 202 + JobStatus on expiry
    POST /api/v1/jobs/<id>/cancel         cancel (immediate while queued,
                                          cooperative while running)
    GET  /api/v1/clients/<name>           per-client policy + accounting
    PUT  /api/v1/clients/<name>/policy    set/clear the client's default
                                          SchedulePolicy (body = dict or null)
    GET  /api/v1/stats                    queue depth, cache counters, clients

Cancellation applies per job: a queued job is cancelled immediately (it
never runs).  A running job switches to ``cancelling``; the dispatcher
cannot preempt it (scheduling is CPU-bound in a worker process), so the
job finishes, its result is *discarded*, and it lands in ``cancelled``
with failure kind ``"cancelled"``.  Other jobs in flight are untouched.
The runner's taxonomy (error/timeout/crash) passes through unchanged for
all other failures.  A fired timeout tears the shared worker pool down,
so a miss running on the same pool at that moment fails too (``timeout``
or ``crash``); the next miss gets a fresh pool.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from dataclasses import replace
from typing import Dict, Optional, Set, Tuple

import repro
from repro.api import REQUEST_KEYS, JobStatus, ScheduleRequest, ScheduleResponse, schedule_many
from repro.config import RuntimeConfig
from repro.runner.batch import BatchResult, BatchScheduler, JobFailure
from repro.runner.cache import CacheSpec, CacheStats, process_cache, resolve_cache_spec
from repro.scheduler.fingerprint import request_cache_key
from repro.scheduler.policy import SchedulePolicy
from repro.service.http import HttpError, Request, encode_response, read_request, split_path
from repro.service.queue import ClientState, FairQueue, ServiceJob


class JobServer:
    """The asyncio HTTP job server (see module docstring for the API).

    Parameters default to the ``REPRO_SERVICE_*`` knobs of
    :class:`~repro.config.RuntimeConfig`; ``runner`` and ``cache``
    default to the environment-configured batch runner and result cache
    (``REPRO_JOBS``, ``REPRO_CACHE``/``REPRO_CACHE_DIR``), exactly like
    the batch entry points.  ``max_batch`` bounds the jobs in flight at
    once (default: the runner's worker count, so concurrent misses
    saturate the pool without letting one tenant monopolise it).  Hits
    answered at submit never take a slot: they are finished inside the
    POST handler with the same per-client accounting and ``cache_stats``
    as a job folded by the dispatcher, but without a dispatch round.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        runner: Optional[BatchScheduler] = None,
        cache: object = None,
        max_batch: Optional[int] = None,
        job_timeout: Optional[float] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        config = config if config is not None else RuntimeConfig.load()
        self.host = host if host is not None else config.service_host
        self.port = port if port is not None else config.service_port
        timeout = job_timeout if job_timeout is not None else config.service_timeout
        self.runner = runner if runner is not None else BatchScheduler(timeout=timeout)
        self.cache = cache if cache is not None else CacheSpec.from_env(enabled=config.cache)
        #: The handle the POST handler answers hits from (``None`` = off).
        self._result_cache = process_cache(resolve_cache_spec(self.cache))
        self.max_batch = max_batch if max_batch is not None else self.runner.n_workers
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")

        self.queue = FairQueue()
        self.jobs: Dict[str, ServiceJob] = {}
        self.clients: Dict[str, ClientState] = {}
        self.cache_stats = CacheStats()
        #: ``take_round`` calls that returned jobs.
        self.rounds_dispatched = 0
        self._counter = 0
        #: One task per running job; the dispatcher reaps the done ones.
        self._in_flight: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        self._wakeup = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.monotonic()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop accepting connections and cancel the dispatcher and the
        jobs in flight."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        tasks = list(self._in_flight)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._in_flight.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _now(self) -> float:
        return time.monotonic() - self._t0

    @property
    def _running(self) -> int:
        return len(self._in_flight)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        status, payload = 500, {"error": "internal error"}
        try:
            request = await read_request(reader)
            if request is None:
                writer.close()
                return
            status, payload = await self._route(request)
        except HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # Defensive: one bad request must not kill the server.
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            writer.write(encode_response(status, payload))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _route(self, request: Request) -> Tuple[int, object]:
        segments = split_path(request.path)
        if len(segments) < 3 or segments[:2] != ("api", "v1"):
            raise HttpError(404, f"unknown path {request.path!r}")
        head, rest = segments[2], segments[3:]

        if head == "health" and not rest:
            self._expect(request, "GET")
            return 200, {"ok": True, "version": repro.__version__, "uptime_s": self._now()}
        if head == "stats" and not rest:
            self._expect(request, "GET")
            return 200, self._stats()
        if head == "jobs" and not rest:
            self._expect(request, "POST")
            return self._submit(request)
        if head == "jobs" and len(rest) == 1:
            self._expect(request, "GET")
            job = self._job(rest[0])
            return 200, {"job": self._status(job).to_dict()}
        if head == "jobs" and len(rest) == 2 and rest[1] == "result":
            self._expect(request, "GET")
            return await self._result(self._job(rest[0]), request.query_float("timeout"))
        if head == "jobs" and len(rest) == 2 and rest[1] == "cancel":
            self._expect(request, "POST")
            return self._cancel(self._job(rest[0]))
        if head == "clients" and len(rest) == 1:
            self._expect(request, "GET")
            return 200, {"client": self._client(rest[0]).to_dict()}
        if head == "clients" and len(rest) == 2 and rest[1] == "policy":
            self._expect(request, "PUT")
            return self._set_policy(rest[0], request)
        raise HttpError(404, f"unknown path {request.path!r}")

    @staticmethod
    def _expect(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(405, f"{request.path} expects {method}, got {request.method}")

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    def _client(self, name: str) -> ClientState:
        state = self.clients.get(name)
        if state is None:
            state = self.clients[name] = ClientState(name=name)
        return state

    def _job(self, job_id: str) -> ServiceJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    def _status(self, job: ServiceJob) -> JobStatus:
        position = self.queue.position(job) if job.state == "queued" else -1
        return job.status(queue_position=position)

    def _submit(self, request: Request) -> Tuple[int, object]:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "expected a JSON object (ScheduleRequest.to_dict())")
        unknown = set(payload) - REQUEST_KEYS
        if unknown:
            raise HttpError(
                400,
                f"invalid schedule request: unknown ScheduleRequest keys {sorted(unknown)}; "
                f"known: {sorted(REQUEST_KEYS)}",
            )
        hit = self._answer_from_cache(payload)
        if hit is not None:
            return 200, {"job": self._status(hit).to_dict(), "response": hit.response.to_dict()}
        try:
            schedule_request = ScheduleRequest.from_dict(payload)
        except Exception as exc:
            raise HttpError(400, f"invalid schedule request: {exc}") from None
        client = self._client(schedule_request.client)
        # A request "brings its own" policy either explicitly or embedded
        # in its wire VcsConfig (from_dict keeps the canonical carrier).
        has_policy = schedule_request.policy is not None or (
            schedule_request.vcs is not None and schedule_request.vcs.policy is not None
        )
        if not has_policy and client.policy is not None:
            # The tenant's default budget policy follows every job that
            # does not bring its own (backends without a VcsConfig
            # ignore it, matching the batch path).
            try:
                schedule_request = replace(schedule_request, policy=client.policy)
            except ValueError as exc:
                raise HttpError(400, f"client policy rejected: {exc}") from None

        job = self._new_job(schedule_request.client, schedule_request)
        self.queue.push(job)
        client.submitted += 1
        assert self._wakeup is not None
        self._wakeup.set()
        return 200, {"job": self._status(job).to_dict()}

    def _new_job(self, client: str, request: Optional[ScheduleRequest]) -> ServiceJob:
        self._counter += 1
        job = ServiceJob(
            job_id=f"j-{self._counter:06d}",
            client=client,
            request=request,
            submitted_s=self._now(),
            done=asyncio.Event(),
        )
        self.jobs[job.job_id] = job
        return job

    def _answer_from_cache(self, payload: dict) -> Optional[ServiceJob]:
        """Finish a self-contained request from its cache entry, or ``None``.

        The raw body is keyed as it stands: a canonical body gets the key
        its job would get on the batch path, and any other spelling misses
        here and takes the slow path, which keys the decoded request.  A
        body without a policy of its own is keyed only when its tenant has
        no default policy, because the default would change the request.
        """
        if self._result_cache is None:
            return None
        name = str(payload.get("client", "default"))
        client = self.clients.get(name)
        if client is not None and client.policy is not None and not _brings_policy(payload):
            return None
        entry = self._result_cache.get(request_cache_key(payload, self._result_cache.salt))
        if entry is None:
            return None
        job = self._new_job(name, None)
        job.started_s = job.submitted_s
        self._client(name).submitted += 1
        self.cache_stats.record("hit")
        self._finish_done(
            job, ScheduleResponse(job_id=job.job_id, state="done", cache="hit", **entry["response"])
        )
        return job

    async def _result(self, job: ServiceJob, timeout: Optional[float]) -> Tuple[int, object]:
        if not job.terminal:
            assert isinstance(job.done, asyncio.Event)
            try:
                await asyncio.wait_for(job.done.wait(), timeout)
            except asyncio.TimeoutError:
                return 202, {"job": self._status(job).to_dict()}
        assert job.response is not None
        return 200, {
            "job": self._status(job).to_dict(),
            "response": job.response.to_dict(),
        }

    def _cancel(self, job: ServiceJob) -> Tuple[int, object]:
        if job.terminal:
            return 200, {"job": self._status(job).to_dict()}
        if job.state == "queued":
            self.queue.cancel(job)
            self._finish_cancelled(job, "cancelled while queued")
        else:
            # Cooperative: the running job finishes, then its result is
            # discarded and it lands in ``cancelled``.
            job.cancel_requested = True
            job.state = "cancelling"
            job.detail = "cancel requested; waiting for the running job"
        return 200, {"job": self._status(job).to_dict()}

    def _set_policy(self, name: str, request: Request) -> Tuple[int, object]:
        payload = request.json() if request.body else None
        client = self._client(name)
        if payload is None:
            client.policy = None
        elif isinstance(payload, dict):
            try:
                client.policy = SchedulePolicy.from_dict(payload)
            except ValueError as exc:
                raise HttpError(400, f"invalid policy: {exc}") from None
        else:
            raise HttpError(400, "expected a SchedulePolicy dict or null")
        return 200, {"client": client.to_dict()}

    def _stats(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime_s": self._now(),
            "queue_depth": len(self.queue),
            "running": self._running,
            "rounds_dispatched": self.rounds_dispatched,
            "max_batch": self.max_batch,
            "n_workers": self.runner.n_workers,
            "jobs": {"total": len(self.jobs), "by_state": states},
            "cache": self.cache_stats.to_dict(),
            "clients": {name: state.to_dict() for name, state in self.clients.items()},
        }

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            # Submissions and finished jobs set the event; everything
            # from here to the wait below runs without yielding.
            self._wakeup.clear()
            for task in [task for task in self._in_flight if task.done()]:
                self._in_flight.discard(task)
                task.result()
            free = self.max_batch - len(self._in_flight)
            jobs = self.queue.take_round(free) if free > 0 else []
            if not jobs:
                await self._wakeup.wait()
                continue
            self.rounds_dispatched += 1
            started = self._now()
            for job in jobs:
                job.state = "running"
                job.started_s = started
                task = asyncio.create_task(self._run(job))
                task.add_done_callback(self._job_finished)
                self._in_flight.add(task)

    def _job_finished(self, _task: asyncio.Task) -> None:
        assert self._wakeup is not None
        self._wakeup.set()

    async def _run(self, job: ServiceJob) -> None:
        """Run one job through the batch path on a worker thread and fold it."""
        try:
            assert job.request is not None  # Released only here or on cancel.
            schedule_job = replace(job.request.job(), job_id=job.job_id)
            job.request = None
            result = await asyncio.to_thread(
                schedule_many, [schedule_job], self.runner, self.cache, "capture"
            )
            self._fold(job, result)
        except Exception as exc:
            # A failure of the batch machinery itself (not of the job).
            failure = JobFailure(
                index=0,
                job_id=job.job_id,
                kind="error",
                error_type=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(),
            )
            self._finish_failure(job, failure)

    def _fold(self, job: ServiceJob, result: BatchResult) -> None:
        """Turn the one-job batch *result* into *job*'s terminal state."""
        if result.cache is not None:
            self.cache_stats.merge(result.cache)
        if job.cancel_requested:
            self._finish_cancelled(job, "cancelled while running; result discarded")
            return
        value = result.values[0]
        if value is None:
            failure = (
                result.failures[0]
                if result.failures
                else JobFailure(index=0, job_id=job.job_id, kind="error")
            )
            self._finish_failure(job, failure)
            return
        response = ScheduleResponse.from_result(
            job.job_id,
            value,
            cache=result.cache_outcomes[0] if result.cache_outcomes else "",
        )
        self._finish_done(job, response)

    def _finish_done(self, job: ServiceJob, response: ScheduleResponse) -> None:
        """Land *job* in ``done`` with *response* and account it to its client."""
        now = self._now()
        job.response = replace(response, wall_s=now - job.started_s)
        job.state = "done"
        job.finished_s = now
        client = self._client(job.client)
        client.completed += 1
        client.dp_work += response.work
        if response.policy is not None and response.policy.get("partial_finalize"):
            client.partial_finalizes += 1
        assert isinstance(job.done, asyncio.Event)
        job.done.set()

    def _finish_cancelled(self, job: ServiceJob, detail: str) -> None:
        now = self._now()
        job.request = None
        job.state = "cancelled"
        job.detail = detail
        job.finished_s = now
        job.response = ScheduleResponse.from_failure(
            JobFailure(index=0, job_id=job.job_id, kind="cancelled", message=detail),
            wall_s=now - job.started_s if job.started_s else 0.0,
        )
        self._client(job.client).cancelled += 1
        assert isinstance(job.done, asyncio.Event)
        job.done.set()

    def _finish_failure(self, job: ServiceJob, failure: JobFailure) -> None:
        now = self._now()
        job.response = ScheduleResponse.from_failure(failure, wall_s=now - job.started_s)
        job.state = job.response.state
        job.detail = failure.describe()
        job.finished_s = now
        client = self._client(job.client)
        if failure.kind == "cancelled":
            client.cancelled += 1
        else:
            client.failed += 1
        assert isinstance(job.done, asyncio.Event)
        job.done.set()


def _brings_policy(payload: dict) -> bool:
    """Whether a request body carries a budget policy of its own."""
    backend = payload.get("backend")
    vcs = backend.get("vcs") if isinstance(backend, dict) else None
    return payload.get("policy") is not None or (
        isinstance(vcs, dict) and vcs.get("policy") is not None
    )


class ServerThread:
    """A :class:`JobServer` on a background thread, as a context manager.

    The harness tests, the load benchmark and the docs examples use::

        with ServerThread(port=0) as server:
            client = ServiceClient(server.url)
            ...

    The listening port is bound (and ``server.url`` valid) by the time
    ``__enter__`` returns; exit stops the server and joins the thread.
    """

    def __init__(self, **kwargs: object):
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[JobServer] = None
        self.url = ""
        self.port = 0

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("job server failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"job server failed to start: {self._error}") from self._error
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self._stop is not None:
            loop, stop = self._loop, self._stop
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # Surface startup failures to __enter__.
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = JobServer(**self._kwargs)  # type: ignore[arg-type]
        await server.start()
        self.server = server
        self.port = server.port
        self.url = server.url
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await server.stop()
