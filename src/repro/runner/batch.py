"""The batch scheduler: deterministic sharded execution of a job list.

Jobs are assumed independent and deterministic.  The scheduler dispatches
jobs to a process pool in small strides and writes every result back into
the slot of its originating job, so the returned value list is in
submission order no matter which worker finished first — a parallel run
is byte-identical to a serial one.  Dispatch is *work-stealing* in
effect: with the default stride of one job per pool task, idle workers
pull the next pending job off the executor's queue, so a straggler job
no longer serializes the whole tail of a contiguous chunk.

By default batches run on the process-wide persistent pool
(:mod:`repro.runner.pool`): the executor survives across
``map`` calls, so a suite of many small batches pays worker spin-up and
package import once instead of per batch.  ``persistent=False`` (or
``REPRO_POOL=fresh``) restores the executor-per-batch behaviour.

Failure handling is per job: an exception inside a job is captured in
the worker (type, message, traceback) and reported as a
:class:`JobFailure` without poisoning the rest of its stride.  Two whole-
pool failure modes are also mapped back onto jobs: a worker process that
dies (``BrokenProcessPool``) fails every job still in flight, and an
expired stride deadline (``timeout`` × jobs in the stride) tears the pool
down and fails the unfinished jobs as ``timeout`` / ``cancelled``.  In
both cases a shared pool is *replaced*, not merely shut down — the next
batch transparently gets a fresh pool.  Batches running concurrently on
the same shared pool (the job server runs one per in-flight job) lose
their workers too: their unfinished jobs fail as ``crash``.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.config import env_knob, parse_jobs
from repro.runner.cache import CacheStats
from repro.runner.pool import PersistentPool, pool_reuse_enabled, shared_pool

#: Environment variable selecting the default worker count.
JOBS_ENV_VAR = env_knob("jobs").env


def resolve_jobs(jobs: Optional[object] = None) -> int:
    """Resolve a worker count from an explicit value or ``REPRO_JOBS``.

    ``None`` falls back to the environment variable, and an unset
    environment means serial execution.  ``"auto"`` selects the machine's
    CPU count.  Anything else must be a positive integer — zero and
    negative counts are rejected with :class:`ValueError` (use ``"auto"``
    to ask for the CPU count explicitly).  The parse rule lives in
    :func:`repro.config.parse_jobs` (precedence: explicit arg > env >
    default).
    """
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV_VAR, "1")
    return parse_jobs(jobs)


@dataclass(frozen=True)
class JobFailure:
    """One job that did not produce a result."""

    index: int
    job_id: str
    #: ``"error"`` (exception in the job), ``"timeout"`` (chunk deadline
    #: expired), ``"crash"`` (worker process died) or ``"cancelled"``
    #: (chunk abandoned while tearing the pool down).
    kind: str
    error_type: str = ""
    message: str = ""
    traceback_text: str = ""

    def describe(self) -> str:
        detail = f": {self.error_type}: {self.message}" if self.error_type else ""
        return f"job {self.job_id} [{self.kind}]{detail}"


class BatchError(RuntimeError):
    """Raised when a batch had failures and ``on_error='raise'``."""

    def __init__(self, failures: Sequence[JobFailure]):
        self.failures = list(failures)
        lines = [failure.describe() for failure in self.failures[:5]]
        if len(self.failures) > 5:
            lines.append(f"... and {len(self.failures) - 5} more")
        super().__init__(f"{len(self.failures)} of the batch's jobs failed:\n" + "\n".join(lines))


@dataclass
class BatchResult:
    """Outcome of one batch, in submission order."""

    #: One entry per job, in submission order; ``None`` for failed jobs.
    values: List[Any]
    failures: List[JobFailure] = field(default_factory=list)
    wall_time: float = 0.0
    n_workers: int = 1
    chunk_size: int = 1
    #: ``"serial"``, ``"process"``, or ``"cache"`` when every job of a
    #: cache-aware batch was a hit and the runner never ran.
    backend: str = "serial"
    #: Result-cache hit/miss/store counters of a cache-aware batch;
    #: ``None`` when the batch ran without a cache-aware job function.
    cache: Optional[CacheStats] = None
    #: Per-job outcome tags (``"hit"``/``"miss"``/``"off"``; ``""`` for
    #: failed jobs), in submission order — the per-job split behind the
    #: aggregate ``cache`` counters.  ``None`` outside cache-aware runs.
    cache_outcomes: Optional[List[str]] = None

    @property
    def n_jobs(self) -> int:
        return len(self.values)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_chunk(
    fn: Callable[[Any], Any], chunk: List[Tuple[int, Any]]
) -> List[Tuple[int, str, Any]]:
    """Worker entry point: run every job of a chunk, capturing per-job errors.

    Module-level so it pickles by reference under every start method.
    """
    out: List[Tuple[int, str, Any]] = []
    for index, payload in chunk:
        # Exception (not BaseException) to match the serial backend:
        # SystemExit/KeyboardInterrupt abort the worker in both modes.
        try:
            out.append((index, "ok", fn(payload)))
        except Exception as exc:
            out.append((index, "err", (type(exc).__name__, str(exc), traceback.format_exc())))
    return out


class BatchScheduler:
    """Shard a list of independent jobs across worker processes.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` reads ``REPRO_JOBS`` (default 1 = serial),
        ``"auto"`` or values <= 0 use the CPU count.
    chunk_size:
        Jobs dispatched per pool task (the work-stealing stride).
        ``None`` picks 1 — each job is its own pool task, so idle
        workers steal pending jobs and a straggler never serializes a
        contiguous chunk behind it.  Raise it only when per-task
        dispatch overhead dominates very cheap jobs.
    timeout:
        Per-job time allowance in seconds, enforced at stride granularity
        (a stride's deadline is ``timeout`` times its job count).  ``None``
        disables the deadline.  Only the process backend can preempt; the
        serial backend runs every job to completion.
    mp_context:
        Optional ``multiprocessing`` context (e.g. to force ``"spawn"``).
    persistent:
        Reuse the process-wide shared pool (:func:`repro.runner.pool.shared_pool`)
        across batches instead of spinning up an executor per ``map``
        call.  ``None`` reads ``REPRO_POOL`` (default: persistent).
    """

    def __init__(
        self,
        jobs: Optional[object] = None,
        chunk_size: Optional[int] = None,
        timeout: Optional[float] = None,
        mp_context: Optional[object] = None,
        persistent: Optional[bool] = None,
    ):
        self.n_workers = resolve_jobs(jobs)
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.mp_context = mp_context
        self.persistent = pool_reuse_enabled() if persistent is None else persistent

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        job_ids: Optional[Sequence[str]] = None,
        on_error: str = "raise",
    ) -> BatchResult:
        """Run ``fn`` over ``payloads``; results come back in input order.

        Only a one-worker scheduler runs serially in the calling process.
        Any other worker count runs every batch on the process pool, a
        one-job batch included, so the pool's warm workers do the work
        and the ``timeout`` can preempt it.

        ``on_error='raise'`` raises :class:`BatchError` if any job failed;
        ``on_error='capture'`` returns the failures in the result instead,
        with ``None`` in the failed jobs' value slots.
        """
        if on_error not in ("raise", "capture"):
            raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
        payloads = list(payloads)
        ids = self._job_ids(payloads, job_ids)

        start = time.perf_counter()
        if self.n_workers == 1:
            result = self._map_serial(fn, payloads, ids)
        else:
            result = self._map_process_pool(fn, payloads, ids)
        result.wall_time = time.perf_counter() - start

        if result.failures and on_error == "raise":
            raise BatchError(result.failures)
        return result

    # ------------------------------------------------------------------ #
    # backends
    # ------------------------------------------------------------------ #
    def _map_serial(self, fn, payloads, ids) -> BatchResult:
        values: List[Any] = []
        failures: List[JobFailure] = []
        for index, payload in enumerate(payloads):
            try:
                values.append(fn(payload))
            except Exception as exc:
                values.append(None)
                failures.append(
                    JobFailure(
                        index=index,
                        job_id=ids[index],
                        kind="error",
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback_text=traceback.format_exc(),
                    )
                )
        return BatchResult(values=values, failures=failures, n_workers=1, backend="serial")

    def _acquire_executor(self) -> Tuple[ProcessPoolExecutor, Optional[PersistentPool]]:
        """The executor to run on, plus the shared pool owning it (if any)."""
        if self.persistent:
            pool = shared_pool(self.n_workers, self.mp_context)
            try:
                return pool.executor(), pool
            except Exception:
                # A broken registry entry (e.g. executor shut down behind
                # our back): replace and retry once before giving up.
                pool.replace()
                return pool.executor(), pool
        executor = ProcessPoolExecutor(max_workers=self.n_workers, mp_context=self.mp_context)
        return executor, None

    def _map_process_pool(self, fn, payloads, ids) -> BatchResult:
        # Work-stealing stride: one job per pool task by default, so idle
        # workers pull pending jobs instead of waiting behind a straggler's
        # contiguous chunk.  Determinism is untouched — results land in
        # values[index] regardless of completion order.
        chunk_size = self.chunk_size or 1
        indexed = list(enumerate(payloads))
        chunks = [indexed[i : i + chunk_size] for i in range(0, len(indexed), chunk_size)]

        values: List[Any] = [None] * len(payloads)
        failures: List[JobFailure] = []
        aborted = False

        def harvest(chunk_results) -> None:
            for index, tag, payload in chunk_results:
                if tag == "ok":
                    values[index] = payload
                else:
                    error_type, message, tb = payload
                    failures.append(
                        JobFailure(
                            index=index,
                            job_id=ids[index],
                            kind="error",
                            error_type=error_type,
                            message=message,
                            traceback_text=tb,
                        )
                    )

        executor, pool = self._acquire_executor()
        try:
            try:
                futures = [(chunk, executor.submit(_run_chunk, fn, chunk)) for chunk in chunks]
            except (BrokenProcessPool, RuntimeError):
                # The shared executor died between batches; replace it and
                # resubmit the whole batch on a fresh pool.
                if pool is None:
                    raise
                pool.replace(executor)
                executor = pool.executor()
                futures = [(chunk, executor.submit(_run_chunk, fn, chunk)) for chunk in chunks]
            for chunk, future in futures:
                if aborted:
                    # The pool is gone; keep whatever already finished and
                    # fail the rest without waiting.
                    if future.cancelled():
                        failures.extend(self._fail_chunk(chunk, ids, "cancelled"))
                    elif future.done():
                        exc = future.exception()
                        if exc is None:
                            harvest(future.result())
                        else:
                            failures.extend(self._fail_chunk(chunk, ids, "crash", exc))
                    else:
                        future.cancel()
                        failures.extend(self._fail_chunk(chunk, ids, "cancelled"))
                    continue
                deadline = None if self.timeout is None else self.timeout * len(chunk)
                try:
                    harvest(future.result(timeout=deadline))
                except FutureTimeoutError:
                    failures.extend(self._fail_chunk(chunk, ids, "timeout"))
                    self._kill_workers(executor)
                    aborted = True
                except (BrokenProcessPool, CancelledError) as exc:
                    # CancelledError: a concurrent batch's timeout tore the
                    # shared executor down under this one.
                    failures.extend(self._fail_chunk(chunk, ids, "crash", exc))
                    aborted = True
        finally:
            if pool is not None:
                pool.record_batch()
                if aborted:
                    # Crashed or timed out: discard the executor so the
                    # next batch transparently gets a fresh pool.
                    pool.replace(executor)
            else:
                executor.shutdown(wait=not aborted, cancel_futures=True)

        failures.sort(key=lambda f: f.index)
        return BatchResult(
            values=values,
            failures=failures,
            n_workers=self.n_workers,
            chunk_size=chunk_size,
            backend="process",
        )

    # ------------------------------------------------------------------ #
    # failure bookkeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _job_ids(payloads, job_ids) -> List[str]:
        if job_ids is None:
            return [getattr(p, "job_id", f"job-{i:04d}") for i, p in enumerate(payloads)]
        ids = list(job_ids)
        if len(ids) != len(payloads):
            raise ValueError(f"{len(ids)} job ids for {len(payloads)} payloads")
        return ids

    @staticmethod
    def _fail_chunk(chunk, ids, kind, exc: Optional[BaseException] = None) -> List[JobFailure]:
        error_type = type(exc).__name__ if exc is not None else ""
        message = str(exc) if exc is not None else ""
        return [
            JobFailure(
                index=index, job_id=ids[index], kind=kind, error_type=error_type, message=message
            )
            for index, _ in chunk
        ]

    @staticmethod
    def _kill_workers(executor: ProcessPoolExecutor) -> None:
        """Terminate worker processes after a timeout (best effort)."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
