"""Scheduling-as-a-service: the asyncio HTTP job server.

The package turns the batch runner into a long-running multi-tenant
service without adding any dependency beyond the standard library:

* :mod:`repro.service.http` — a minimal HTTP/1.1 layer over asyncio
  streams (request parsing, JSON responses; ``Connection: close``).
* :mod:`repro.service.queue` — the fair per-client FIFO queue and the
  in-memory job table (lifecycle states, cancellation flags, per-client
  policy and spend accounting).
* :mod:`repro.service.server` — :class:`JobServer` (the asyncio server
  plus the dispatcher that drains the queue through
  :func:`repro.api.schedule_many`, i.e. the exact batch-runner path:
  shared persistent pool, content-addressed result cache) and
  :class:`ServerThread` (a context manager running a server on a
  background thread for tests, benchmarks and docs examples).
* :mod:`repro.service.client` — :class:`ServiceClient`, a blocking
  ``http.client`` wrapper speaking :class:`repro.api.ScheduleRequest` /
  :class:`repro.api.ScheduleResponse` on the wire.

Determinism: dispatch goes through the same execution core as the batch
runner and the same content-addressed cache, so every schedule returned
over HTTP is byte-identical (digest + dp_work) to the batch path and
repeated submissions are warm cache hits — the perf gate
(``scripts/check_perf_regression.py``) checks the invariant on the
``service`` section of ``BENCH_vcs.json``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import ClientState, FairQueue, ServiceJob
from repro.service.server import JobServer, ServerThread

__all__ = [
    "ClientState",
    "FairQueue",
    "JobServer",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceJob",
]
