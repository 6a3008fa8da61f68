"""A persistent, process-wide worker pool shared across batches.

Spinning up a ``ProcessPoolExecutor`` costs forked/spawned interpreters,
package re-imports and warm-up of every per-process cache — a price the
old per-batch executors paid on *every* ``run_batch``/matrix/suite call,
which is why ``REPRO_JOBS=2`` used to run the suite *slower* than serial
on small batches.  This module keeps one executor per (worker count,
start method) alive for the life of the process:

* :func:`shared_pool` returns the process-wide :class:`PersistentPool`
  for a worker count, creating its executor lazily on first use and
  reusing it across every subsequent batch (``atexit`` tears the pools
  down; :class:`PersistentPool` is also a context manager for scoped
  use).
* Workers are **warm**: the pool initializer pre-imports the scheduler,
  machine and workload layers so the first real job does not pay the
  import cost, and :func:`resolve_machine` interns reconstructed
  machines per worker keyed by machine digest — repeated jobs on the
  same machine spec ship only the small spec dict (and after the first
  resolution hit only the digest lookup), not a re-pickled
  ``ClusteredMachine`` dragging its cached capacity tables along.
* After a worker crash (``BrokenProcessPool``) or a timeout teardown the
  batch layer calls :meth:`PersistentPool.replace`, which discards the
  broken executor; the next batch transparently spins up a fresh one —
  per-job failure taxonomy is unchanged.

``REPRO_POOL=fresh`` (or ``off``) disables reuse globally and restores
the historical executor-per-batch behaviour.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.config import env_knob, parse_pool

#: Environment variable selecting the pool policy: ``persistent`` (the
#: default; one shared executor per worker count, reused across batches)
#: or ``fresh``/``off`` (one executor per batch, the historical mode).
POOL_ENV_VAR = env_knob("pool").env


def pool_reuse_enabled() -> bool:
    """Whether the shared persistent pool is enabled (``REPRO_POOL``).

    Parse rule shared with :class:`repro.config.RuntimeConfig`.
    """
    return parse_pool(os.environ.get(POOL_ENV_VAR, "persistent"))


def _warm_worker() -> None:
    """Worker initializer: pre-import the packages every job needs."""
    import repro.machine  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.scheduler  # noqa: F401
    import repro.workloads  # noqa: F401


class PersistentPool:
    """One lazily-created ``ProcessPoolExecutor`` that outlives batches.

    The executor is created on first :meth:`executor` call and reused
    until :meth:`replace` (after a crash/timeout) or :meth:`shutdown`.
    ``spin_ups`` counts executor creations and ``batches_served`` the
    batches dispatched through the pool — the reuse evidence the bench
    report records.
    """

    def __init__(self, n_workers: int, mp_context: Optional[object] = None):
        self.n_workers = n_workers
        self.mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self.spin_ups = 0
        self.batches_served = 0

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created (and counted) on first use."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=self.mp_context,
                    initializer=_warm_worker,
                )
                self.spin_ups += 1
            return self._executor

    def replace(self, broken: Optional[ProcessPoolExecutor] = None) -> None:
        """Discard the current executor (crashed or torn down after a
        timeout); the next :meth:`executor` call creates a fresh one.

        With *broken*, only that executor is discarded: batches running
        concurrently on one pool may all see it break, and the later ones
        must not tear down the fresh executor an earlier one already got.
        """
        with self._lock:
            if broken is not None and self._executor is not broken:
                return
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def record_batch(self) -> None:
        """Count one batch dispatched through the pool (batches may run
        concurrently from several threads)."""
        with self._lock:
            self.batches_served += 1

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    @property
    def alive(self) -> bool:
        return self._executor is not None

    def stats(self) -> Dict[str, int]:
        return {
            "n_workers": self.n_workers,
            "spin_ups": self.spin_ups,
            "batches_served": self.batches_served,
        }

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


_POOLS: Dict[Tuple[int, int], PersistentPool] = {}
_POOLS_LOCK = threading.Lock()


def shared_pool(n_workers: int, mp_context: Optional[object] = None) -> PersistentPool:
    """The process-wide pool for *n_workers* (one per worker count and
    multiprocessing context), created on first request."""
    key = (n_workers, id(mp_context))
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = PersistentPool(n_workers, mp_context)
            _POOLS[key] = pool
        return pool


def shutdown_shared_pools(wait: bool = False) -> None:
    """Tear every shared pool down (atexit hook; also used by tests)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


def shared_pool_stats() -> Dict[str, Dict[str, int]]:
    """Spin-up/reuse counters of every live shared pool, keyed by worker
    count (the bench report's pool-reuse evidence)."""
    with _POOLS_LOCK:
        return {str(pool.n_workers): pool.stats() for pool in _POOLS.values()}


atexit.register(shutdown_shared_pools)


# --------------------------------------------------------------------------- #
# warm-worker machine interning
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MachineRef:
    """A machine shipped as (digest, declarative spec dict) instead of a
    pickled ``ClusteredMachine``.

    The digest keys the worker-side intern table; the spec dict is only
    consulted on the first job a worker sees for that machine, so the
    per-job payload stays small and the reconstructed machine's cached
    capacity tables warm up once per worker instead of once per job.
    """

    digest: str
    spec: Tuple[Tuple[str, object], ...]

    @staticmethod
    def of(machine) -> "MachineRef":
        from repro.scheduler.fingerprint import machine_digest, machine_fingerprint

        return MachineRef(
            digest=machine_digest(machine),
            spec=_freeze(machine_fingerprint(machine)),
        )


def _freeze(mapping: Mapping) -> Tuple[Tuple[str, object], ...]:
    """A hashable, picklable deep-frozen view of a JSON-style dict."""
    out = []
    for key, value in sorted(mapping.items()):
        if isinstance(value, Mapping):
            value = _freeze(value)
        elif isinstance(value, (list, tuple)):
            value = tuple(
                _freeze(item) if isinstance(item, Mapping) else item for item in value
            )
        out.append((key, value))
    return tuple(out)


def _thaw(frozen: Tuple[Tuple[str, object], ...]) -> dict:
    out: dict = {}
    for key, value in frozen:
        if isinstance(value, tuple) and value and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            value = _thaw(value)  # type: ignore[arg-type]
        elif isinstance(value, tuple):
            value = [
                _thaw(item) if isinstance(item, tuple) else item for item in value
            ]
        out[key] = value
    return out


#: Worker-local intern table: machine digest -> reconstructed machine.
_MACHINES: Dict[str, object] = {}


def resolve_machine(ref: MachineRef):
    """The interned machine for *ref*, reconstructing it on first sight."""
    machine = _MACHINES.get(ref.digest)
    if machine is None:
        from repro.machine.spec import MachineSpec

        machine = MachineSpec.from_dict(_thaw(ref.spec)).to_machine()
        _MACHINES[ref.digest] = machine
    return machine
