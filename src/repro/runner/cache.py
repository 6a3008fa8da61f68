"""Content-addressed on-disk cache of scheduling results, as JSON.

A scheduling job is a pure function of (block, machine, backend spec)
plus the code revision.  :func:`repro.scheduler.fingerprint.request_cache_key`
hashes the canonical wire form of those inputs into one SHA-256 key, and
this module maps that key to one JSON document on disk.  A warm suite
re-run therefore recomputes only cells whose inputs (or the code salt)
changed; the gated 12-cell matrix re-runs with zero recomputed cells.

Layout and guarantees:

* Root directory defaults to ``~/.cache/repro``; ``REPRO_CACHE_DIR``
  overrides it and ``REPRO_CACHE=off`` disables the cache entirely.
* Entries live at ``<root>/<salt>/<key[:2]>/<key>.json`` — the salt is a
  path component, so bumping :data:`~repro.scheduler.fingerprint.CODE_SALT`
  invalidates every old entry at once without touching the disk.
* One entry (:func:`result_entry`) holds its own key, the
  :class:`~repro.api.ScheduleResponse` fields of the result
  (:func:`response_fields`: digest, fingerprint, ``dp_work``, AWCT,
  flags, policy summary), and what else a ``ScheduleResult`` carries:
  the schedule's cycles, clusters, comms and provenance in their
  original order, ``stats``, ``stage_timings`` and the AWCT-target count.
* Writes are atomic: JSON to a unique temp file in the entry's
  directory, then ``os.replace`` — concurrent workers storing the same
  key cannot interleave partial writes, and a reader sees either the
  complete old entry or the complete new one.
* A corrupt, truncated or foreign entry (not JSON, or not an entry for
  its key) is treated as a miss and removed best-effort; the job simply
  recomputes.  No entry is ever unpickled.
* Hits are answered without objects where the caller has none: the job
  server replies to a hit from the entry's response fields alone, with
  no ``Superblock``, ``ClusteredMachine`` or ``ScheduleResult`` built.
  :func:`repro.api.schedule_many` looks every key up in its own process,
  rebuilds each hit's ``ScheduleResult`` from the entry plus the job's
  own block and machine (:func:`result_from_entry`) and sends only the
  misses to the worker pool, whose workers compute and store them and
  never read.  :class:`CacheStats` counts the hits/misses/stores of one
  batch as ``BatchResult.cache``.

Cache hits are byte-identical to cold runs: the entry is written from
the full cold ``ScheduleResult``, and every field a fingerprint, a
response or a ``ScheduleResult`` comparison reads survives the JSON
round trip.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.config import env_knob, parse_cache, parse_cache_dir
from repro.ir.superblock import Superblock
from repro.machine.machine import ClusteredMachine
from repro.scheduler.fingerprint import CODE_SALT, fingerprint_digest
from repro.scheduler.schedule import Schedule, ScheduledComm, ScheduleResult

#: Environment switch: ``REPRO_CACHE=off`` (or ``0``/``false``) disables
#: the result cache entirely.
CACHE_ENV_VAR = env_knob("cache").env
#: Environment override for the cache root directory.
CACHE_DIR_ENV_VAR = env_knob("cache_dir").env


def cache_enabled() -> bool:
    """Whether the result cache is enabled (``REPRO_CACHE``).

    Parse rule shared with :class:`repro.config.RuntimeConfig`.
    """
    return parse_cache(os.environ.get(CACHE_ENV_VAR, "on"))


def default_cache_dir() -> Path:
    """The cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(parse_cache_dir(os.environ.get(CACHE_DIR_ENV_VAR, "")))


@dataclass
class CacheStats:
    """Hit/miss/store counters for one batch or suite run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record(self, outcome: str) -> None:
        """Fold one per-job outcome tag into the counters."""
        if outcome == "hit":
            self.hits += 1
        elif outcome == "miss":
            self.misses += 1
            self.stores += 1

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "lookups": self.lookups,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class CacheSpec:
    """A picklable description of the cache a worker should use.

    Shipped inside job payloads so worker processes never consult the
    environment (a persistent pool's workers may have been spawned
    before the environment was mutated).  ``enabled=False`` is the
    explicit "no caching" spec.
    """

    root: str = ""
    salt: str = CODE_SALT
    enabled: bool = True

    @staticmethod
    def from_env(
        cache_dir: Optional[str] = None, enabled: Optional[bool] = None
    ) -> "CacheSpec":
        """The cache spec the current environment asks for, with optional
        explicit overrides (CLI flags win over env)."""
        if enabled is None:
            enabled = cache_enabled()
        root = str(Path(cache_dir) if cache_dir else default_cache_dir())
        return CacheSpec(root=root, salt=CODE_SALT, enabled=enabled)

    @staticmethod
    def disabled() -> "CacheSpec":
        return CacheSpec(root="", salt=CODE_SALT, enabled=False)

    def open(self) -> Optional["ResultCache"]:
        """The :class:`ResultCache` this spec describes, or ``None``."""
        if not self.enabled or not self.root:
            return None
        return ResultCache(Path(self.root), salt=self.salt)


def resolve_cache_spec(cache: object) -> CacheSpec:
    """The :class:`CacheSpec` a ``cache=`` argument names: ``None``
    follows the environment, a spec is itself, a :class:`ResultCache`
    gives its own spec."""
    if cache is None:
        return CacheSpec.from_env()
    if isinstance(cache, CacheSpec):
        return cache
    if isinstance(cache, ResultCache):
        return cache.spec()
    raise TypeError(f"cache must be None, a CacheSpec or a ResultCache, got {type(cache).__name__}")


# --------------------------------------------------------------------------- #
# the JSON entry
# --------------------------------------------------------------------------- #

#: The keys of :func:`response_fields`: every ``ScheduleResponse`` field
#: except the per-submission ones (``job_id``, ``state``, ``cache``,
#: ``failure``, ``wall_s``).
RESPONSE_FIELDS = frozenset(
    {
        "scheduler",
        "block",
        "machine",
        "ok",
        "work",
        "digest",
        "fingerprint",
        "awct",
        "total_cycles",
        "fallback_used",
        "timed_out",
        "policy",
    }
)
#: The keys of one stored entry.
ENTRY_FIELDS = frozenset(
    {"key", "response", "schedule", "wall_time", "awct_target_steps", "stats", "stage_timings"}
)


def response_fields(result: ScheduleResult) -> dict:
    """The deterministic response summary of *result* (the
    :data:`RESPONSE_FIELDS` of a ``ScheduleResponse``)."""
    fingerprint = result.fingerprint()
    return {
        "scheduler": result.scheduler,
        "block": result.block.name,
        "machine": result.machine.name,
        "ok": result.ok,
        "work": result.work,
        "digest": fingerprint_digest([fingerprint]),
        "fingerprint": fingerprint,
        "awct": result.awct if result.ok else 0.0,
        "total_cycles": result.total_cycles if result.ok else 0.0,
        "fallback_used": result.fallback_used,
        "timed_out": result.timed_out,
        "policy": result.policy,
    }


def result_entry(key: str, result: ScheduleResult) -> dict:
    """The JSON document stored for *result* under *key*."""
    schedule = None
    if result.schedule is not None:
        schedule = {
            "cycles": list(result.schedule.cycles.items()),
            "clusters": list(result.schedule.clusters.items()),
            "comms": [
                [comm.value, comm.producer, comm.cycle, comm.src_cluster, comm.dst_cluster]
                for comm in result.schedule.comms
            ],
            "provenance": result.schedule.provenance,
        }
    return {
        "key": key,
        "response": response_fields(result),
        "schedule": schedule,
        "wall_time": result.wall_time,
        "awct_target_steps": result.awct_target_steps,
        "stats": result.stats,
        "stage_timings": result.stage_timings,
    }


def result_from_entry(entry: dict, block: Superblock, machine: ClusteredMachine) -> ScheduleResult:
    """The ``ScheduleResult`` an entry was written from, rebuilt around
    the job's own *block* and *machine* (which the entry's key covers)."""
    response = entry["response"]
    stored = entry["schedule"]
    schedule = None
    if stored is not None:
        schedule = Schedule(
            block=block,
            machine=machine,
            cycles=dict(stored["cycles"]),
            clusters=dict(stored["clusters"]),
            comms=[ScheduledComm(*comm) for comm in stored["comms"]],
            provenance=stored["provenance"],
        )
    return ScheduleResult(
        scheduler=response["scheduler"],
        block=block,
        machine=machine,
        schedule=schedule,
        work=response["work"],
        wall_time=entry["wall_time"],
        timed_out=response["timed_out"],
        awct_target_steps=entry["awct_target_steps"],
        fallback_used=response["fallback_used"],
        stats=entry["stats"],
        stage_timings=entry["stage_timings"],
        policy=response["policy"],
    )


def _is_entry(entry: object, key: str) -> bool:
    """Whether a decoded file is the entry stored for *key*."""
    return (
        isinstance(entry, dict)
        and entry.keys() == ENTRY_FIELDS
        and entry["key"] == key
        and isinstance(entry["response"], dict)
        and entry["response"].keys() == RESPONSE_FIELDS
    )


class ResultCache:
    """The on-disk store: key -> one JSON entry (see :func:`result_entry`)."""

    def __init__(self, root: Path, salt: str = CODE_SALT):
        self.root = Path(root)
        self.salt = salt

    def spec(self) -> CacheSpec:
        return CacheSpec(root=str(self.root), salt=self.salt, enabled=True)

    def _path(self, key: str) -> Path:
        return self.root / self.salt / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored entry for *key*, or ``None`` on a miss.

        A file that is not JSON, or not the entry for *key*, counts as a
        miss and is removed best-effort so the next store rewrites it
        cleanly.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                entry = json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            entry = None
        if not _is_entry(entry, key):
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return entry

    def put(self, key: str, result: ScheduleResult) -> None:
        """Store *result* under *key* atomically (tmp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(result_entry(key, result), separators=(",", ":")))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()


# Per-process open cache handles, keyed by (root, salt) so a process
# serving jobs with different cache specs keeps them separate.
_PROCESS_CACHES: dict = {}


def process_cache(spec: CacheSpec) -> Optional[ResultCache]:
    """This process's cache handle for *spec* (interned per process;
    the batch caller reads through it, pool workers store through it)."""
    if not spec.enabled or not spec.root:
        return None
    key = (spec.root, spec.salt)
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        cache = ResultCache(Path(spec.root), salt=spec.salt)
        _PROCESS_CACHES[key] = cache
    return cache
