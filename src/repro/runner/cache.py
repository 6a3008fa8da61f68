"""Content-addressed on-disk cache of :class:`ScheduleResult`\\ s.

A scheduling job is a pure function of (block, machine, backend spec)
plus the code revision — :mod:`repro.scheduler.fingerprint` folds those
into one SHA-256 key, and this module maps that key to a pickled
:class:`~repro.scheduler.schedule.ScheduleResult` on disk.  A warm suite
re-run therefore recomputes only cells whose inputs (or the code salt)
changed; the gated 12-cell matrix re-runs with zero recomputed cells.

Layout and guarantees:

* Root directory defaults to ``~/.cache/repro``; ``REPRO_CACHE_DIR``
  overrides it and ``REPRO_CACHE=off`` disables the cache entirely.
* Entries live at ``<root>/<salt>/<key[:2]>/<key>.pkl`` — the salt is a
  path component, so bumping :data:`~repro.scheduler.fingerprint.CODE_SALT`
  invalidates every old entry at once without touching the disk.
* Writes are atomic: pickle to a unique temp file in the entry's
  directory, then ``os.replace`` — concurrent workers storing the same
  key cannot interleave partial writes, and a reader sees either the
  complete old entry or the complete new one.
* A corrupt/truncated/unreadable entry is treated as a miss (and
  removed best-effort); the job simply recomputes.
* Hits are read in the caller: :func:`repro.api.schedule_many` looks
  every key up in its own process and sends only the misses to the
  worker pool, whose workers compute and store them and never read.
  :class:`CacheStats` counts the hits/misses/stores of one batch as
  ``BatchResult.cache``.

Cache hits are byte-identical to cold runs by construction: the stored
object is the full ``ScheduleResult`` (schedule, stats, dp_work,
fingerprints), serialized after the cold compute.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.config import env_knob, parse_cache, parse_cache_dir
from repro.scheduler.fingerprint import CODE_SALT

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


class ResultCache:
    """The on-disk store: key -> pickled ``ScheduleResult``."""

    def __init__(self, root: Path, salt: str = CODE_SALT):
        self.root = Path(root)
        self.salt = salt
        self.stats = CacheStats()

    def spec(self) -> CacheSpec:
        return CacheSpec(root=str(self.root), salt=self.salt, enabled=True)

    def _path(self, key: str) -> Path:
        return self.root / self.salt / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached result for *key*, or ``None`` on a miss.

        Unpickling failures (corrupt or truncated entries) count as
        misses; the bad entry is removed best-effort so the next store
        rewrites it cleanly.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result) -> None:
        """Store *result* under *key* atomically (tmp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

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
