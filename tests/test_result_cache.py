"""Tests for the content-addressed result cache (``repro.runner.cache``).

The invariant under test: a cache **hit** is byte-identical to a cold
compute — same schedule fingerprint, same deterministic work counter,
same stats dict — for any (block, machine, backend) triple, because the
cache key covers exactly the inputs the scheduler's determinism is
stated over, edge order included.  Alongside it: invalidation on the
code-version salt, atomicity under concurrent writers, recovery from
corrupt or foreign JSON entries, and the environment knobs
(``REPRO_CACHE``/``REPRO_CACHE_DIR``).
"""

import json
import multiprocessing
import os
import random
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import paper_2c_8i_1lat, paper_4c_16i_1lat, paper_4c_16i_2lat
from repro.api import ScheduleRequest, schedule_many
from repro.runner import (
    BatchScheduler,
    CacheSpec,
    CacheStats,
    ResultCache,
    cache_enabled,
    default_cache_dir,
    enumerate_workload_jobs,
    fingerprint_digest,
    run_schedule_job,
    shared_pool_stats,
)
from repro.runner.cache import result_entry, result_from_entry
from repro.scheduler import VcsConfig, block_digest, machine_digest, schedule_cache_key
from repro.scheduler.fingerprint import block_from_dict, block_to_dict
from repro.scheduler.policy import SchedulePolicy
from repro.service import ServerThread, ServiceClient
from repro.workloads import GeneratorConfig, SuperblockGenerator, profile_by_name

MACHINES = {
    "2c": paper_2c_8i_1lat,
    "4c-1lat": paper_4c_16i_1lat,
    "4c-2lat": paper_4c_16i_2lat,
}


def _random_block(seed: int, size: int, ilp: float):
    config = GeneratorConfig(min_ops=size, max_ops=size, ilp=ilp, exit_every=5)
    return SuperblockGenerator(config, seed=seed).generate(f"cache/{seed}")


def _jobs_for(block, machine, scheduler):
    return enumerate_workload_jobs(
        "cache-test",
        [block],
        machine,
        vcs_config=VcsConfig(work_budget=20_000),
        schedulers=[scheduler],
    )


# --------------------------------------------------------------------------- #
# the round-trip property
# --------------------------------------------------------------------------- #
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(5, 14),
    ilp=st.floats(1.5, 5.0),
    machine_key=st.sampled_from(sorted(MACHINES)),
    scheduler=st.sampled_from(["cars", "vcs"]),
)
@settings(max_examples=10, deadline=None)
def test_cache_hit_is_byte_identical_to_cold_compute(
    seed, size, ilp, machine_key, scheduler
):
    block = _random_block(seed, size, ilp)
    machine = MACHINES[machine_key]()
    jobs = _jobs_for(block, machine, scheduler)
    with tempfile.TemporaryDirectory() as root:
        spec = CacheSpec(root=root)
        cold = schedule_many(jobs, cache=spec)
        warm = schedule_many(jobs, cache=spec)
    uncached = schedule_many(jobs, cache=CacheSpec.disabled())

    assert cold.cache.hits == 0 and cold.cache.stores == 1
    assert warm.cache.hits == 1 and warm.cache.misses == 0
    for a, b in zip(cold.values + uncached.values, warm.values):
        assert a.fingerprint() == b.fingerprint()
        assert a.work == b.work
        assert a.stats == b.stats


# --------------------------------------------------------------------------- #
# keying and invalidation
# --------------------------------------------------------------------------- #
class TestCacheKey:
    def test_key_discriminates_every_coordinate(self):
        block_a = _random_block(1, 8, 2.0)
        block_b = _random_block(2, 8, 2.0)
        machine = paper_2c_8i_1lat()
        job = _jobs_for(block_a, machine, "vcs")[0]
        spec_dict = job.spec.to_dict()
        base = schedule_cache_key(block_a, machine, spec_dict)
        assert base == schedule_cache_key(block_a, machine, spec_dict)
        assert base != schedule_cache_key(block_b, machine, spec_dict)
        assert base != schedule_cache_key(block_a, paper_4c_16i_1lat(), spec_dict)
        other_spec = _jobs_for(block_a, machine, "cars")[0].spec.to_dict()
        assert base != schedule_cache_key(block_a, machine, other_spec)

    def test_salt_change_invalidates(self, tmp_path):
        block = _random_block(7, 8, 2.5)
        machine = paper_2c_8i_1lat()
        jobs = _jobs_for(block, machine, "cars")
        root = str(tmp_path)
        first = schedule_many(jobs, cache=CacheSpec(root=root, salt="v1"))
        stale = schedule_many(jobs, cache=CacheSpec(root=root, salt="v2"))
        fresh = schedule_many(jobs, cache=CacheSpec(root=root, salt="v1"))
        # A new code-version salt never reads old entries...
        assert stale.cache.hits == 0 and stale.cache.stores == 1
        # ...and the old salt's entries are still intact.
        assert fresh.cache.hits == 1
        assert first.values[0].fingerprint() == stale.values[0].fingerprint()

    def test_digest_helpers_are_stable(self):
        block = _random_block(3, 8, 2.0)
        machine = paper_4c_16i_2lat()
        assert block_digest(block) == block_digest(block)
        assert machine_digest(machine) == machine_digest(machine)
        assert block_digest(block) != block_digest(_random_block(4, 8, 2.0))


# --------------------------------------------------------------------------- #
# edge order is part of the key
# --------------------------------------------------------------------------- #
def _go_block():
    """``099.go/c0000``: the first block of the compile workload at seed 3
    (the 099.go profile, reseeded by the workload's first draw, at the
    middle of its size range)."""
    profile = profile_by_name("099.go")
    seed = random.Random("perfbench|compile|3").randrange(1 << 31)
    config = profile.generator
    n_ops = config.min_ops + (config.max_ops - config.min_ops + 1) // 2
    generator = SuperblockGenerator(replace(config, min_ops=n_ops, max_ops=n_ops), seed)
    return generator.generate("099.go/c0000", index=0)


def _shuffled_edges(block, seed=0):
    """*block* rebuilt with its edges inserted in a shuffled order."""
    wire = block_to_dict(block)
    random.Random(seed).shuffle(wire["edges"])
    return block_from_dict(wire)


class TestEdgeOrderKey:
    def test_shuffled_edges_get_their_own_key(self):
        block = _go_block()
        twin = _shuffled_edges(block)
        machine = paper_2c_8i_1lat()
        spec_dict = ScheduleRequest(block=block, machine=machine).spec.to_dict()
        assert block_digest(twin) != block_digest(block)
        assert schedule_cache_key(twin, machine, spec_dict) != schedule_cache_key(
            block, machine, spec_dict
        )

    def test_warm_http_hit_matches_a_cold_compute_of_the_same_body(self, tmp_path):
        """dp_work depends on edge insertion order, so an edge-shuffled twin
        must never be served the original's entry: its warm hit reports the
        work and digest of a cold in-process compute of its own body."""
        budget = SchedulePolicy("finalize_partial", max_dp_work=20000)
        request = ScheduleRequest(block=_go_block(), machine=paper_2c_8i_1lat(), policy=budget)
        twin = replace(request, block=_shuffled_edges(request.block))
        body = json.loads(json.dumps(twin.to_dict()))
        cold = run_schedule_job(ScheduleRequest.from_dict(body).job())
        with ServerThread(
            runner=BatchScheduler(jobs=1), cache=CacheSpec(root=str(tmp_path))
        ) as server:
            client = ServiceClient(server.url)
            original = client.schedule(request)
            first = client.schedule(twin)
            warm = client.schedule(twin)
        assert (original.work, cold.work) == (3656, 3620)
        assert (first.cache, warm.cache) == ("miss", "hit")
        assert warm.work == first.work == cold.work
        assert warm.digest == fingerprint_digest([cold.fingerprint()])


# --------------------------------------------------------------------------- #
# atomicity and corruption
# --------------------------------------------------------------------------- #
def _result():
    """One small finished vcs result to store."""
    job = _jobs_for(_random_block(5, 8, 2.0), paper_2c_8i_1lat(), "vcs")[0]
    return run_schedule_job(job)


def _store_same_key(args):
    """Worker: open the cache and store *result* under *key*."""
    root, key, result = args
    cache = ResultCache(root)
    cache.put(key, result)
    return cache.get(key)


class TestAtomicity:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Two processes racing to store the same key must both leave the
        entry readable — the atomic tmp-rename protocol guarantees a
        reader never observes a partial write."""
        root = str(tmp_path)
        key = "ab" + "0" * 62
        result = _result()
        entry = json.loads(json.dumps(result_entry(key, result)))
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            results = pool.map(_store_same_key, [(root, key, result), (root, key, result)])
        assert results == [entry, entry]
        assert ResultCache(root).get(key) == entry

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "1" * 62
        cache.put(key, _result())
        path = cache._path(key)
        path.write_bytes(b"not json")
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entries must be evicted"
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "foreign",
        [
            b'{"answer": 42}',
            b"[1, 2, 3]",
            b"null",
            b'{"key": "x", "response": {}, "schedule": null, "wall_time": 0,'
            b' "awct_target_steps": 0, "stats": {}, "stage_timings": {}}',
        ],
    )
    def test_foreign_json_is_a_miss_and_removed(self, tmp_path, foreign):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "3" * 62
        cache.put(key, _result())
        path = cache._path(key)
        path.write_bytes(foreign)
        assert cache.get(key) is None
        assert not path.exists()

    def test_entry_of_another_key_is_foreign(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key, other = "aa" + "4" * 62, "aa" + "5" * 62
        cache.put(key, _result())
        cache._path(key).rename(cache._path(other))
        assert cache.get(other) is None

    def test_put_then_get_round_trips_json_exactly(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ef" + "2" * 62
        result = _result()
        cache.put(key, result)
        path = cache._path(key)
        assert path.suffix == ".json"
        entry = cache.get(key)
        assert json.loads(path.read_text()) == entry
        assert entry == json.loads(json.dumps(result_entry(key, result)))
        assert key in cache
        rebuilt = result_from_entry(entry, result.block, result.machine)
        assert rebuilt.fingerprint() == result.fingerprint()
        assert rebuilt.schedule.cycles == result.schedule.cycles
        assert list(rebuilt.schedule.cycles) == list(result.schedule.cycles)
        assert rebuilt.schedule.comms == result.schedule.comms
        assert rebuilt.awct == result.awct
        for name in ("work", "wall_time", "awct_target_steps", "stats", "stage_timings"):
            assert getattr(rebuilt, name) == getattr(result, name), name


# --------------------------------------------------------------------------- #
# stats and environment knobs
# --------------------------------------------------------------------------- #
class TestStatsAndEnv:
    def test_stats_accounting(self):
        stats = CacheStats()
        stats.record("hit")
        stats.record("miss")
        stats.record("off")
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.lookups == 2 and stats.hit_rate == 0.5
        other = CacheStats(hits=3)
        stats.merge(other)
        assert stats.hits == 4
        assert stats.to_dict()["hits"] == 4

    def test_cache_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled()
        for off in ("off", "0", "false", "no"):
            monkeypatch.setenv("REPRO_CACHE", off)
            assert not cache_enabled()

    def test_spec_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        spec = CacheSpec.from_env()
        assert spec.enabled and spec.root == str(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not CacheSpec.from_env().enabled
        assert not CacheSpec.disabled().enabled

    def test_default_dir_under_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(os.path.join(".cache", "repro"))


# --------------------------------------------------------------------------- #
# cache + parallel runner
# --------------------------------------------------------------------------- #
class TestParallelCache:
    def test_warm_hits_cross_process_boundary(self, tmp_path):
        """Results stored by a serial run must be served as hits to a
        batch on a process pool (hits are read in the calling process)."""
        block = _random_block(11, 10, 3.0)
        machine = paper_2c_8i_1lat()
        jobs = _jobs_for(block, machine, "cars") + _jobs_for(block, machine, "vcs")
        spec = CacheSpec(root=str(tmp_path))
        cold = schedule_many(jobs, cache=spec)
        warm = schedule_many(jobs, runner=BatchScheduler(jobs=2), cache=spec)
        assert cold.cache.stores == len(jobs)
        assert warm.cache.hits == len(jobs) and warm.cache.misses == 0
        for a, b in zip(cold.values, warm.values):
            assert a.fingerprint() == b.fingerprint()
            assert a.stats == b.stats

    def test_warm_batch_never_touches_the_pool(self, tmp_path):
        """Cache hits are answered in the calling process: a warm batch
        neither spins the shared pool up nor dispatches a batch to it,
        and only the misses of a mixed batch reach the workers."""
        block = _random_block(12, 10, 3.0)
        machine = paper_2c_8i_1lat()
        jobs = _jobs_for(block, machine, "cars") + _jobs_for(block, machine, "vcs")
        spec = CacheSpec(root=str(tmp_path))
        runner = BatchScheduler(jobs=2)
        cold = schedule_many(jobs, runner=runner, cache=spec)
        before = shared_pool_stats()["2"]
        warm = schedule_many(jobs, runner=runner, cache=spec)
        assert shared_pool_stats()["2"] == before
        assert warm.backend == "cache"
        assert warm.cache_outcomes == ["hit", "hit"]
        for a, b in zip(cold.values, warm.values):
            assert a.fingerprint() == b.fingerprint()

        extra = _jobs_for(_random_block(13, 10, 3.0), machine, "cars")
        mixed = schedule_many(jobs + extra, runner=runner, cache=spec)
        assert mixed.cache_outcomes == ["hit", "hit", "miss"]
        assert shared_pool_stats()["2"]["batches_served"] == before["batches_served"] + 1
