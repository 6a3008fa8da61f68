"""Tests for the asyncio HTTP job server (``repro.service``).

The contract under test: the service is a *transport*, not a scheduler —
every job dispatched over HTTP flows through the identical
:func:`repro.api.schedule_many` path as a local batch, so responses are
byte-identical to batch results (digest and ``dp_work``), repeated
submissions are result-cache hits, and the failure taxonomy
(error/timeout/crash/cancelled) passes through unchanged.  On top of
that, the fair per-client queue must not let a slow tenant starve a
fast one, a tenant's default :class:`SchedulePolicy` must follow its
jobs (budget exhaustion lands as a ``finalize_partial`` result), and
cancellation works both while queued (immediate) and mid-run
(cooperative).  On a multi-worker pool, jobs overlap: a warm hit is
answered while a miss is still running, and a per-job timeout preempts
a running job without wedging the server.  A warm hit of a
self-contained body is answered inside the POST handler, with the same
accounting as a hit found on the slow path, and read deadlines keep an
idle or half-sent request from pinning a handler.
"""

import json
import pickle
import random
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api import ScheduleRequest, schedule_many
from repro.machine import paper_2c_8i_1lat
from repro.runner import BatchScheduler, CacheSpec, fingerprint_digest, shared_pool
from repro.scheduler import CODE_SALT, VcsConfig, request_cache_key
from repro.scheduler.policy import SchedulePolicy
from repro.service import ServerThread, ServiceClient, ServiceError
from repro.service import http as service_http
from repro.service.queue import FairQueue, ServiceJob
from repro.workloads import (
    GeneratorConfig,
    SuperblockGenerator,
    dot_product_kernel,
    paper_figure1_block,
)

#: ~0.9s of vcs scheduling on the 2-cluster paper machine — long enough
#: to observe/cancel a running job without flakiness, short enough for CI.
_SLOW_SIZE = 100


def _slow_block(seed: int = 7):
    config = GeneratorConfig(min_ops=_SLOW_SIZE, max_ops=_SLOW_SIZE, ilp=4.0, exit_every=6)
    return SuperblockGenerator(config, seed=seed).generate(f"service-slow/{seed}")


def _request(block, client="default", policy=None, job_name=""):
    return ScheduleRequest(
        block=block,
        machine=paper_2c_8i_1lat(),
        backend="vcs",
        vcs=VcsConfig(work_budget=500_000),
        policy=policy,
        client=client,
        job_name=job_name,
    )


def _batch_reference(requests):
    batch = schedule_many(requests, cache=CacheSpec.disabled())
    return [
        (fingerprint_digest([result.fingerprint()]), result.work)
        for result in batch.values
    ]


@pytest.fixture()
def server(tmp_path):
    with ServerThread(
        runner=BatchScheduler(jobs=1), cache=CacheSpec(root=str(tmp_path / "cache"))
    ) as thread:
        yield thread


@pytest.fixture()
def pool_server(tmp_path):
    """Two pool workers: misses run on the pool, hits in the server."""
    with ServerThread(
        runner=BatchScheduler(jobs=2), cache=CacheSpec(root=str(tmp_path / "cache"))
    ) as thread:
        yield thread


def _wait_for(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def _schedule_concurrently(url, requests):
    """Two client threads, each scheduling every other request."""
    responses = [None] * len(requests)

    def worker(positions):
        client = ServiceClient(url)
        for index in positions:
            responses[index] = client.schedule(requests[index])

    threads = [
        threading.Thread(target=worker, args=(range(start, len(requests), 2),))
        for start in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    return responses


@pytest.fixture()
def serial_server(tmp_path):
    """One job per dispatch round — deterministic queue observation."""
    with ServerThread(
        runner=BatchScheduler(jobs=1),
        cache=CacheSpec(root=str(tmp_path / "cache")),
        max_batch=1,
    ) as thread:
        yield thread


# --------------------------------------------------------------------------- #
# byte identity over the wire
# --------------------------------------------------------------------------- #
class TestHttpIdentity:
    def test_concurrent_clients_byte_identical_to_batch(self, server):
        requests = [
            _request(paper_figure1_block(), client="client-a"),
            _request(dot_product_kernel(), client="client-b"),
            _request(_slow_block(3), client="client-a"),
            _request(_slow_block(4), client="client-b"),
        ]
        reference = _batch_reference(requests)
        responses = _schedule_concurrently(server.url, requests)
        for response, (digest, work) in zip(responses, reference):
            assert response.state == "done"
            assert response.digest == digest
            assert response.work == work

    def test_concurrent_clients_byte_identical_to_batch_on_the_pool(self, pool_server):
        requests = [
            _request(paper_figure1_block(), client="client-a"),
            _request(dot_product_kernel(), client="client-b"),
            _request(_slow_block(15), client="client-a"),
            _request(_slow_block(16), client="client-b"),
        ]
        reference = _batch_reference(requests)
        responses = _schedule_concurrently(pool_server.url, requests)
        for response, (digest, work) in zip(responses, reference):
            assert response.state == "done" and response.cache == "miss"
            assert response.digest == digest
            assert response.work == work

    def test_warm_resubmission_is_a_cache_hit(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        warm = client.schedule(request)
        assert cold.cache == "miss" and warm.cache == "hit"
        assert cold.digest == warm.digest
        assert cold.work == warm.work
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1

    def test_health_and_stats(self, server):
        client = ServiceClient(server.url)
        health = client.health()
        assert health["ok"] is True and health["version"]
        stats = client.stats()
        assert stats["max_batch"] >= 1
        assert stats["jobs"]["total"] == 0

    def test_submit_rejects_malformed_requests(self, server):
        client = ServiceClient(server.url)
        wire = _request(paper_figure1_block()).to_dict()
        wire["backend"]["name"] = "no-such-backend"
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/api/v1/jobs", wire)
        assert excinfo.value.status == 400
        assert "invalid schedule request" in excinfo.value.message
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/api/v1/jobs", {"nonsense": 1})
        assert excinfo.value.status == 400

    def test_submit_rejects_removed_vcs_knobs(self, server):
        """A VCS config carrying a removed knob is refused with a 400, not
        scheduled under a silently defaulted config."""
        client = ServiceClient(server.url)
        for knob in ("use_trail", "probe_early_cut", "eager_mapping"):
            wire = _request(paper_figure1_block()).to_dict()
            wire["backend"]["vcs"][knob] = False
            with pytest.raises(ServiceError) as excinfo:
                client._call("POST", "/api/v1/jobs", wire)
            assert excinfo.value.status == 400, knob
            assert "invalid schedule request" in excinfo.value.message
        assert client.stats()["jobs"]["total"] == 0

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).status("j-999999")
        assert excinfo.value.status == 404


# --------------------------------------------------------------------------- #
# cache hits answered at submit
# --------------------------------------------------------------------------- #
def _post_raw(url, body: bytes):
    """POST *body* as it stands; returns (status, decoded reply)."""
    host, port = url.split("//", 1)[1].split(":")
    connection = HTTPConnection(host, int(port), timeout=60)
    try:
        connection.request("POST", "/api/v1/jobs", body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _reordered(value):
    """*value* with the key order of every nested dict reversed."""
    if isinstance(value, dict):
        return {key: _reordered(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reordered(item) for item in value]
    return value


def _entry_paths(root):
    return sorted((root / CODE_SALT).rglob("*.json"))


_UNPICKLED = []


def _record_unpickle():
    _UNPICKLED.append(True)
    return None


class _Tripwire:
    """Unpickling this records the fact in ``_UNPICKLED``."""

    def __reduce__(self):
        return (_record_unpickle, ())


class TestFastPath:
    def test_warm_hit_is_done_in_the_post_reply(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        rounds = client.stats()["rounds_dispatched"]
        status, reply = _post_raw(server.url, json.dumps(request.to_dict()).encode())
        assert status == 200
        assert reply["job"]["state"] == "done"
        assert reply["response"]["cache"] == "hit"
        assert reply["response"]["digest"] == cold.digest
        assert reply["response"]["work"] == cold.work
        assert client.stats()["rounds_dispatched"] == rounds
        assert client.result(reply["job"]["job_id"]).to_dict() == reply["response"]

    def test_tenant_default_policy_never_gets_the_no_policy_entry(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block(), client="plain")
        plain = client.schedule(request)
        assert plain.policy is None
        client.set_policy("tenant", SchedulePolicy("finalize_partial", max_dp_work=200))
        tenant_request = _request(paper_figure1_block(), client="tenant")
        first = client.schedule(tenant_request)
        again = client.schedule(tenant_request)
        assert (first.cache, again.cache) == ("miss", "hit")
        for response in (first, again):
            assert response.policy["partial_finalize"] is True
            assert response.digest != plain.digest
        # The tenant's repeat was found on the slow path, not at submit.
        assert client.stats()["rounds_dispatched"] == 3

    def test_batch_and_http_share_entries(self, server, tmp_path):
        spec = CacheSpec(root=str(tmp_path / "cache"))
        client = ServiceClient(server.url)
        by_batch = _request(paper_figure1_block())
        batch = schedule_many([by_batch], cache=spec)
        assert batch.cache_outcomes == ["miss"]
        status, reply = _post_raw(server.url, json.dumps(by_batch.to_dict()).encode())
        assert reply["job"]["state"] == "done" and reply["response"]["cache"] == "hit"
        assert reply["response"]["digest"] == fingerprint_digest([batch.values[0].fingerprint()])

        by_http = _request(dot_product_kernel())
        over_http = client.schedule(by_http)
        assert over_http.cache == "miss"
        warm = schedule_many([by_http], cache=spec)
        assert warm.cache_outcomes == ["hit"]
        assert fingerprint_digest([warm.values[0].fingerprint()]) == over_http.digest
        assert warm.values[0].work == over_http.work

    def test_reordered_keys_and_whitespace_still_hit(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        rounds = client.stats()["rounds_dispatched"]
        body = json.dumps(_reordered(request.to_dict()), indent=3).encode()
        status, reply = _post_raw(server.url, b"\n  " + body + b"\n")
        assert reply["job"]["state"] == "done"
        assert reply["response"]["cache"] == "hit"
        assert reply["response"]["digest"] == cold.digest
        assert client.stats()["rounds_dispatched"] == rounds

    def test_unknown_key_is_rejected_even_with_an_entry(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        client.schedule(request)
        wire = request.to_dict()
        wire["priority"] = 1
        status, reply = _post_raw(server.url, json.dumps(wire).encode())
        assert status == 400
        assert "unknown ScheduleRequest keys ['priority']" in reply["error"]
        assert client.stats()["jobs"]["total"] == 1

    @pytest.mark.parametrize("damage", ["truncated", "foreign"])
    def test_damaged_entry_is_recomputed_and_rewritten(self, server, tmp_path, damage):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        cold = client.schedule(request)
        (path,) = _entry_paths(tmp_path / "cache")
        text = path.read_text()
        path.write_text(text[: len(text) // 2] if damage == "truncated" else '{"answer": 42}')
        redo = client.schedule(request)
        assert redo.cache == "miss"
        assert (redo.digest, redo.work) == (cold.digest, cold.work)
        rewritten, original = json.loads(path.read_text()), json.loads(text)
        assert rewritten["response"] == original["response"]
        assert client.schedule(request).cache == "hit"

    def test_planted_pickle_is_never_opened(self, server, tmp_path):
        request = _request(paper_figure1_block())
        key = request_cache_key(json.loads(json.dumps(request.to_dict())))
        planted = tmp_path / "cache" / CODE_SALT / key[:2] / f"{key}.pkl"
        planted.parent.mkdir(parents=True)
        planted.write_bytes(pickle.dumps(_Tripwire()))
        _UNPICKLED.clear()
        response = ServiceClient(server.url).schedule(request)
        batch = schedule_many([request], cache=CacheSpec(root=str(tmp_path / "cache")))
        assert response.cache == "miss" and batch.cache_outcomes == ["hit"]
        assert not _UNPICKLED
        assert planted.read_bytes() == pickle.dumps(_Tripwire())

    def test_fast_hits_are_counted_like_slow_hits(self, server):
        client = ServiceClient(server.url)
        request = _request(paper_figure1_block())
        client.schedule(request)
        before = client.stats()
        fast = client.schedule(_request(paper_figure1_block(), client="fast"))
        # A top-level policy spells the request non-canonically: the body
        # misses at submit and the slow path finds the same entry.
        wire = _request(paper_figure1_block(), client="slow").to_dict()
        wire["policy"] = None
        status, reply = _post_raw(server.url, json.dumps(wire).encode())
        assert reply["job"]["state"] == "queued"
        slow = client.result(reply["job"]["job_id"])
        after = client.stats()

        assert (fast.cache, slow.cache) == ("hit", "hit")
        ignored = ("job_id", "wall_s")
        assert {k: v for k, v in fast.to_dict().items() if k not in ignored} == {
            k: v for k, v in slow.to_dict().items() if k not in ignored
        }
        fast_state, slow_state = client.client_state("fast"), client.client_state("slow")
        assert fast_state.pop("name") == "fast" and slow_state.pop("name") == "slow"
        assert fast_state == slow_state
        assert fast_state["completed"] == 1 and fast_state["dp_work"] == fast.work
        assert after["cache"]["hits"] - before["cache"]["hits"] == 2
        assert after["cache"]["misses"] == before["cache"]["misses"]
        assert after["jobs"]["by_state"]["done"] - before["jobs"]["by_state"]["done"] == 2
        assert after["rounds_dispatched"] - before["rounds_dispatched"] == 1


# --------------------------------------------------------------------------- #
# read deadlines
# --------------------------------------------------------------------------- #
@pytest.fixture()
def short_deadlines(monkeypatch):
    monkeypatch.setattr(service_http, "HEADER_TIMEOUT_S", 0.2)
    monkeypatch.setattr(service_http, "BODY_TIMEOUT_S", 0.2)


def _raw_exchange(url, sent: bytes) -> bytes:
    """Send *sent*, then read until the server closes the connection."""
    host, port = url.split("//", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(sent)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestReadDeadlines:
    def test_idle_connection_gets_a_408(self, short_deadlines, server):
        reply = _raw_exchange(server.url, b"")
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout")
        assert b"request head not received" in reply

    def test_half_sent_body_gets_a_408(self, short_deadlines, server):
        head = b"POST /api/v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
        reply = _raw_exchange(server.url, head + b'{"block":')
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout")
        assert b"request body not received" in reply
        assert ServiceClient(server.url).stats()["jobs"]["total"] == 0

    def test_long_poll_outlives_the_read_deadlines(self, short_deadlines, serial_server):
        client = ServiceClient(serial_server.url)
        running = client.submit(_request(_slow_block(11)))
        queued = client.submit(_request(paper_figure1_block()))
        with pytest.raises(TimeoutError):
            client.result(queued.job_id, timeout=0.5)
        assert client.result(running.job_id).state == "done"


# --------------------------------------------------------------------------- #
# overlap on the pool: per-job dispatch, hits answered in the server
# --------------------------------------------------------------------------- #
class TestOverlap:
    def test_warm_hit_overtakes_a_running_miss(self, pool_server):
        client = ServiceClient(pool_server.url)
        hot = _request(paper_figure1_block(), client="hot")
        assert client.schedule(hot).cache == "miss"
        slow = client.submit(_request(_slow_block(12), client="cold"))
        _wait_for(lambda: client.status(slow.job_id).state == "running", "the miss to start")
        hit = client.submit(hot)
        assert client.result(hit.job_id, timeout=60).cache == "hit"
        assert client.result(slow.job_id, timeout=60).cache == "miss"
        # The hit was submitted after the miss started and finished first.
        assert client.status(hit.job_id).finished_s < client.status(slow.job_id).finished_s

    def test_running_returns_to_zero_after_the_tasks_drain(self, pool_server):
        client = ServiceClient(pool_server.url)
        requests = [
            _request(_slow_block(13), client="a"),
            _request(_slow_block(21), client="b"),
            _request(paper_figure1_block(), client="a"),
            _request(dot_product_kernel(), client="b"),
        ]
        jobs = [client.submit(request) for request in requests]
        running = client.stats()["running"]
        assert 1 <= running <= client.stats()["max_batch"] == 2
        for job in jobs:
            assert client.result(job.job_id, timeout=60).state == "done"
        _wait_for(lambda: client.stats()["running"] == 0, "the in-flight tasks to drain")
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert 1 <= stats["rounds_dispatched"] <= len(requests)
        assert not pool_server.server._in_flight


# --------------------------------------------------------------------------- #
# per-job timeout on the pool
# --------------------------------------------------------------------------- #
class TestTimeout:
    def test_timeout_fails_the_job_and_the_next_runs_on_a_fresh_pool(self, tmp_path, monkeypatch):
        """A fired timeout lands the job in ``failed`` (kind ``timeout``);
        tearing the shared pool down also ends a miss running on it at the
        same time (``timeout`` or ``crash``, never a hang), and the next
        miss runs on a fresh pool."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        with ServerThread(job_timeout=0.3, cache=CacheSpec(root=str(tmp_path))) as thread:
            client = ServiceClient(thread.url)
            spin_ups = shared_pool(2).spin_ups
            first = client.submit(_request(_slow_block(3), client="a"))
            second = client.submit(_request(_slow_block(4), client="b"))
            timed_out = client.result(first.job_id, timeout=60)
            concurrent = client.result(second.job_id, timeout=60)
            assert timed_out.state == "failed"
            assert timed_out.failure["kind"] == "timeout"
            assert concurrent.state == "failed"
            assert concurrent.failure["kind"] in ("timeout", "crash")
            assert client.client_state("a")["failed"] == 1

            after = client.schedule(_request(paper_figure1_block()), timeout=60)
            assert after.state == "done" and after.cache == "miss"
            assert shared_pool(2).spin_ups > spin_ups


# --------------------------------------------------------------------------- #
# cancellation: queued = immediate, running = cooperative
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_while_queued(self, serial_server):
        client = ServiceClient(serial_server.url)
        # The slow job occupies the single dispatch slot; the second job
        # is still queued when the cancel lands.
        running = client.submit(_request(_slow_block(11)))
        queued = client.submit(_request(paper_figure1_block()))
        cancelled = client.cancel(queued.job_id)
        assert cancelled.state == "cancelled"
        response = client.result(queued.job_id)
        assert response.state == "cancelled"
        assert response.failure["kind"] == "cancelled"
        # The in-flight job is untouched.
        assert client.result(running.job_id).state == "done"
        assert client.client_state("default")["cancelled"] == 1

    def test_cancel_mid_run_discards_the_result(self, serial_server):
        client = ServiceClient(serial_server.url)
        status = client.submit(_request(_slow_block(12), client="tenant"))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.status(status.job_id)
            if status.state != "queued":
                break
            time.sleep(0.01)
        assert status.state == "running"
        acknowledged = client.cancel(status.job_id)
        assert acknowledged.state in ("cancelling", "cancelled")
        response = client.result(status.job_id)
        assert response.state == "cancelled"
        assert response.failure["kind"] == "cancelled"
        assert client.client_state("tenant")["cancelled"] == 1
        assert client.client_state("tenant")["completed"] == 0

    def test_cancel_terminal_job_is_a_no_op(self, server):
        client = ServiceClient(server.url)
        done = client.schedule(_request(paper_figure1_block()))
        status = client.cancel(done.job_id)
        assert status.state == "done"


# --------------------------------------------------------------------------- #
# per-client policy and budget exhaustion
# --------------------------------------------------------------------------- #
class TestClientPolicy:
    def test_budget_exhaustion_finalizes_partial(self, server):
        client = ServiceClient(server.url)
        state = client.set_policy(
            "tenant", SchedulePolicy("finalize_partial", max_dp_work=200)
        )
        assert state["policy"] is not None
        # The request carries no policy of its own -> the tenant default
        # is merged in; 200 dp_work cannot finish the paper block (983).
        response = client.schedule(_request(paper_figure1_block(), client="tenant"))
        assert response.state == "done"
        assert response.policy is not None
        assert response.policy["partial_finalize"] is True
        accounting = client.client_state("tenant")
        assert accounting["partial_finalizes"] == 1
        assert accounting["completed"] == 1

    def test_request_policy_beats_client_default(self, server):
        client = ServiceClient(server.url)
        client.set_policy("tenant", SchedulePolicy("finalize_partial", max_dp_work=200))
        roomy = SchedulePolicy("finalize_partial", max_dp_work=500_000)
        response = client.schedule(
            _request(paper_figure1_block(), client="tenant", policy=roomy)
        )
        assert response.state == "done"
        assert response.policy["partial_finalize"] is False

    def test_clearing_the_policy(self, server):
        client = ServiceClient(server.url)
        client.set_policy("tenant", SchedulePolicy("finalize_partial", max_dp_work=200))
        state = client.set_policy("tenant", None)
        assert state["policy"] is None
        response = client.schedule(_request(paper_figure1_block(), client="tenant"))
        assert response.state == "done"
        assert response.policy is None


# --------------------------------------------------------------------------- #
# queue fairness
# --------------------------------------------------------------------------- #
class TestFairness:
    def test_slow_tenant_does_not_starve_a_fast_one(self, serial_server):
        client = ServiceClient(serial_server.url)
        hog_jobs = [
            client.submit(_request(_slow_block(20 + i), client="hog", job_name=f"hog-{i}"))
            for i in range(3)
        ]
        nimble = client.submit(
            _request(paper_figure1_block(), client="nimble", job_name="nimble-0")
        )
        nimble_response = client.result(nimble.job_id)
        assert nimble_response.state == "done"
        nimble_done = client.status(nimble.job_id).finished_s
        last_hog = client.result(hog_jobs[-1].job_id)
        assert last_hog.state == "done"
        hog_done = client.status(hog_jobs[-1].job_id).finished_s
        # Round-robin rounds: the nimble tenant's only job must not wait
        # behind the hog's whole backlog.
        assert nimble_done < hog_done

    def test_fair_queue_rotates_between_clients(self):
        queue = FairQueue()
        jobs = []
        for client, count in (("a", 3), ("b", 2), ("c", 1)):
            for index in range(count):
                job = ServiceJob(job_id=f"{client}-{index}", client=client, request=None)
                jobs.append(job)
                queue.push(job)
        order = []
        while len(queue):
            order.extend(job.job_id for job in queue.take_round(limit=3))
        assert order == ["a-0", "b-0", "c-0", "a-1", "b-1", "a-2"]

    def test_fair_queue_skips_cancelled_jobs(self):
        queue = FairQueue()
        first = ServiceJob(job_id="a-0", client="a", request=None)
        second = ServiceJob(job_id="a-1", client="a", request=None)
        queue.push(first)
        queue.push(second)
        queue.cancel(first)
        assert first.cancel_requested
        assert len(queue) == 1
        assert [job.job_id for job in queue.take_round(limit=4)] == ["a-1"]

    def test_fair_queue_length_matches_a_brute_force_count(self):
        rng = random.Random(5)
        queue = FairQueue()
        for step in range(2000):
            lanes = [job for lane in queue._lanes.values() for job in lane]
            action = rng.random()
            if action < 0.5:
                queue.push(ServiceJob(job_id=f"j-{step}", client=rng.choice("abcd"), request=None))
            elif action < 0.75 and lanes:
                job = rng.choice(lanes)
                queue.cancel(job)
                queue.cancel(job)  # Idempotent.
            else:
                taken = queue.take_round(rng.randint(0, 3))
                assert not any(job.cancel_requested for job in taken)
            live = [job for lane in queue._lanes.values() for job in lane]
            assert len(queue) == sum(1 for job in live if not job.cancel_requested)
