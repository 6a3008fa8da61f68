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
(cooperative).
"""

import threading
import time

import pytest

from repro.api import ScheduleRequest, schedule_many
from repro.machine import paper_2c_8i_1lat
from repro.runner import BatchScheduler, CacheSpec, fingerprint_digest
from repro.scheduler import VcsConfig
from repro.scheduler.policy import SchedulePolicy
from repro.service import ServerThread, ServiceClient, ServiceError
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

        responses = [None] * len(requests)

        def worker(positions):
            client = ServiceClient(server.url)
            for index in positions:
                responses[index] = client.schedule(requests[index])

        threads = [
            threading.Thread(target=worker, args=(range(start, len(requests), 2),))
            for start in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for response, (digest, work) in zip(responses, reference):
            assert response.state == "done"
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
        wire = _request(paper_figure1_block()).to_dict()
        wire["backend"]["vcs"]["use_trail"] = False
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/api/v1/jobs", wire)
        assert excinfo.value.status == 400
        assert "invalid schedule request" in excinfo.value.message
        assert client.stats()["jobs"]["total"] == 0

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).status("j-999999")
        assert excinfo.value.status == 404


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
        first.cancel_requested = True
        assert len(queue) == 1
        assert [job.job_id for job in queue.take_round(limit=4)] == ["a-1"]
