"""The service runtime end to end (in-process, thread pool)."""

import asyncio
import json
import threading

import pytest

from repro.analysis import load_result
from repro.campaign import CampaignSpec, ExecutorConfig, run_campaign
from repro.mutation import default_suite
from repro.obs.registry import merge_snapshots
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceServer,
    TenantQuota,
)
from repro.service.runtime import JOBS_METRIC

SUITE = default_suite()
NAMES = tuple(mutant.name for mutant in SUITE.mutants)


def spec(**overrides):
    kwargs = dict(
        name="service-test",
        kinds=("PTE",),
        device_names=("AMD",),
        test_names=NAMES[:2],
        environment_count=3,
        seed=3,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def config(root, **overrides):
    kwargs = dict(
        root=root, workers=2, shard_size=2, pool_mode="thread"
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


async def wait_terminal(service, job_id, timeout=60.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        status = service.describe_job(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        if loop.time() > deadline:
            raise AssertionError(f"job {job_id} never finished")
        await asyncio.sleep(0.02)


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestSingleJob:
    def test_submit_runs_to_done(self, tmp_path):
        async def scenario():
            service = CampaignService(config(tmp_path))
            await service.start()
            record = await service.submit(spec().to_dict(), "alice")
            status = await wait_terminal(service, record.job_id)
            await service.stop()
            return service, record, status

        service, record, status = run_async(scenario())
        assert status["state"] == "done"
        assert status["done"] == spec().unit_count()
        # Stats files appear next to the journal, like `campaign run`.
        job_dir = service.store.job_dir(record.job_id)
        assert (job_dir / "pte.json").exists()
        assert (job_dir / "metrics.json").exists()
        assert not (job_dir / "journal.jsonl.lock").exists()

    def test_service_results_match_one_shot_campaign(self, tmp_path):
        """A service job's stats are bit-identical to `campaign run`."""
        reference_dir = tmp_path / "oneshot"
        reference_dir.mkdir()
        outcome = run_campaign(
            spec(),
            journal_path=reference_dir / "journal.jsonl",
            config=ExecutorConfig(workers=1),
        )

        async def scenario():
            service = CampaignService(config(tmp_path / "svc"))
            await service.start()
            record = await service.submit(spec().to_dict(), "alice")
            await wait_terminal(service, record.job_id)
            await service.stop()
            return service.store.job_dir(record.job_id)

        job_dir = run_async(scenario())
        service_result = load_result(job_dir / "pte.json")
        for kind, reference in outcome.results.items():
            assert service_result.runs == reference.runs
            assert service_result.backend == reference.backend

    def test_invalid_spec_is_rejected(self, tmp_path):
        async def scenario():
            service = CampaignService(config(tmp_path))
            await service.start()
            try:
                with pytest.raises(Exception):
                    await service.submit({"nope": 1}, "alice")
            finally:
                await service.stop()

        run_async(scenario())

    def test_cancel_keeps_journaled_units(self, tmp_path):
        async def scenario():
            service = CampaignService(
                config(tmp_path, workers=1, shard_size=1)
            )
            await service.start()
            record = await service.submit(
                spec(environment_count=30).to_dict(), "alice"
            )
            while service.describe_job(record.job_id)["done"] < 3:
                await asyncio.sleep(0.01)
            status = await service.cancel(record.job_id)
            final = await wait_terminal(service, record.job_id)
            await service.stop()
            return status, final, service.store

        status, final, store = run_async(scenario())
        assert final["state"] == "cancelled"
        record = store.load(final["job_id"])
        assert 0 < store.progress(record)["done"] < spec(
            environment_count=30
        ).unit_count()


class TestFairShareAcceptance:
    def test_two_tenants_make_interleaved_progress(self, tmp_path):
        """Acceptance: two jobs from different tenants interleave —
        neither one starves while the other has pending work."""
        picks = []

        async def scenario():
            service = CampaignService(
                config(tmp_path, workers=1, shard_size=1)
            )
            real_acquire = service.fairshare.acquire

            def spying_acquire():
                picked = real_acquire()
                if picked is not None:
                    picks.append(picked[0])
                return picked

            service.fairshare.acquire = spying_acquire
            await service.start()
            alice = await service.submit(
                spec(environment_count=6).to_dict(), "alice"
            )
            bob = await service.submit(
                spec(environment_count=6, seed=4).to_dict(), "bob"
            )
            a = await wait_terminal(service, alice.job_id)
            b = await wait_terminal(service, bob.job_id)
            await service.stop()
            return a, b

        a, b = run_async(scenario())
        assert a["state"] == "done" and b["state"] == "done"
        # While both jobs were runnable the dispatch strictly
        # alternated (equal weights, smooth WRR).
        both_runnable = picks[: 2 * min(picks.count("alice"),
                                        picks.count("bob"))]
        alternations = sum(
            1 for x, y in zip(both_runnable, both_runnable[1:])
            if x != y
        )
        assert alternations >= len(both_runnable) - 2

    def test_quota_capped_tenant_cannot_hog_the_pool(self, tmp_path):
        async def scenario():
            service = CampaignService(
                config(
                    tmp_path,
                    workers=2,
                    shard_size=1,
                    quotas={"greedy": TenantQuota(max_active=1)},
                )
            )
            await service.start()
            greedy = await service.submit(
                spec(environment_count=8).to_dict(), "greedy"
            )
            await wait_terminal(service, greedy.job_id)
            await service.stop()
            return service.fairshare.active("greedy")

        # With max_active=1 the greedy tenant never had 2 in flight;
        # by the end everything is released.
        assert run_async(scenario()) == 0


class TestTelemetryAcceptance:
    def test_sse_deltas_fold_to_exact_final_registry(self, tmp_path):
        """Acceptance: folding the SSE snapshot + per-shard deltas
        reproduces the job's final registry byte-identically, and the
        unit counter equals the journal-derived total exactly."""

        async def scenario():
            service = CampaignService(config(tmp_path))
            await service.start()
            record = await service.submit(spec().to_dict(), "alice")
            queue = service.subscribe(record.job_id)
            events = []
            while True:
                event = await asyncio.wait_for(queue.get(), timeout=60)
                if event is None:
                    break
                events.append(event)
                if event["event"] in ("done", "failed", "cancelled"):
                    break
            job = service.jobs[record.job_id]
            final_snapshot = job.registry.snapshot()
            journal_units = len(job.journal.load_records())
            await service.stop()
            return events, final_snapshot, journal_units

        events, final_snapshot, journal_units = run_async(scenario())
        deltas = [
            event["metrics"]
            for event in events
            if event["metrics"] is not None
        ]
        folded = merge_snapshots(deltas)
        assert json.dumps(folded.snapshot(), sort_keys=True) == (
            json.dumps(final_snapshot, sort_keys=True)
        )
        units_total = sum(
            entry["value"]
            for entry in folded.snapshot()["counters"]
            if entry["name"] == "repro_campaign_units_total"
        )
        assert units_total == journal_units == spec().unit_count()

    def test_service_registry_labels_by_tenant_and_job(self, tmp_path):
        async def scenario():
            service = CampaignService(config(tmp_path))
            await service.start()
            record = await service.submit(spec().to_dict(), "alice")
            await wait_terminal(service, record.job_id)
            snapshot = service.metrics_registry().snapshot()
            await service.stop()
            return record.job_id, snapshot

        job_id, snapshot = run_async(scenario())
        campaign_counters = [
            entry
            for entry in snapshot["counters"]
            if entry["name"] == "repro_campaign_units_total"
        ]
        assert campaign_counters
        for entry in campaign_counters:
            assert entry["labels"]["tenant"] == "alice"
            assert entry["labels"]["job"] == job_id
        job_events = {
            entry["labels"]["event"]: entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == JOBS_METRIC
        }
        assert job_events["submitted"] == 1
        assert job_events["done"] == 1


class TestRetryAccounting:
    def test_service_counts_retries_like_the_scheduler(
        self, tmp_path, monkeypatch
    ):
        """A rectangle whose grid call fails once is retried, and its
        retries reach the job and service registries exactly as
        `campaign run` counts them."""
        from repro.backends import Backend
        from repro.campaign.metrics import RETRIES_METRIC

        original = Backend.run_grid
        calls = []
        lock = threading.Lock()

        def fail_first_call(self, *args, **kwargs):
            with lock:
                calls.append(None)
                first = len(calls) == 1
            if first:
                raise RuntimeError("injected transient failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Backend, "run_grid", fail_first_call)
        scheduler = run_campaign(
            spec(), config=ExecutorConfig(workers=1, retry_backoff=0.0)
        )
        calls.clear()

        async def scenario():
            service = CampaignService(config(tmp_path))
            await service.start()
            record = await service.submit(spec().to_dict(), "alice")
            status = await wait_terminal(service, record.job_id)
            job_registry = service.jobs[record.job_id].registry
            service_registry = service.metrics_registry()
            await service.stop()
            return status, job_registry, service_registry

        status, job_registry, service_registry = run_async(scenario())
        # Both drivers' first rectangle is one environment's
        # 1 device x 2 tests: its two units fail and retry together.
        failed_rectangle = len(spec().device_names) * len(spec().test_names)
        assert failed_rectangle == 2
        assert scheduler.metrics.retries == failed_rectangle
        assert status["state"] == "done"
        assert job_registry.family_total(RETRIES_METRIC) == failed_rectangle
        assert (
            service_registry.family_total(RETRIES_METRIC)
            == failed_rectangle
        )


class TestHttpRoundTrip:
    def test_http_submit_watch_status_metrics(self, tmp_path):
        """The whole HTTP surface against a live in-process server."""
        result = {}

        async def scenario():
            service = CampaignService(config(tmp_path))
            server = ServiceServer(service)
            await service.start()
            await server.start()
            done = threading.Event()

            def client_side():
                try:
                    client = ServiceClient(
                        base_url=server.url, timeout=60
                    )
                    result["health"] = client.health()
                    job = client.submit(spec().to_dict(), "alice")
                    result["submitted"] = job
                    result["events"] = list(
                        client.watch(job["job_id"])
                    )
                    result["status"] = client.job(job["job_id"])
                    result["jobs"] = client.jobs()
                    result["prom"] = client.metrics_text()
                    result["jsonl"] = client.metrics_jsonl_text()
                    with pytest.raises(ServiceError):
                        client.job("j99999-deadbeef")
                finally:
                    done.set()

            thread = threading.Thread(target=client_side)
            thread.start()
            while not done.is_set():
                await asyncio.sleep(0.02)
            await server.stop()
            await service.stop()
            thread.join(timeout=5)

        run_async(scenario())
        assert result["health"]["ok"] is True
        assert result["submitted"]["state"] == "queued"
        assert result["events"][0]["event"] == "snapshot"
        assert result["events"][-1]["event"] == "done"
        assert result["status"]["state"] == "done"
        assert len(result["jobs"]) == 1
        assert "repro_service_jobs_total" in result["prom"]
        first_line = json.loads(result["jsonl"].splitlines()[0])
        assert first_line["type"] == "meta"

    def test_endpoint_file_lifecycle(self, tmp_path):
        from repro.service.server import endpoint_path

        async def scenario():
            service = CampaignService(config(tmp_path))
            server = ServiceServer(service)
            await service.start()
            await server.start()
            payload = json.loads(
                endpoint_path(tmp_path).read_text()
            )
            await server.stop()
            await service.stop()
            return payload, endpoint_path(tmp_path).exists()

        payload, still_there = run_async(scenario())
        assert payload["port"] > 0
        assert payload["url"].startswith("http://127.0.0.1:")
        assert not still_there
