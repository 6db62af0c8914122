"""The campaign service runtime: many jobs, one shared worker pool.

Where :class:`~repro.campaign.scheduler.CampaignScheduler` drives one
spec to completion and tears its pool down, the service keeps a single
persistent pool alive and multiplexes *shards of many jobs* over it.
Workers run the same shard entry point as the scheduler's pool
(:func:`~repro.campaign.worker.execute_shard`), and each job keeps the
same per-campaign :class:`~repro.campaign.book.UnitBook` — journal,
result store, health monitor, retry decisions — so a job books its
units exactly like ``campaign run``.  What stays here is the daemon's
own policy: async dispatch, fair share, pool-failure requeue, and SSE.
The event loop owns every book, so every mutation of job state is
single-threaded and an unclean death can only lose in-flight shards —
which the journal-based resume path re-executes deterministically.

Telemetry: the book turns every shard into one
:class:`~repro.obs.registry.MetricsRegistry` delta (the worker's unit
telemetry plus the retries it caused).  The same delta is (1) merged
into the job's registry (exact per-job totals), (2) merged into the
service registry with ``tenant``/``job`` labels (exact service-wide
totals, served at ``/metrics``), and (3) published to the job's SSE
subscribers as the wire format — so a client that folds the stream's
snapshots ends up with byte-identical totals to the job's final
registry.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Set, Union

from repro.analysis import save_result
from repro.campaign.book import UnitBook
from repro.campaign.journal import CampaignJournal
from repro.campaign.metrics import publish_store_events
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import (
    ShardResult,
    configure_worker,
    execute_shard,
)
from repro.obs.health import (
    HealthMonitor,
    expected_rate_from_baseline,
    expected_units_from_baseline,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import (
    KIND_SERVICE,
    Ledger,
    record_from_results,
)
from repro.service.fairshare import FairShareScheduler, TenantQuota
from repro.service.jobstore import (
    JobRecord,
    JobState,
    JobStore,
    ServiceError,
)

#: Service-layer metric families (``/metrics``).
JOBS_METRIC = "repro_service_jobs_total"
SHARD_SECONDS_METRIC = "repro_service_shard_seconds"
JOB_SECONDS_METRIC = "repro_service_job_seconds"
HTTP_METRIC = "repro_service_http_requests_total"
RUNNING_GAUGE = "repro_service_jobs_running"
QUEUED_GAUGE = "repro_service_jobs_queued"

#: SSE event types that end a job's stream.
TERMINAL_EVENTS = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance."""

    #: Service root; holds ``jobs/`` and the ``service.json`` endpoint file.
    root: Union[str, Path]
    host: str = "127.0.0.1"
    #: 0 = pick a free port (the bound port lands in ``service.json``).
    port: int = 0
    #: Pool width == maximum in-flight shards across all jobs.
    workers: int = 2
    #: Units per dispatched shard; small keeps jobs finely interleaved.
    shard_size: int = 16
    unit_timeout: Optional[float] = 30.0
    max_retries: int = 2
    #: ``process`` (default) or ``thread`` (in-process pool: no fork
    #: cost, GIL-bound; used by tests and tiny deployments).
    pool_mode: str = "process"
    default_quota: TenantQuota = TenantQuota()
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: When set, submissions that ask for a store (``store_policy !=
    #: "off"``) but name no path get ``<store_root>/<tenant>`` — one
    #: persistent result store per tenant, shared by all their jobs.
    store_root: Optional[Union[str, Path]] = None
    #: Run-ledger directory.  Defaults to ``<root>/ledger``; every
    #: DONE job appends a normalized run record there, and the same
    #: ledger seeds each job's live :class:`HealthMonitor` baselines.
    ledger: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("service workers must be >= 1")
        if self.shard_size < 1:
            raise ServiceError("shard_size must be >= 1")
        if self.pool_mode not in ("process", "thread"):
            raise ServiceError(
                f"unknown pool_mode: {self.pool_mode!r} "
                f"(want 'process' or 'thread')"
            )


@dataclass
class ActiveJob:
    """In-memory state of one non-terminal job."""

    record: JobRecord
    book: UnitBook
    spec_payload: Dict[str, Any]
    pending: Deque[int] = field(default_factory=deque)
    inflight: int = 0
    cancelled: bool = False
    finalizing: bool = False
    seq: int = 0
    started_monotonic: float = field(default_factory=time.monotonic)
    pool_failures: int = 0
    subscribers: List["asyncio.Queue[Optional[Dict[str, Any]]]"] = field(
        default_factory=list
    )

    @property
    def job_id(self) -> str:
        return self.record.job_id

    @property
    def tenant(self) -> str:
        return self.record.tenant

    @property
    def journal(self) -> CampaignJournal:
        return self.book.journal

    @property
    def registry(self) -> MetricsRegistry:
        return self.book.metrics.registry

    @property
    def health(self) -> HealthMonitor:
        return self.book.health

    @property
    def done(self) -> int:
        return len(self.book.runs)

    @property
    def failed(self) -> Dict[int, str]:
        return self.book.failed

    @property
    def total(self) -> int:
        return len(self.book.units)

    @property
    def drained(self) -> bool:
        return not self.pending and self.inflight == 0

    def envelope(
        self, event: str, metrics: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """This job's SSE event envelope (see :func:`sse_envelope`)."""
        return sse_envelope(
            event,
            self.record,
            seq=self.seq,
            done=self.done,
            resumed=self.book.metrics.resumed_units,
            failed=len(self.failed),
            total=self.total,
            metrics=metrics,
        )


def sse_envelope(
    event: str,
    record: JobRecord,
    seq: int,
    done: int,
    resumed: int,
    failed: int,
    total: int,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The one shape of every event on a job's SSE stream."""
    return {
        "event": event,
        "seq": seq,
        "job": record.job_id,
        "tenant": record.tenant,
        "state": record.state,
        "done": done,
        "resumed": resumed,
        "failed": failed,
        "total": total,
        "utc": time.time(),
        "metrics": metrics,
    }


def _relabel(
    payload: Dict[str, Any], extra: Dict[str, str]
) -> Dict[str, Any]:
    """A snapshot payload with extra labels on every entry."""
    out: Dict[str, Any] = {"schema": payload.get("schema", 1)}
    for kind in ("counters", "gauges", "histograms"):
        out[kind] = [
            {**entry, "labels": {**entry.get("labels", {}), **extra}}
            for entry in payload.get(kind, ())
        ]
    return out


class CampaignService:
    """The daemon core: job store + fair-share dispatch + shared pool."""

    def __init__(
        self,
        config: ServiceConfig,
        log: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.log = log or (lambda message: None)
        self.store = JobStore(config.root)
        self.fairshare = FairShareScheduler(config.default_quota)
        for tenant, quota in config.quotas.items():
            self.fairshare.set_quota(tenant, quota)
        self.registry = MetricsRegistry()
        self.ledger = Ledger(
            Path(config.ledger)
            if config.ledger is not None
            else Path(config.root) / "ledger"
        )
        self.jobs: Dict[str, ActiveJob] = {}
        self.started_utc = time.time()
        self._executor: Optional[Executor] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._shard_tasks: Set["asyncio.Task[None]"] = set()
        self._wake: Optional[asyncio.Event] = None
        self._inflight = 0
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Recover persisted jobs and start dispatching."""
        self._wake = asyncio.Event()
        self._executor = self._make_executor()
        recovered = self.store.recover()
        for record in recovered:
            self._count_job_event("recovered")
            self._activate(record)
        if recovered:
            self.log(
                f"[service] recovered {len(recovered)} job(s) from "
                f"{self.store.root}"
            )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    def _make_executor(self) -> Executor:
        if self.config.pool_mode == "thread":
            return ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-service",
            )
        try:
            # spawn, not fork: forked workers would inherit dups of
            # live client sockets (the pool grows lazily, i.e. while
            # SSE connections exist), keeping them open after the
            # server closes its end.
            return ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=configure_worker,
                initargs=(None,),
            )
        except Exception as error:  # no fork/semaphores: degrade
            self.log(
                f"[service] process pool unavailable ({error}); "
                f"falling back to a thread pool"
            )
            return ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-service",
            )

    async def stop(self, drain: bool = False) -> None:
        """Stop dispatching and shut the pool down.

        ``drain=True`` first waits for every active job to finish;
        ``drain=False`` abandons pending work where it stands — the
        journals keep everything already completed, so a later
        :meth:`start` (or a fresh process) resumes exactly there.
        """
        if drain:
            while any(
                not job.record.terminal for job in self.jobs.values()
            ):
                await asyncio.sleep(0.02)
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self._shard_tasks:
            await asyncio.gather(
                *self._shard_tasks, return_exceptions=True
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for job in self.jobs.values():
            if not job.record.terminal:
                job.journal.close()
                job.journal.release_lock()

    # -- submission / activation -------------------------------------------

    async def submit(
        self, spec_payload: Dict[str, Any], tenant: str = "default"
    ) -> JobRecord:
        """Validate, persist, and enqueue one campaign submission."""
        if self._stopping:
            raise ServiceError("service is shutting down")
        spec = CampaignSpec.from_dict(spec_payload)
        if (
            self.config.store_root is not None
            and spec.store_policy != "off"
            and spec.store_path is None
        ):
            # Safe to rewrite: store knobs are execution fields outside
            # the grid fingerprint, so the persisted job is still the
            # campaign the client submitted.
            spec = replace(
                spec,
                store_path=str(Path(self.config.store_root) / tenant),
            )
        record = self.store.submit(spec, tenant)
        self._count_job_event("submitted")
        self._activate(record)
        self.log(
            f"[service] job {record.job_id} submitted by {tenant!r}: "
            f"{spec.unit_count()} units"
        )
        if self._wake is not None:
            self._wake.set()
        return record

    def _activate(self, record: JobRecord) -> ActiveJob:
        journal = self.store.journal(record.job_id)
        journal.acquire_lock()
        book = UnitBook(
            record.spec,
            journal,
            self.config.max_retries,
            log=lambda message: self.log(
                f"[service] job {record.job_id}: {message}"
            ),
        )
        job = ActiveJob(
            record=record, book=book, spec_payload=record.spec.to_dict()
        )
        book.health = self._make_health(job)
        pending = book.resume()
        if book.store is not None:
            publish_store_events(job.registry, {}, materialize=True)
            pending = book.reuse(pending)
            self._publish_store_delta(job, book.store.drain_events())
        job.pending.extend(pending)
        self.jobs[record.job_id] = job
        self._publish(job, "queued")
        if job.pending:
            self.fairshare.add_job(record.tenant, record.job_id)
        else:
            # Fully journaled already (killed after the last append,
            # or every unit came out of the result store): nothing to
            # run, straight to finalization.
            asyncio.get_running_loop().create_task(self._finalize(job))
        return job

    def _make_health(self, job: ActiveJob) -> HealthMonitor:
        """A ledger-seeded live monitor whose flags reach subscribers.

        Baselines come from previous DONE runs of the same grid
        fingerprint (any kind: a `campaign run` of the same spec is
        just as valid a baseline as an earlier service job).  Flags
        are published to the job's SSE stream as ``health`` events.
        """
        expected = None
        expected_units = None
        try:
            baselines = self.ledger.baseline(
                job.record.spec.fingerprint(),
                window=10,
                before_utc=float("inf"),
            )
            expected = expected_rate_from_baseline(baselines)
            expected_units = expected_units_from_baseline(baselines)
        except Exception as error:
            self.log(
                f"[service] job {job.job_id}: unreadable ledger "
                f"baseline ({error}); health drift check disabled"
            )
        return HealthMonitor(
            expected_kill_rate=expected,
            expected_units=expected_units,
            emit=lambda event: self._publish(
                job, "health", health=event
            ),
        )

    def _publish_store_delta(
        self, job: ActiveJob, events: Dict[Any, int]
    ) -> None:
        """Fold drained store counters into job + service registries."""
        if not events:
            return
        delta = MetricsRegistry()
        publish_store_events(delta, events, materialize=False)
        payload = delta.drain()
        job.registry.merge(payload)
        self.registry.merge(
            _relabel(payload, {"tenant": job.tenant, "job": job.job_id})
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            self._wake.clear()
            self._fill_slots()
            await self._wake.wait()

    def _fill_slots(self) -> None:
        while self._inflight < self.config.workers:
            picked = self.fairshare.acquire()
            if picked is None:
                return
            tenant, job_id = picked
            job = self.jobs[job_id]
            take = min(self.config.shard_size, len(job.pending))
            indices = [job.pending.popleft() for _ in range(take)]
            if not job.pending:
                self.fairshare.remove_job(tenant, job_id)
            if not indices:
                self.fairshare.release(tenant)
                continue
            if job.record.state == JobState.QUEUED:
                job.record = self.store.transition(
                    job.record,
                    JobState.RUNNING,
                    started_utc=time.time(),
                )
                self._publish(job, "started")
            self._inflight += 1
            job.inflight += 1
            task = asyncio.get_running_loop().create_task(
                self._run_shard(job, indices)
            )
            self._shard_tasks.add(task)
            task.add_done_callback(self._shard_tasks.discard)

    async def _run_shard(
        self, job: ActiveJob, indices: List[int]
    ) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        result: Optional[ShardResult] = None
        error: Optional[BaseException] = None
        try:
            result = await loop.run_in_executor(
                self._executor,
                execute_shard,
                job.spec_payload,
                indices,
                self.config.unit_timeout,
            )
        except asyncio.CancelledError as exc:
            error = exc
        except Exception as exc:
            error = exc
        self._inflight -= 1
        job.inflight -= 1
        self.fairshare.release(job.tenant)
        if result is not None:
            job.pool_failures = 0
            self._absorb_shard(job, result)
            self.registry.histogram(
                SHARD_SECONDS_METRIC, {"tenant": job.tenant}
            ).observe(time.perf_counter() - started)
        elif not self._stopping and not job.cancelled:
            # The pool (not a unit) failed.  Requeue the shard whole a
            # bounded number of times — a persistently broken pool
            # must fail the job, not spin forever.
            job.pool_failures += 1
            if job.pool_failures <= 1 + self.config.max_retries:
                self.log(
                    f"[service] shard of {job.job_id} lost to pool "
                    f"failure ({error}); requeueing {len(indices)} "
                    f"units"
                )
                job.pending.extendleft(reversed(indices))
                self.fairshare.add_job(job.tenant, job.job_id)
            else:
                for index in indices:
                    job.failed[index] = f"worker pool failure: {error}"
                self.log(
                    f"[service] job {job.job_id}: pool failed "
                    f"{job.pool_failures} times; giving up on "
                    f"{len(indices)} units"
                )
            if isinstance(error, BrokenExecutor):
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = self._make_executor()
        if job.drained and not job.record.terminal:
            await self._finalize(job)
        if self._wake is not None:
            self._wake.set()

    def _absorb_shard(self, job: ActiveJob, result: ShardResult) -> None:
        retries, delta = job.book.absorb(result)
        if retries and not job.cancelled:
            job.pending.extend(retries)
            self.fairshare.add_job(job.tenant, job.job_id)
        if job.book.store is not None:
            self._publish_store_delta(job, job.book.store.drain_events())
        self.registry.merge(
            _relabel(delta, {"tenant": job.tenant, "job": job.job_id})
        )
        self._publish(job, "progress", metrics=delta)

    # -- finalization / cancellation ---------------------------------------

    def _write_stats(self, job: ActiveJob) -> None:
        """Per-kind stats + metrics snapshot next to the journal,
        plus the job's normalized run record in the service ledger."""
        results = job.book.results()
        directory = self.store.job_dir(job.job_id)
        for kind, result in results.items():
            save_result(result, directory / f"{kind.name.lower()}.json")
        snapshot_path = directory / "metrics.json"
        snapshot_path.write_text(
            json.dumps(job.registry.snapshot(), sort_keys=True) + "\n"
        )
        try:
            self.ledger.append(
                record_from_results(
                    job.record.spec,
                    results,
                    kind=KIND_SERVICE,
                    wall_seconds=(
                        time.monotonic() - job.started_monotonic
                    ),
                    registry=job.registry,
                    extra={
                        "job": job.job_id,
                        "tenant": job.tenant,
                    },
                )
            )
        except Exception as error:
            # The ledger is telemetry; it must never fail the job.
            self.log(
                f"[service] job {job.job_id}: ledger append failed "
                f"({error})"
            )

    async def _finalize(self, job: ActiveJob) -> None:
        if job.finalizing or job.record.terminal:
            return
        job.finalizing = True
        job.journal.close()
        if job.cancelled:
            state = JobState.CANCELLED
        elif job.failed:
            state = JobState.FAILED
        else:
            state = JobState.DONE
        error = None
        if job.failed and not job.cancelled:
            index, message = sorted(job.failed.items())[0]
            error = (
                f"{len(job.failed)} unit(s) failed permanently "
                f"(first: #{index}: {message})"
            )
        if state == JobState.DONE:
            # Writing the stats files serializes every run; keep the
            # event loop responsive while it happens.
            await asyncio.get_running_loop().run_in_executor(
                None, self._write_stats, job
            )
        job.record = self.store.transition(
            job.record, state, finished_utc=time.time(), error=error
        )
        job.journal.release_lock()
        self._count_job_event(state)
        self.registry.histogram(JOB_SECONDS_METRIC).observe(
            time.monotonic() - job.started_monotonic
        )
        self.log(
            f"[service] job {job.job_id} {state}: "
            f"{job.done}/{job.total} units"
            + (f" ({len(job.failed)} failed)" if job.failed else "")
        )
        self._publish(job, state)
        for queue in list(job.subscribers):
            queue.put_nowait(None)

    async def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job; already-journaled units stay journaled."""
        job = self.jobs.get(job_id)
        if job is None:
            record = self.store.load(job_id)
            if not record.terminal:
                record = self.store.transition(
                    record,
                    JobState.CANCELLED,
                    finished_utc=time.time(),
                )
                self._count_job_event(JobState.CANCELLED)
            return self._describe_record(record)
        if not job.record.terminal:
            job.cancelled = True
            job.pending.clear()
            self.fairshare.remove_job(job.tenant, job.job_id)
            if job.drained:
                await self._finalize(job)
            if self._wake is not None:
                self._wake.set()
        return self.describe_job(job_id)

    # -- events ------------------------------------------------------------

    def _publish(
        self,
        job: ActiveJob,
        event: str,
        metrics: Optional[Dict[str, Any]] = None,
        health: Optional[Dict[str, Any]] = None,
    ) -> None:
        job.seq += 1
        payload = job.envelope(event, metrics)
        if health is not None:
            payload["health"] = health
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    def subscribe(
        self, job_id: str
    ) -> "asyncio.Queue[Optional[Dict[str, Any]]]":
        """An event queue for one job, primed with a cumulative snapshot.

        The primer means late subscribers still converge: snapshot +
        subsequent deltas folds to the job's exact final registry.
        Terminal (or inactive) jobs get the snapshot, the terminal
        event, and the end-of-stream sentinel immediately.
        """
        queue: "asyncio.Queue[Optional[Dict[str, Any]]]" = (
            asyncio.Queue()
        )
        job = self.jobs.get(job_id)
        if job is not None:
            queue.put_nowait(
                job.envelope("snapshot", job.registry.snapshot())
            )
            if job.record.terminal:
                queue.put_nowait(job.envelope(job.record.state))
                queue.put_nowait(None)
            else:
                job.subscribers.append(queue)
            return queue
        # Not in memory (e.g. terminal before a restart): replay the
        # persisted envelope as a single terminal event.
        record = self.store.load(job_id)
        progress = self.store.progress(record)
        queue.put_nowait(
            sse_envelope(
                record.state,
                record,
                seq=0,
                done=progress["done"],
                resumed=0,
                failed=0,
                total=progress["total"],
            )
        )
        queue.put_nowait(None)
        return queue

    def unsubscribe(
        self,
        job_id: str,
        queue: "asyncio.Queue[Optional[Dict[str, Any]]]",
    ) -> None:
        job = self.jobs.get(job_id)
        if job is not None and queue in job.subscribers:
            job.subscribers.remove(queue)

    # -- status / metrics --------------------------------------------------

    def _describe_record(self, record: JobRecord) -> Dict[str, Any]:
        payload = record.to_dict()
        payload.update(self.store.progress(record))
        return payload

    def describe_job(self, job_id: str) -> Dict[str, Any]:
        job = self.jobs.get(job_id)
        if job is None:
            return self._describe_record(self.store.load(job_id))
        payload = job.record.to_dict()
        payload.update(
            {
                "done": job.done,
                "total": job.total,
                "failed_units": len(job.failed),
                "pending": len(job.pending),
                "inflight": job.inflight,
                "cancelled": job.cancelled,
                "cached": job.book.cached,
                "health": job.health.summary(),
            }
        )
        return payload

    def history(
        self,
        fingerprint: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run-ledger records as wire payloads, oldest first."""
        return [
            record.to_dict()
            for record in self.ledger.history(
                fingerprint=fingerprint, kind=kind, limit=limit
            )
        ]

    def describe_jobs(self) -> List[Dict[str, Any]]:
        described = []
        for record in self.store.list_jobs():
            described.append(self.describe_job(record.job_id))
        return described

    def _count_job_event(self, event: str) -> None:
        self.registry.counter(JOBS_METRIC, {"event": event}).inc()

    def count_http(self, method: str, code: int) -> None:
        self.registry.counter(
            HTTP_METRIC, {"method": method, "code": str(code)}
        ).inc()

    def metrics_registry(self) -> MetricsRegistry:
        """The service registry with liveness gauges refreshed."""
        running = sum(
            1
            for job in self.jobs.values()
            if job.record.state == JobState.RUNNING
        )
        queued = sum(
            1
            for job in self.jobs.values()
            if job.record.state == JobState.QUEUED
        )
        self.registry.gauge(RUNNING_GAUGE).set(running)
        self.registry.gauge(QUEUED_GAUGE).set(queued)
        return self.registry
