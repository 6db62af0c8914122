"""The sharded campaign executor.

Partitions a spec's pending work units into shards and runs them in
retry rounds: on a ``multiprocessing`` pool (``workers`` defaults to
``os.cpu_count()``), or in-process for serial runs.  Both modes run the
same shard function and feed one absorption path into the campaign's
:class:`~repro.campaign.book.UnitBook`, which journals every completed
unit the moment its shard arrives and decides which transient failures
retry; the scheduler adds exponential backoff between rounds.  When the
pool cannot start — or dies mid-campaign — the remaining shards run
in-process, so a campaign always completes with identical numbers,
just slower.

Determinism contract: unit results depend only on (campaign seed, unit
key) — never on shard boundaries, completion order, or worker count —
and assembly orders runs canonically, so a 1-worker and an N-worker
run of the same spec produce byte-identical results.
:func:`verify_order_independence` asserts exactly that.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.env.environment import EnvironmentKind
from repro.env.tuning import TuningResult
from repro.campaign.book import UnitBook
from repro.campaign.journal import CampaignJournal, JournalRecord
from repro.campaign.metrics import CampaignMetrics
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.obs.health import HealthMonitor
from repro.campaign.worker import (
    FaultPlan,
    ShardResult,
    configure_worker,
    execute_shard,
    run_shard,
)

Log = Callable[[str], None]


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the sharded executor."""

    #: Worker processes; ``None`` means ``os.cpu_count()``.
    workers: Optional[int] = None
    #: Units per shard; amortises dispatch over sub-ms units.
    shard_size: int = 64
    #: Soft per-unit deadline enforced inside the worker (seconds); a
    #: rectangle of n units runs under n times it.
    unit_timeout: Optional[float] = 30.0
    #: Retries per unit before the failure becomes permanent.
    max_retries: int = 2
    #: Base of the exponential retry backoff (seconds).
    retry_backoff: float = 0.05
    #: Emit a progress line at most this often (seconds); None = off.
    progress_interval: Optional[float] = None
    #: Testing hook: deterministic transient-failure injection.
    fault_plan: Optional[FaultPlan] = None
    #: Run every shard in-process, skipping the pool.
    force_serial: bool = False

    def effective_workers(self) -> int:
        if self.workers is not None:
            if self.workers < 1:
                raise CampaignError("workers must be >= 1")
            return self.workers
        return max(1, os.cpu_count() or 1)


@dataclass
class CampaignOutcome:
    """Everything a finished campaign produced."""

    spec: CampaignSpec
    results: Dict[EnvironmentKind, TuningResult]
    metrics: CampaignMetrics
    failed: List[Tuple[int, str]] = field(default_factory=list)
    #: Live health summary (stragglers, mid-run kill drift) from the
    #: unit book's :class:`~repro.obs.health.HealthMonitor`.
    health: Optional[Dict[str, object]] = None

    @property
    def complete(self) -> bool:
        return not self.failed

    def report(self) -> str:
        return self.metrics.report()


class CampaignScheduler:
    """Drives one campaign from spec to assembled results."""

    def __init__(
        self,
        spec: CampaignSpec,
        journal: Optional[CampaignJournal] = None,
        config: Optional[ExecutorConfig] = None,
        log: Optional[Log] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.spec = spec
        self.journal = journal
        self.config = config or ExecutorConfig()
        self.log = log = log or (lambda message: None)
        # Always-on live monitoring: stragglers adapt to the grid's
        # own timing distribution, and kill-drift activates when the
        # caller wires an expected rate (normally the ledger's
        # baseline window for this fingerprint).  The book's log must
        # not close over ``self``: a scheduler <-> book cycle would
        # keep every finished campaign's book alive until the next
        # full garbage collection.
        self.book = UnitBook(
            spec,
            journal,
            self.config.max_retries,
            health,
            log=lambda message: log(f"[campaign] {message}"),
        )
        self.metrics = self.book.metrics
        self._payload = spec.to_dict()
        self._fault_payload = (
            self.config.fault_plan.to_payload()
            if self.config.fault_plan is not None
            else None
        )
        self._last_progress = 0.0

    # -- public ------------------------------------------------------------

    def run(self) -> CampaignOutcome:
        book = self.book
        rec = obs.recorder()
        with rec.span(
            "campaign.run", campaign=self.spec.name, units=len(book.units)
        ):
            # One writer per journal: a concurrent resume of the same
            # journal would double-execute units and interleave
            # appends, so the second scheduler is refused up front.
            if self.journal is not None:
                self.journal.acquire_lock()
            try:
                pending = book.reuse(book.resume())
                if not pending:
                    self.log(
                        f"[campaign] {self.spec.name}: nothing to do "
                        f"({len(book.units)} units already journaled)"
                    )
                else:
                    self.log(
                        f"[campaign] {self.spec.name}: {len(pending)} of "
                        f"{len(book.units)} units pending"
                    )
                    self._execute(pending)
            finally:
                if self.journal is not None:
                    self.journal.close()
                    self.journal.release_lock()
        if book.store is not None:
            self.metrics.absorb_store_events(book.store.drain_events())
        self.metrics.finish()
        # Fold campaign telemetry into the process recorder so the
        # exported artifacts carry the repro_campaign_* families too.
        # Shard telemetry only ever lands in metrics.registry, so this
        # is the single source — no double counting.
        if rec.enabled:
            rec.registry.merge(self.metrics.registry.snapshot())
        outcome = CampaignOutcome(
            spec=self.spec,
            results=book.results(),
            metrics=self.metrics,
            failed=sorted(book.failed.items()),
            health=book.health.summary(),
        )
        if outcome.failed:
            raise CampaignFailure(outcome)
        return outcome

    # -- execution ---------------------------------------------------------

    def _execute(self, pending: List[int]) -> None:
        """Run shards in retry rounds until no unit is left to retry.

        Serial runs execute each shard in-process; pool runs submit the
        same shards.  A pool that cannot start, or breaks mid-run
        (killed worker, unpicklable state, watchdog expiry), degrades
        to in-process shards for whatever is still pending: everything
        already journaled stays done.
        """
        pool = None
        if self.config.force_serial or self.config.effective_workers() == 1:
            self.metrics.serial_fallback = self.config.force_serial
            if self.config.force_serial:
                obs.recorder().event(
                    "campaign.serial_fallback",
                    campaign=self.spec.name,
                    reason="forced",
                )
        else:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=self.config.effective_workers(),
                    initializer=configure_worker,
                    initargs=(obs.recorder().config_payload(),),
                )
            except Exception as error:  # pool cannot start: degrade
                self._degrade("startup", error)
        queue = pending
        try:
            while queue:
                shards = self._shards(queue)
                self.metrics.shards += len(shards)
                retries: List[int] = []
                try:
                    for result in self._results(pool, shards):
                        retries += self._absorb_shard(result)
                except Exception as error:
                    if pool is None:
                        raise
                    pool.shutdown(cancel_futures=True)
                    pool = None
                    self._degrade("mid-run", error)
                    queue = self.book.pending()
                    continue
                if retries:
                    self._backoff(retries[0])
                queue = retries
        finally:
            if pool is not None:
                pool.shutdown()

    def _results(
        self, pool: Optional[ProcessPoolExecutor], shards: List[List[int]]
    ) -> Iterator[ShardResult]:
        args = (self.config.unit_timeout, self._fault_payload)
        if pool is None:
            for shard in shards:
                yield run_shard(self._payload, shard, *args)
            return
        futures = [
            pool.submit(execute_shard, self._payload, shard, *args)
            for shard in shards
        ]
        for future, shard in zip(futures, shards):
            yield future.result(timeout=self._watchdog_seconds(len(shard)))

    def _absorb_shard(self, result: ShardResult) -> List[int]:
        """Book one shard, from either mode; return its retries."""
        obs.recorder().absorb(
            result.obs, extra_attrs={"worker": result.worker_id}
        )
        retries, _ = self.book.absorb(result)
        self._progress()
        return retries

    def _degrade(self, stage: str, error: Exception) -> None:
        self.log(
            f"[campaign] worker pool failed at {stage} ({error}); "
            f"running the remaining shards in-process"
        )
        obs.recorder().event(
            "campaign.pool_degraded",
            campaign=self.spec.name,
            stage=stage,
            error=str(error),
        )
        self.metrics.serial_fallback = True

    def _shards(self, indices: List[int]) -> List[List[int]]:
        size = max(1, self.config.shard_size)
        return [
            indices[start:start + size]
            for start in range(0, len(indices), size)
        ]

    def _watchdog_seconds(self, shard_len: int) -> Optional[float]:
        """Shard-level backstop above the in-worker unit deadline."""
        if self.config.unit_timeout is None:
            return None
        return self.config.unit_timeout * shard_len + 60.0

    def _backoff(self, index: int) -> None:
        if self.config.retry_backoff <= 0:
            return
        exponent = max(0, self.book.attempts.get(index, 1) - 1)
        time.sleep(self.config.retry_backoff * (2.0 ** exponent))

    def _progress(self) -> None:
        interval = self.config.progress_interval
        if interval is None:
            return
        now = time.monotonic()
        if now - self._last_progress >= interval:
            self._last_progress = now
            self.log(self.metrics.progress_line())


class CampaignFailure(CampaignError):
    """Units failed permanently; successes remain journaled."""

    def __init__(self, outcome: CampaignOutcome) -> None:
        self.outcome = outcome
        preview = ", ".join(
            f"#{index}: {error}" for index, error in outcome.failed[:3]
        )
        super().__init__(
            f"{len(outcome.failed)} unit(s) failed permanently "
            f"({preview}); completed units are journaled — fix and "
            f"resume"
        )


# -- top-level entry points ----------------------------------------------------


def run_campaign(
    spec: CampaignSpec,
    journal_path: Optional[Union[str, Path]] = None,
    config: Optional[ExecutorConfig] = None,
    log: Optional[Log] = None,
    health: Optional[HealthMonitor] = None,
) -> CampaignOutcome:
    """Run (or resume) a campaign; journaling is on iff a path is given."""
    journal = (
        CampaignJournal.create(journal_path, spec)
        if journal_path is not None
        else None
    )
    return CampaignScheduler(spec, journal, config, log, health).run()


def resume_campaign(
    journal_path: Union[str, Path],
    config: Optional[ExecutorConfig] = None,
    log: Optional[Log] = None,
    store_path: Optional[str] = None,
    store_policy: Optional[str] = None,
    health: Optional[HealthMonitor] = None,
) -> CampaignOutcome:
    """Continue a journaled campaign using the spec in its header.

    ``store_path`` / ``store_policy`` override the header's store
    knobs for this resume only.  That is always safe: both are
    execution fields excluded from the grid fingerprint, so attaching
    a store to (or detaching one from) an old journal never changes
    which campaign it is.
    """
    journal = CampaignJournal(Path(journal_path))
    spec = journal.load_spec()
    overrides: Dict[str, Optional[str]] = {}
    if store_path is not None:
        overrides["store_path"] = store_path
    if store_policy is not None:
        overrides["store_policy"] = store_policy
    if overrides:
        spec = replace(spec, **overrides)
    return CampaignScheduler(spec, journal, config, log, health).run()


@dataclass(frozen=True)
class CampaignStatus:
    """A read-only view of a journal for ``campaign status``."""

    spec: CampaignSpec
    total_units: int
    done_units: int
    per_kind: Dict[str, Tuple[int, int]]  # kind -> (done, total)
    #: Journaled units that came from the result store (``attempts==0``
    #: is the store-loaded marker) rather than execution.
    store_units: int = 0

    @property
    def complete(self) -> bool:
        return self.done_units >= self.total_units

    def describe(self) -> str:
        lines = [
            f"campaign {self.spec.name!r} "
            f"(fingerprint {self.spec.fingerprint()}): "
            f"{self.done_units}/{self.total_units} units done"
            + (" — complete" if self.complete else ""),
        ]
        for kind_name, (done, total) in self.per_kind.items():
            lines.append(f"  {kind_name:>13}: {done}/{total}")
        if self.spec.store_policy != "off" or self.store_units:
            lines.append(
                f"  result store: {self.store_units} of "
                f"{self.done_units} done units loaded from store "
                f"(policy {self.spec.store_policy}, "
                f"path {self.spec.store_path or 'unset'})"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (``campaign status --json``)."""
        return {
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "backend": self.spec.backend,
            "total_units": self.total_units,
            "done_units": self.done_units,
            "complete": self.complete,
            "per_kind": {
                kind: {"done": done, "total": total}
                for kind, (done, total) in self.per_kind.items()
            },
            "store": {
                "path": self.spec.store_path,
                "policy": self.spec.store_policy,
                "units_from_store": self.store_units,
            },
        }


def campaign_status(
    journal_path: Union[str, Path]
) -> CampaignStatus:
    journal = CampaignJournal(Path(journal_path))
    spec = journal.load_spec()
    units = spec.units()
    records: List[JournalRecord] = journal.load_records()
    done_keys = {record.key for record in records}
    store_keys = {
        record.key for record in records if record.attempts == 0
    }
    per_kind: Dict[str, Tuple[int, int]] = {}
    for kind in spec.kind_members:
        kind_units = [u for u in units if u.kind is kind]
        done = sum(1 for u in kind_units if u.key in done_keys)
        per_kind[kind.name] = (done, len(kind_units))
    return CampaignStatus(
        spec=spec,
        total_units=len(units),
        done_units=sum(done for done, _ in per_kind.values()),
        per_kind=per_kind,
        store_units=len(store_keys),
    )


def verify_order_independence(
    spec: CampaignSpec,
    workers: int = 2,
    log: Optional[Log] = None,
) -> None:
    """Assert a 1-worker and an N-worker run agree unit-for-unit.

    This is the executable form of the determinism contract; it raises
    :class:`CampaignError` on the first diverging unit.
    """
    serial = CampaignScheduler(
        spec, config=ExecutorConfig(workers=1), log=log
    ).run()
    parallel = CampaignScheduler(
        spec, config=ExecutorConfig(workers=workers), log=log
    ).run()
    for kind, serial_result in serial.results.items():
        parallel_result = parallel.results.get(kind)
        if parallel_result is None:
            raise CampaignError(
                f"parallel run is missing kind {kind.name}"
            )
        if serial_result.runs != parallel_result.runs:
            for left, right in zip(
                serial_result.runs, parallel_result.runs
            ):
                if left != right:
                    raise CampaignError(
                        f"order-independence violated for "
                        f"{left.test_name} on {left.device_name} in "
                        f"{left.environment.name}: serial "
                        f"kills={left.kills} vs parallel "
                        f"kills={right.kills}"
                    )
            raise CampaignError(
                f"order-independence violated for kind {kind.name}"
            )
    if log is not None:
        log(
            f"[campaign] determinism verified: 1-worker and "
            f"{workers}-worker runs identical "
            f"({spec.unit_count()} units)"
        )
