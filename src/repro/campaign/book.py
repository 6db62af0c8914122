"""The unit book: one campaign's per-unit bookkeeping.

Both campaign drivers — :class:`~repro.campaign.scheduler.
CampaignScheduler` (one campaign, in the foreground) and the service's
job runtime (many campaigns over one shared pool) — keep one book per
campaign.  The book owns everything a settled unit attempt changes:
the journal, the result store, the live
:class:`~repro.obs.health.HealthMonitor`, the campaign metrics, and
the retry decision.  The drivers keep only their dispatch policy:
which shard runs where and when, backoff, pool degradation.

Determinism contract: :meth:`UnitBook.results` assembles runs in
canonical unit order, so stats never depend on completion order,
shard boundaries, worker count, or which driver ran the campaign.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.backends import resolve
from repro.campaign.journal import CampaignJournal
from repro.campaign.metrics import CampaignMetrics, record_retry
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import ShardResult, UnitOutcome
from repro.env.environment import EnvironmentKind
from repro.env.runner import TestRun
from repro.env.tuning import TuningResult
from repro.obs.health import HealthMonitor
from repro.obs.registry import MetricsRegistry
from repro.store import ResultStore, unit_digests


class UnitBook:
    """Which units of one campaign are done, failed, or due a retry."""

    def __init__(
        self,
        spec: CampaignSpec,
        journal: Optional[CampaignJournal],
        max_retries: int,
        health: Optional[HealthMonitor] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec
        self.units = spec.units()
        self.journal = journal
        self.max_retries = max_retries
        self.health = health or HealthMonitor()
        self.log = log or (lambda message: None)
        self.metrics = CampaignMetrics(total_units=len(self.units))
        #: Completed runs by unit index, journaled or executed.
        self.runs: Dict[int, TestRun] = {}
        self.attempts: Dict[int, int] = {}
        self.failed: Dict[int, str] = {}
        #: Done units that came out of the result store, this run or a
        #: resumed one (journaled with ``attempts=0``).
        self.cached = 0
        self.store: Optional[ResultStore] = None
        self.digests: Dict[int, str] = {}
        if spec.store_path is not None and spec.store_policy != "off":
            self.store = ResultStore(spec.store_path)
            self.digests = unit_digests(spec)
        backend_class = resolve(spec.backend)
        self._backend = (backend_class.name, backend_class.version)

    def pending(self) -> List[int]:
        """Units neither done nor permanently failed, in unit order."""
        return [
            unit.index
            for unit in self.units
            if unit.index not in self.runs and unit.index not in self.failed
        ]

    def resume(self) -> List[int]:
        """Book the journaled runs; return the pending unit indices."""
        if self.journal is not None:
            by_key = {unit.key: unit for unit in self.units}
            for record in self.journal.load_records():
                unit = by_key.get(record.key)
                if unit is None or unit.index in self.runs:
                    continue  # stale or duplicated record: ignore
                self.runs[unit.index] = record.run
                self.cached += record.attempts == 0
        self.metrics.resumed_units = len(self.runs)
        return self.pending()

    def reuse(self, pending: List[int]) -> List[int]:
        """Take pending units from the result store; return the rest.

        Only under the ``reuse`` store policy.  Every hit is journaled
        with ``attempts=0`` — the store-loaded marker — so kill+resume,
        ``campaign status``, and the service's restart recovery see a
        store-warmed campaign exactly like an executed one.  A
        corrupted or missing object is a counted miss, never an error:
        the unit simply executes.
        """
        if self.store is None or self.spec.store_policy != "reuse":
            return pending
        still_pending: List[int] = []
        for index in pending:
            cached = self.store.get(self.digests[index])
            if cached is None:
                still_pending.append(index)
                continue
            _, run = cached
            self.runs[index] = run
            if self.journal is not None:
                self.journal.append(self.units[index], run, 0.0, 0)
        hits = len(pending) - len(still_pending)
        self.metrics.store_units = hits
        self.cached += hits
        if hits:
            self.log(
                f"{hits} of {len(pending)} pending units loaded from "
                f"the result store"
            )
        return still_pending

    def absorb(self, result: ShardResult) -> Tuple[List[int], Dict[str, Any]]:
        """Book one shard's outcomes.

        Returns the unit indices that should retry and the shard's
        metrics delta — its unit telemetry plus the retries it caused —
        which is already merged into :attr:`metrics`; the service
        forwards it to its own registry and SSE subscribers.
        """
        delta = MetricsRegistry()
        delta.merge(result.metrics)
        retries = [
            outcome.index
            for outcome in result.outcomes
            if self._absorb_outcome(outcome, delta)
        ]
        payload = delta.drain()
        self.metrics.merge_worker_snapshot(payload)
        return retries, payload

    def _absorb_outcome(
        self, outcome: UnitOutcome, delta: MetricsRegistry
    ) -> bool:
        """Book one unit attempt; return whether the unit should retry."""
        index = outcome.index
        attempts = self.attempts.get(index, 0) + 1
        self.attempts[index] = attempts
        if outcome.ok:
            self._complete(outcome, attempts)
            return False
        rec = obs.recorder()
        if outcome.timed_out:
            rec.event(
                "campaign.unit_timeout",
                unit=index,
                worker=outcome.worker_id,
                attempt=attempts,
            )
        if attempts <= self.max_retries:
            record_retry(delta, outcome.worker_id, outcome.timed_out)
            rec.event(
                "campaign.unit_retry",
                unit=index,
                worker=outcome.worker_id,
                attempt=attempts,
                timed_out=outcome.timed_out,
            )
            self.log(
                f"unit {index} attempt {attempts} failed "
                f"({outcome.error}); retrying"
            )
            return True
        error = outcome.error or "unknown error"
        self.failed[index] = error
        self.metrics.units_failed += 1
        rec.event(
            "campaign.unit_failed",
            unit=index,
            worker=outcome.worker_id,
            attempts=attempts,
            error=error,
        )
        self.log(
            f"unit {index} failed permanently after {attempts} "
            f"attempts: {outcome.error}"
        )
        return False

    def _complete(self, outcome: UnitOutcome, attempts: int) -> None:
        index, run = outcome.index, outcome.run
        unit = self.units[index]
        self.runs[index] = run
        if self.journal is not None:
            self.journal.append(unit, run, outcome.elapsed, attempts)
        if self.store is not None:
            self.store.put(self.digests[index], unit.kind, run, *self._backend)
        straggler = self.health.observe_unit(
            outcome.elapsed, worker=outcome.worker_id, unit=index
        )
        if straggler is not None:
            self.log(
                f"health: unit {index} straggled "
                f"({straggler['elapsed']:.3f}s > "
                f"{straggler['threshold']:.3f}s)"
            )
        drift = self.health.observe_kills(
            run.kills, run.instances, unit=index
        )
        if drift is not None:
            self.log(
                f"health: cumulative kill rate "
                f"{drift['observed_rate']:.4%} drifted from the "
                f"expected {drift['expected_rate']:.4%} "
                f"(z={drift['z']:+.1f})"
            )

    def results(self) -> Dict[EnvironmentKind, TuningResult]:
        """The booked runs as per-kind results, in unit order."""
        return assemble_results(
            self.spec,
            [
                (index, self.units[index].kind, run)
                for index, run in self.runs.items()
            ],
        )


def assemble_results(
    spec: CampaignSpec,
    indexed_runs: List[Tuple[int, EnvironmentKind, TestRun]],
) -> Dict[EnvironmentKind, TuningResult]:
    """Group completed runs into per-kind results, in unit order.

    Canonical ordering is what makes assembly independent of
    completion order: the runs list matches what the serial
    ``tuning_run`` path produces for the same seed, which is also why
    a service job's stats are bit-identical to a one-shot ``campaign
    run`` of the same spec.
    """
    by_kind: Dict[EnvironmentKind, List[Tuple[int, TestRun]]] = {}
    for index, kind, run in indexed_runs:
        by_kind.setdefault(kind, []).append((index, run))
    results: Dict[EnvironmentKind, TuningResult] = {}
    for kind in spec.kind_members:
        pairs = sorted(by_kind.get(kind, []))
        if not pairs:
            continue
        results[kind] = TuningResult(
            kind=kind,
            runs=[run for _, run in pairs],
            backend=spec.backend,
        )
    return results
