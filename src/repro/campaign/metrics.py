"""Campaign telemetry: registry-backed counters and the run report.

Shards record per-unit telemetry (unit wall time, simulated seconds,
oracle-cache lookups) into a private
:class:`~repro.obs.registry.MetricsRegistry`; every shard result ships
the drained snapshot and the campaign's unit book merges it here.
Per-worker counters are *views* over the merged registry, and the
same snapshots are what ``--metrics-out`` exports, so the operator
report and the machine artifact can never disagree.

Wall-clock accounting keeps two clocks on purpose:
``started_at``/``finished_at`` are ``time.monotonic()`` (immune to
clock steps, correct for durations) while ``started_at_utc``/
``finished_at_utc`` are absolute UTC timestamps, so journals and
exported metrics from *resumed* runs — separate processes with
unrelated monotonic epochs — can still be correlated on a shared
timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.analysis.report import ascii_table
from repro.obs.registry import MetricsRegistry

#: Metric families of the campaign layer; ``worker`` is the one label.
UNITS_METRIC = "repro_campaign_units_total"
UNIT_SECONDS_METRIC = "repro_campaign_unit_seconds"
BUSY_SECONDS_METRIC = "repro_campaign_busy_seconds_total"
SIM_SECONDS_METRIC = "repro_campaign_sim_seconds_total"
ORACLE_LOOKUPS_METRIC = "repro_campaign_oracle_lookups_total"
RETRIES_METRIC = "repro_campaign_retries_total"

#: Persistent result-store traffic, labelled ``op``/``outcome``
#: (``get``: hit/miss/corrupt; ``put``: write/skip).  Lives in this
#: module rather than :mod:`repro.store` because the store itself only
#: counts raw events — publication into a registry (and therefore into
#: exported artifacts) is a campaign/service concern.
STORE_EVENTS_METRIC = "repro_store_events_total"

#: ``(op, outcome)`` pairs pre-declared at zero whenever a store is in
#: play, so an exported artifact says "0 hits" explicitly instead of
#: omitting the family (same idiom as ``repro_cache_events_total``).
STORE_EVENT_KINDS = (
    ("get", "hit"),
    ("get", "miss"),
    ("get", "corrupt"),
    ("put", "write"),
    ("put", "skip"),
)


def publish_store_events(
    registry: MetricsRegistry,
    events: Mapping[Any, int],
    materialize: bool = True,
) -> None:
    """Fold drained store event counts into a metrics registry.

    ``events`` is :meth:`repro.store.ResultStore.drain_events` output
    (``(op, outcome) -> count``).  With ``materialize`` the standard
    event kinds are pre-declared at zero even when absent.
    """
    if materialize:
        for op, outcome in STORE_EVENT_KINDS:
            registry.counter(
                STORE_EVENTS_METRIC, {"op": op, "outcome": outcome}
            ).inc(0)
    for (op, outcome), count in events.items():
        registry.counter(
            STORE_EVENTS_METRIC, {"op": op, "outcome": outcome}
        ).inc(count)


@dataclass(frozen=True)
class WorkerCounters:
    """A read-only per-worker view over the merged registry."""

    worker_id: str
    units_done: int = 0
    retries: int = 0
    oracle_hits: int = 0
    oracle_misses: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0


def record_unit(
    registry: MetricsRegistry,
    worker_id: str,
    elapsed: float,
    sim_seconds: float,
    oracle_hits: int,
    oracle_misses: int,
) -> None:
    """Fold one completed unit into a campaign registry.

    Shared by the worker process (recording locally before a shard
    drain) and :meth:`CampaignMetrics.observe_unit` (recording
    directly at the scheduler), so both paths produce byte-identical
    snapshots.
    """
    labels = {"worker": worker_id}
    registry.counter(UNITS_METRIC, labels).inc()
    registry.histogram(UNIT_SECONDS_METRIC, labels).observe(elapsed)
    registry.counter(BUSY_SECONDS_METRIC, labels).inc(elapsed)
    registry.counter(SIM_SECONDS_METRIC, labels).inc(sim_seconds)
    if oracle_hits:
        registry.counter(
            ORACLE_LOOKUPS_METRIC, {**labels, "event": "hit"}
        ).inc(oracle_hits)
    if oracle_misses:
        registry.counter(
            ORACLE_LOOKUPS_METRIC, {**labels, "event": "miss"}
        ).inc(oracle_misses)


def record_retry(
    registry: MetricsRegistry, worker_id: str, timed_out: bool
) -> None:
    """Fold one retried unit attempt into a campaign registry."""
    registry.counter(
        RETRIES_METRIC,
        {"worker": worker_id, "timed_out": "true" if timed_out else "false"},
    ).inc()


@dataclass
class CampaignMetrics:
    """Campaign-wide telemetry, aggregated from registry snapshots."""

    total_units: int = 0
    resumed_units: int = 0
    #: Units satisfied from the persistent result store this run.
    store_units: int = 0
    #: Whether a result store was attached to this run at all; the
    #: report renders the store line either way, but says so.
    store_active: bool = False
    units_failed: int = 0
    shards: int = 0
    serial_fallback: bool = False
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    started_at: float = field(default_factory=time.monotonic)
    finished_at: Optional[float] = None
    #: Absolute UTC start/finish so resumed runs correlate on one
    #: timeline (monotonic epochs are per-process and incomparable).
    started_at_utc: float = field(default_factory=time.time)
    finished_at_utc: Optional[float] = None

    # -- recording ---------------------------------------------------------

    def observe_unit(
        self,
        worker_id: str,
        elapsed: float,
        sim_seconds: float,
        oracle_hits: int,
        oracle_misses: int,
    ) -> None:
        """Record one completed unit directly (serial/in-test path)."""
        record_unit(
            self.registry, worker_id, elapsed, sim_seconds,
            oracle_hits, oracle_misses,
        )

    def observe_retry(self, worker_id: str, timed_out: bool) -> None:
        record_retry(self.registry, worker_id, timed_out)

    def merge_worker_snapshot(
        self, payload: Optional[Mapping[str, Any]]
    ) -> None:
        """Fold a worker's drained campaign registry in."""
        self.registry.merge(payload)

    def absorb_store_events(self, events: Mapping[Any, int]) -> None:
        """Fold drained result-store counters in (zeros materialised)."""
        self.store_active = True
        publish_store_events(self.registry, events, materialize=True)

    def finish(self) -> None:
        self.finished_at = time.monotonic()
        self.finished_at_utc = time.time()

    # -- derived -----------------------------------------------------------

    def _family_by_worker(
        self, family: str, value_of=lambda counter: counter.value
    ) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, labels, counter in self.registry.iter_counters():
            if name != family:
                continue
            worker = dict(labels).get("worker", "?")
            totals[worker] = totals.get(worker, 0.0) + value_of(counter)
        return totals

    def _oracle_total(self, event: str) -> int:
        total = 0.0
        for name, labels, counter in self.registry.iter_counters():
            if (
                name == ORACLE_LOOKUPS_METRIC
                and dict(labels).get("event") == event
            ):
                total += counter.value
        return int(total)

    @property
    def units_done(self) -> int:
        return int(self.registry.family_total(UNITS_METRIC))

    @property
    def retries(self) -> int:
        return int(self.registry.family_total(RETRIES_METRIC))

    @property
    def timeouts(self) -> int:
        total = 0.0
        for name, labels, counter in self.registry.iter_counters():
            if (
                name == RETRIES_METRIC
                and dict(labels).get("timed_out") == "true"
            ):
                total += counter.value
        return int(total)

    @property
    def oracle_hits(self) -> int:
        return self._oracle_total("hit")

    @property
    def oracle_misses(self) -> int:
        return self._oracle_total("miss")

    def _store_total(self, op: str, outcome: str) -> int:
        total = 0.0
        for name, labels, counter in self.registry.iter_counters():
            if name != STORE_EVENTS_METRIC:
                continue
            label_map = dict(labels)
            if (
                label_map.get("op") == op
                and label_map.get("outcome") == outcome
            ):
                total += counter.value
        return int(total)

    @property
    def store_hits(self) -> int:
        return self._store_total("get", "hit")

    @property
    def store_misses(self) -> int:
        return self._store_total("get", "miss")

    @property
    def store_corrupt(self) -> int:
        return self._store_total("get", "corrupt")

    @property
    def store_writes(self) -> int:
        return self._store_total("put", "write")

    @property
    def store_skips(self) -> int:
        return self._store_total("put", "skip")

    @property
    def sim_seconds(self) -> float:
        return self.registry.family_total(SIM_SECONDS_METRIC)

    @property
    def workers(self) -> Dict[str, WorkerCounters]:
        """Per-worker views rebuilt from the merged registry."""
        units = self._family_by_worker(UNITS_METRIC)
        busy = self._family_by_worker(BUSY_SECONDS_METRIC)
        sim = self._family_by_worker(SIM_SECONDS_METRIC)
        retries = self._family_by_worker(RETRIES_METRIC)
        hits: Dict[str, float] = {}
        misses: Dict[str, float] = {}
        for name, labels, counter in self.registry.iter_counters():
            if name != ORACLE_LOOKUPS_METRIC:
                continue
            label_map = dict(labels)
            target = (
                hits if label_map.get("event") == "hit" else misses
            )
            worker = label_map.get("worker", "?")
            target[worker] = target.get(worker, 0.0) + counter.value
        worker_ids = (
            set(units) | set(busy) | set(retries) | set(hits)
            | set(misses)
        )
        return {
            worker_id: WorkerCounters(
                worker_id=worker_id,
                units_done=int(units.get(worker_id, 0)),
                retries=int(retries.get(worker_id, 0)),
                oracle_hits=int(hits.get(worker_id, 0)),
                oracle_misses=int(misses.get(worker_id, 0)),
                wall_seconds=busy.get(worker_id, 0.0),
                sim_seconds=sim.get(worker_id, 0.0),
            )
            for worker_id in worker_ids
        }

    @property
    def wall_seconds(self) -> float:
        end = (
            self.finished_at
            if self.finished_at is not None
            else time.monotonic()
        )
        return end - self.started_at

    @property
    def units_per_second(self) -> float:
        wall = self.wall_seconds
        return self.units_done / wall if wall > 0 else 0.0

    def progress_line(self) -> str:
        done = self.resumed_units + self.units_done
        total = max(self.total_units, 1)
        return (
            f"[campaign] {done}/{self.total_units} units "
            f"({100.0 * done / total:.1f}%), "
            f"{self.units_per_second:.0f} units/s, "
            f"{self.retries} retries, "
            f"{len(self.workers)} worker(s)"
        )

    def report(self) -> str:
        """The structured end-of-run report."""
        lookups = self.oracle_hits + self.oracle_misses
        hit_rate = self.oracle_hits / lookups if lookups else 0.0
        mode = "serial (fallback)" if self.serial_fallback else "sharded"
        workers = self.workers
        started = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.started_at_utc)
        )
        if self.store_active:
            lookups_s = self.store_hits + self.store_misses
            store_rate = self.store_hits / lookups_s if lookups_s else 0.0
            store_line = (
                f"result store: {self.store_hits} hits / "
                f"{self.store_misses} misses "
                f"({store_rate:.1%} hit rate), "
                f"{self.store_writes} written"
                + (f", {self.store_corrupt} corrupt"
                   if self.store_corrupt else "")
            )
        else:
            store_line = "result store: off"
        lines = [
            f"campaign execution: {mode}, "
            f"{len(workers)} worker(s), started {started}",
            f"units: {self.units_done} executed + "
            f"{self.resumed_units} resumed from journal + "
            f"{self.store_units} from store "
            f"/ {self.total_units} total"
            + (f" ({self.units_failed} FAILED)"
               if self.units_failed else ""),
            f"shards: {self.shards}, retries: {self.retries} "
            f"({self.timeouts} timeouts)",
            f"oracle cache: {self.oracle_hits} hits / "
            f"{self.oracle_misses} misses ({hit_rate:.1%} hit rate)",
            store_line,
            f"wall time: {self.wall_seconds:.2f}s "
            f"({self.units_per_second:.0f} units/s); "
            f"simulated device time: {self.sim_seconds:,.1f}s",
        ]
        if workers:
            rows: List[List[str]] = []
            for worker_id in sorted(workers):
                counters = workers[worker_id]
                rows.append(
                    [
                        counters.worker_id,
                        str(counters.units_done),
                        str(counters.retries),
                        f"{counters.oracle_hits}/"
                        f"{counters.oracle_misses}",
                        f"{counters.wall_seconds:.2f}",
                    ]
                )
            lines.append("")
            lines.append(
                ascii_table(
                    ["worker", "units", "retries", "oracle h/m",
                     "busy (s)"],
                    rows,
                    title="per-worker telemetry",
                )
            )
        return "\n".join(lines)
