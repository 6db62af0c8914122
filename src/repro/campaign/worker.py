"""Worker-side execution of campaign work units.

Each worker process is initialised once per campaign (suite built,
devices and environments materialised from the spec) and then executes
*shards* — batches of unit indices — returning picklable per-unit
outcomes.  Per-unit work runs under a soft deadline (SIGALRM where
available), and a transient failure in one unit never discards the
rest of its shard: the scheduler retries exactly the failed unit.

The same module drives serial execution: the scheduler's in-process
fallback calls :func:`initialize_worker` / :func:`execute_shard`
directly, so both paths share one code path per unit.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.serialize import run_to_dict
from repro.campaign.metrics import record_unit
from repro.env.environment import TestingEnvironment
from repro.env.runner import Runner
from repro.litmus.oracle import oracle_cache_stats
from repro.errors import ReproError
from repro.gpu.device import Device, make_device
from repro.campaign.spec import CampaignError, CampaignSpec, WorkUnit
from repro.obs.registry import MetricsRegistry


#: Environment-variable fault injection for drift-detection testing.
#: Unlike :class:`FaultPlan` (transient, retried failures), these
#: simulate *silent implementation drift*: the spec — and therefore
#: the grid fingerprint the run ledger matches baselines by — is
#: unchanged, but the results or timings shift.  ``REPRO_FAULT_
#: BUGGY_DEVICES`` (any non-empty value) builds every device with its
#: known bugs enabled regardless of ``spec.buggy``; ``REPRO_FAULT_
#: UNIT_SLEEP_FACTOR`` (a float) stretches every unit's measured wall
#: time by that fraction inside the timed window.
FAULT_BUGGY_ENV = "REPRO_FAULT_BUGGY_DEVICES"
FAULT_SLEEP_ENV = "REPRO_FAULT_UNIT_SLEEP_FACTOR"


def _fault_buggy_devices() -> bool:
    return bool(os.environ.get(FAULT_BUGGY_ENV, "").strip())


def _fault_sleep_factor() -> float:
    raw = os.environ.get(FAULT_SLEEP_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        return max(float(raw), 0.0)
    except ValueError:
        return 0.0


class UnitTimeout(ReproError):
    """A work unit exceeded its per-unit deadline."""


class TransientWorkerError(ReproError):
    """An injected or transient failure; the scheduler may retry."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic failure injection for retry/backoff testing.

    Units in ``unit_indices`` fail with :class:`TransientWorkerError`
    on their first ``failures`` attempts.  Attempt counts live in
    ``marker_dir`` files so they are consistent across worker
    processes (a retry may land on a different worker).
    """

    unit_indices: Tuple[int, ...]
    failures: int
    marker_dir: str

    def should_fail(self, index: int) -> bool:
        if index not in self.unit_indices:
            return False
        marker = Path(self.marker_dir) / f"unit-{index}.attempts"
        attempts = (
            int(marker.read_text()) if marker.exists() else 0
        )
        marker.write_text(str(attempts + 1))
        return attempts < self.failures

    def to_payload(self) -> Dict[str, Any]:
        return {
            "unit_indices": list(self.unit_indices),
            "failures": self.failures,
            "marker_dir": self.marker_dir,
        }

    @classmethod
    def from_payload(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["FaultPlan"]:
        if payload is None:
            return None
        return cls(
            unit_indices=tuple(payload["unit_indices"]),
            failures=payload["failures"],
            marker_dir=payload["marker_dir"],
        )


@dataclass
class UnitOutcome:
    """The picklable result of one unit attempt.

    Per-unit telemetry (timings, oracle-cache lookups) no longer rides
    on the outcome: workers fold it into a process-local
    :class:`~repro.obs.registry.MetricsRegistry` and ship the drained
    snapshot once per shard on the :class:`ShardResult`.
    """

    index: int
    worker_id: str
    elapsed: float
    run: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.run is not None


@dataclass
class ShardResult:
    """One shard's outcomes plus the worker's telemetry deltas.

    ``metrics`` is the always-on campaign registry snapshot (unit
    timings, oracle lookups) drained since the previous shard;
    ``obs`` is the optional full recorder payload (backend/ cache
    metrics, spans, events) when observability is enabled, else
    ``None``.  Both are deltas, so the scheduler can merge shard
    results in any arrival order and get exact totals.
    """

    outcomes: List[UnitOutcome]
    worker_id: str
    metrics: Optional[Dict[str, Any]] = None
    obs: Optional[Dict[str, Any]] = None


#: Always-on per-process campaign telemetry, independent of the global
#: obs recorder so the end-of-run report works with obs disabled.
_UNIT_METRICS = MetricsRegistry()


def drain_unit_metrics() -> Dict[str, Any]:
    """Snapshot-and-reset this process's campaign unit telemetry."""
    return _UNIT_METRICS.drain()


@dataclass
class WorkerState:
    """Everything a worker needs, materialised once from the spec."""

    spec: CampaignSpec
    runner: Runner
    devices: Dict[str, Device]
    tests: Dict[str, Any]
    environments: Dict[Tuple[str, int], TestingEnvironment]
    units: List[WorkUnit]
    fault_plan: Optional[FaultPlan] = None
    worker_id: str = field(
        default_factory=lambda: f"pid-{os.getpid()}"
    )


_STATE: Optional[WorkerState] = None

#: Materialised worker states keyed by spec fingerprint.  A persistent
#: service pool executes shards for *many* campaigns over the lifetime
#: of one worker process; caching by fingerprint makes switching specs
#: free after the first shard of each.  Bounded so a long-lived daemon
#: serving thousands of jobs cannot grow worker memory without limit.
_STATE_CACHE: Dict[str, WorkerState] = {}
_STATE_CACHE_CAPACITY = 4
_STATE_LOCK = threading.Lock()


def state_for(spec_payload: Dict[str, Any]) -> WorkerState:
    """The cached (or freshly built) state for one spec payload.

    Eviction is least-recently-used over spec fingerprints.  Thread-
    safe because the service may run shards on a thread pool when a
    process pool is unavailable.
    """
    spec = CampaignSpec.from_dict(spec_payload)
    # Fault injection changes the materialised devices without
    # changing the fingerprint (that is its entire point), so it must
    # participate in the cache key or a flipped knob could serve a
    # stale state within one process.
    fingerprint = spec.fingerprint() + (
        ":faulty" if _fault_buggy_devices() else ""
    )
    with _STATE_LOCK:
        state = _STATE_CACHE.pop(fingerprint, None)
        if state is not None:
            _STATE_CACHE[fingerprint] = state  # re-insert: now newest
            return state
    state = build_state(spec)
    with _STATE_LOCK:
        _STATE_CACHE[fingerprint] = state
        while len(_STATE_CACHE) > _STATE_CACHE_CAPACITY:
            _STATE_CACHE.pop(next(iter(_STATE_CACHE)))
    return state


def _resolve_test(name: str, synthesized=None):
    """Resolve a test name like the CLI does: the campaign's
    synthesized suite (when the spec names one), then the built-in
    suite, library, and extended library."""
    from repro.litmus import extended, library
    from repro.mutation import default_suite

    if synthesized is not None:
        try:
            return synthesized.find(name)
        except KeyError:
            pass
    suite = default_suite()
    try:
        return suite.find(name)
    except KeyError:
        pass
    try:
        return library.by_name(name)
    except KeyError:
        pass
    try:
        return extended.by_name(name)
    except KeyError:
        raise CampaignError(f"unknown test in campaign spec: {name!r}")


def build_state(
    spec: CampaignSpec, fault_plan: Optional[FaultPlan] = None
) -> WorkerState:
    """Materialise devices, tests, and environments for one process."""
    runner = Runner(
        backend=spec.backend,
        max_operational_instances=spec.max_operational_instances,
        iterations_override=spec.iterations_override,
    )
    devices = {
        name: make_device(
            name, buggy=spec.buggy or _fault_buggy_devices()
        )
        for name in spec.device_names
    }
    synthesized = None
    if spec.suite_path is not None:
        from repro.synthesis import SynthesisError, load_suite

        try:
            synthesized = load_suite(spec.suite_path)
        except SynthesisError as error:
            raise CampaignError(
                f"campaign names a synthesized suite that cannot be "
                f"loaded: {error}"
            )
    tests = {
        name: _resolve_test(name, synthesized)
        for name in spec.test_names
    }
    environments: Dict[Tuple[str, int], TestingEnvironment] = {}
    for kind in spec.kind_members:
        for environment in spec.environments(kind):
            environments[(kind.name, environment.env_key)] = environment
    return WorkerState(
        spec=spec,
        runner=runner,
        devices=devices,
        tests=tests,
        environments=environments,
        units=spec.units(),
        fault_plan=fault_plan,
    )


def initialize_worker(
    spec_payload: Dict[str, Any],
    fault_payload: Optional[Dict[str, Any]] = None,
    obs_payload: Optional[Dict[str, Any]] = None,
) -> None:
    """Process-pool initializer: build this worker's state once.

    ``obs_payload`` is the scheduler recorder's configuration (or
    ``None`` when observability is disabled); it makes every worker
    record with the same capacities/sampling as the scheduler.
    """
    global _STATE
    obs.configure(obs_payload)
    _STATE = build_state(
        CampaignSpec.from_dict(spec_payload),
        FaultPlan.from_payload(fault_payload),
    )


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """A soft per-unit deadline via SIGALRM, where the platform has it.

    Workers are single-threaded processes, so an interval timer in the
    worker is the cheapest preemption we can get; on platforms without
    SIGALRM the deadline degrades to "no timeout" and the scheduler's
    shard-level watchdog still applies.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        # signal handlers can only be installed from the main thread;
        # on a thread-pool fallback the shard watchdog still applies.
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise UnitTimeout(f"unit exceeded {seconds:.3f}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_unit(
    state: WorkerState,
    index: int,
    timeout: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> UnitOutcome:
    """Run one work unit, returning a picklable outcome (never raises).

    ``metrics`` is the registry unit telemetry lands in; shard
    execution passes a private per-shard registry so concurrent shards
    (thread-pool mode) never mix their deltas, while the scheduler's
    serial path keeps the module-level one it drains after every unit.
    """
    rec = obs.recorder()
    registry = metrics if metrics is not None else _UNIT_METRICS
    started = time.perf_counter()
    before = oracle_cache_stats()
    try:
        unit = state.units[index]
        if state.fault_plan is not None and state.fault_plan.should_fail(
            index
        ):
            raise TransientWorkerError(
                f"injected transient failure for unit {index}"
            )
        with _deadline(timeout):
            with rec.span(
                "campaign.unit",
                index=index,
                test=unit.test_name,
                device=unit.device_name,
            ):
                run = state.runner.run(
                    state.devices[unit.device_name],
                    state.tests[unit.test_name],
                    state.environments[(unit.kind.name, unit.env_key)],
                    unit.rng(state.spec.seed),
                )
        after = oracle_cache_stats()
        sleep_factor = _fault_sleep_factor()
        if sleep_factor > 0:
            # Inside the timed window on purpose: the injected
            # slowdown must be visible to every latency metric.
            time.sleep(sleep_factor * (time.perf_counter() - started))
        elapsed = time.perf_counter() - started
        record_unit(
            registry,
            state.worker_id,
            elapsed=elapsed,
            sim_seconds=run.seconds,
            oracle_hits=after.hits - before.hits,
            oracle_misses=after.misses - before.misses,
        )
        if rec.enabled:
            rec.observe(
                "repro_backend_unit_seconds",
                elapsed,
                {"backend": state.spec.backend},
            )
        return UnitOutcome(
            index=index,
            worker_id=state.worker_id,
            elapsed=elapsed,
            run=run_to_dict(run),
        )
    except UnitTimeout as error:
        return UnitOutcome(
            index=index,
            worker_id=state.worker_id,
            elapsed=time.perf_counter() - started,
            error=str(error),
            timed_out=True,
        )
    except Exception as error:  # transient or real: scheduler decides
        return UnitOutcome(
            index=index,
            worker_id=state.worker_id,
            elapsed=time.perf_counter() - started,
            error=f"{type(error).__name__}: {error}",
        )


def _shard_result(
    state: WorkerState,
    indices: Sequence[int],
    timeout: Optional[float] = None,
) -> ShardResult:
    """Run one shard against a state with a private metrics registry."""
    local = MetricsRegistry()
    outcomes = [
        execute_unit(state, index, timeout, metrics=local)
        for index in indices
    ]
    obs.publish_cache_metrics()
    return ShardResult(
        outcomes=outcomes,
        worker_id=state.worker_id,
        metrics=local.drain(),
        obs=obs.recorder().drain(),
    )


def execute_shard(
    indices: Sequence[int], timeout: Optional[float] = None
) -> ShardResult:
    """Pool task entry point: run a shard in this worker's state."""
    if _STATE is None:
        raise CampaignError(
            "worker used before initialize_worker() ran"
        )
    return _shard_result(_STATE, indices, timeout)


def initialize_service_worker(
    obs_payload: Optional[Dict[str, Any]] = None,
) -> None:
    """Pool initializer for the *shared* service pool.

    Unlike :func:`initialize_worker` no spec is pinned: the pool
    outlives any one campaign, and :func:`execute_shard_for` resolves
    (and caches) state per spec payload instead.
    """
    obs.configure(obs_payload)


def execute_shard_for(
    spec_payload: Dict[str, Any],
    indices: Sequence[int],
    timeout: Optional[float] = None,
) -> ShardResult:
    """Run a shard of the given spec in this (shared-pool) worker."""
    return _shard_result(state_for(spec_payload), indices, timeout)
