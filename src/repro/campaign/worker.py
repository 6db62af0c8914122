"""Worker-side execution of campaign work units.

A *shard* — a batch of unit indices of one spec — is the unit of
dispatch.  :func:`run_shard` executes one in the calling process and
returns picklable per-unit outcomes; :func:`execute_shard` is the one
pool entry point (the campaign scheduler's pool and the service's
shared pool both submit it), and :func:`configure_worker` the one pool
initializer.  Shards carry their spec payload, so a worker materialises
its state (suite, devices, environments, backend) on the first shard
of each spec and reuses it through the :func:`state_for` memo; serial
campaigns run the very same shards in-process.

A shard executes as exact sub-grids (:func:`rectangles`): each is one
:meth:`~repro.backends.base.Backend.run_grid` call, so array backends
pay their per-call overhead once per rectangle rather than once per
cell, and backends without a native grid run their per-cell loop
inside ``run_grid``.  Each rectangle runs under a soft deadline
(SIGALRM where available), and a failure in one rectangle never
discards the rest of its shard: the driver retries exactly the failed
units.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro import obs
from repro.backends import Backend, make_backend
from repro.campaign.metrics import record_unit
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun
from repro.litmus.oracle import oracle_cache_stats
from repro.errors import ReproError
from repro.gpu.device import Device, make_device
from repro.campaign.spec import CampaignError, CampaignSpec, WorkUnit
from repro.memo import Memo
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
    """Work units exceeded their deadline (per unit, times the cells
    of the rectangle they ran in)."""


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
    run: Optional[TestRun] = None
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
    ``obs`` is the pool worker's full recorder payload (backend/cache
    metrics, spans, events) when observability is enabled, else
    ``None``; in-process shards record straight into the caller's
    recorder and leave it ``None``.  Both are deltas, so a driver can
    merge shard results in any arrival order and get exact totals.
    """

    outcomes: List[UnitOutcome]
    worker_id: str
    metrics: Optional[Dict[str, Any]] = None
    obs: Optional[Dict[str, Any]] = None


@dataclass
class WorkerState:
    """Everything a worker needs, materialised once from the spec."""

    spec: CampaignSpec
    backend: Backend
    devices: Dict[str, Device]
    tests: Dict[str, Any]
    environments: Dict[Tuple[str, int], TestingEnvironment]
    units: List[WorkUnit]


#: Materialised worker states keyed by spec fingerprint.  A pool worker
#: (and a long-lived service pool above all) executes shards of *many*
#: campaigns; caching by fingerprint makes switching specs free after
#: the first shard of each, and the bound keeps a daemon serving
#: thousands of jobs from growing worker memory without limit.
_STATES = Memo("worker_state", 4)
#: ``Memo`` is not thread-safe, and the service may run shards on a
#: thread pool when a process pool is unavailable.
_STATES_LOCK = threading.Lock()


def state_for(spec_payload: Dict[str, Any]) -> WorkerState:
    """The cached (or freshly built) state for one spec payload."""
    spec = CampaignSpec.from_dict(spec_payload)
    # Fault injection changes the materialised devices without
    # changing the fingerprint (that is its entire point), so it must
    # participate in the cache key or a flipped knob could serve a
    # stale state within one process.
    fingerprint = spec.fingerprint() + (
        ":faulty" if _fault_buggy_devices() else ""
    )
    with _STATES_LOCK:
        return _STATES.get_or_compute(
            fingerprint, lambda: build_state(spec)
        )


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


def build_state(spec: CampaignSpec) -> WorkerState:
    """Materialise devices, tests, and environments for one process."""
    backend = make_backend(
        spec.backend,
        max_operational_instances=spec.max_operational_instances,
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
        backend=backend,
        devices=devices,
        tests=tests,
        environments=environments,
        units=spec.units(),
    )


def configure_worker(obs_payload: Optional[Dict[str, Any]]) -> None:
    """The pool initializer: record like the parent process.

    ``obs_payload`` is the parent recorder's configuration (or ``None``
    when observability is disabled); it makes every worker record with
    the same capacities/sampling as its parent.  Spec state is not
    pinned here: shards name their spec (:func:`state_for`).
    """
    obs.configure(obs_payload)


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """A soft deadline via SIGALRM, where the platform has it.

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
        raise UnitTimeout(f"units exceeded {seconds:.3f}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Rectangle:
    """One exact sub-grid of a shard: one (kind, environment), some
    devices, and the same tests on each of those devices.

    ``indices`` lists the unit indices devices-outermost, the order
    :meth:`~repro.backends.base.GridResult.to_runs` returns a
    one-environment grid's runs in.
    """

    kind: str
    env_key: int
    device_names: Tuple[str, ...]
    test_names: Tuple[str, ...]
    indices: Tuple[int, ...]


def rectangles(
    units: Sequence[WorkUnit], indices: Iterable[int]
) -> List[Rectangle]:
    """Split unit indices into rectangles that cover exactly them.

    Units group by (kind, env_key), and within a group the devices
    asking for the same tests share one rectangle, so no cell outside
    ``indices`` is ever computed.  A contiguous shard of canonical
    order gives at most three rectangles per (kind, env): the first
    device's tail, the whole devices, and the last device's head.
    Retry and resume sets with gaps group the same way.
    """
    groups: Dict[Tuple[str, int], Dict[str, List[int]]] = {}
    for index in sorted(set(indices)):
        unit = units[index]
        rows = groups.setdefault((unit.kind.name, unit.env_key), {})
        rows.setdefault(unit.device_name, []).append(index)
    result: List[Rectangle] = []
    for (kind, env_key), rows in groups.items():
        by_tests: Dict[Tuple[str, ...], List[List[int]]] = {}
        for row in rows.values():
            tests = tuple(units[index].test_name for index in row)
            by_tests.setdefault(tests, []).append(row)
        for tests, device_rows in by_tests.items():
            result.append(
                Rectangle(
                    kind=kind,
                    env_key=env_key,
                    device_names=tuple(
                        units[row[0]].device_name for row in device_rows
                    ),
                    test_names=tests,
                    indices=tuple(
                        index for row in device_rows for index in row
                    ),
                )
            )
    return result


def _failure(
    index: int, worker_id: str, elapsed: float, error: Exception
) -> UnitOutcome:
    timed_out = isinstance(error, UnitTimeout)
    return UnitOutcome(
        index=index,
        worker_id=worker_id,
        elapsed=elapsed,
        error=str(error) if timed_out else f"{type(error).__name__}: {error}",
        timed_out=timed_out,
    )


def _run_rectangle(
    state: WorkerState,
    rectangle: Rectangle,
    timeout: Optional[float],
    metrics: MetricsRegistry,
    worker_id: str,
) -> List[UnitOutcome]:
    """Run one rectangle as one ``run_grid`` call (never raises).

    The deadline is ``timeout`` per cell, and the elapsed time is
    shared evenly between the cells, so unit telemetry and the health
    monitor see the amortized cost of a unit.  An error or a timeout
    fails every unit of this rectangle and no other; the book decides
    the retries.  ``metrics`` is the shard's private registry, so
    concurrent shards (thread-pool mode) never mix their deltas.
    """
    rec = obs.recorder()
    cells = len(rectangle.indices)
    started = time.perf_counter()
    before = oracle_cache_stats()
    try:
        with _deadline(None if timeout is None else timeout * cells):
            with rec.span(
                "campaign.rectangle",
                kind=rectangle.kind,
                env_key=rectangle.env_key,
                devices=len(rectangle.device_names),
                tests=len(rectangle.test_names),
            ):
                runs = state.backend.run_grid(
                    [state.devices[name] for name in rectangle.device_names],
                    [state.tests[name] for name in rectangle.test_names],
                    [state.environments[(rectangle.kind, rectangle.env_key)]],
                    seed=state.spec.seed,
                    iterations_override=state.spec.iterations_override,
                ).to_runs()
    except Exception as error:  # transient or real: the book decides
        elapsed = (time.perf_counter() - started) / cells
        return [
            _failure(index, worker_id, elapsed, error)
            for index in rectangle.indices
        ]
    after = oracle_cache_stats()
    sleep_factor = _fault_sleep_factor()
    if sleep_factor > 0:
        # Inside the timed window on purpose: the injected slowdown
        # must be visible to every latency metric.
        time.sleep(sleep_factor * (time.perf_counter() - started))
    elapsed = (time.perf_counter() - started) / cells
    # The rectangle's oracle lookups are charged to its first unit, so
    # the campaign totals stay exact.
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    outcomes: List[UnitOutcome] = []
    for index, run in zip(rectangle.indices, runs):
        record_unit(
            metrics,
            worker_id,
            elapsed=elapsed,
            sim_seconds=run.seconds,
            oracle_hits=hits,
            oracle_misses=misses,
        )
        hits = misses = 0
        if rec.enabled:
            rec.observe(
                "repro_backend_unit_seconds",
                elapsed,
                {"backend": state.spec.backend},
            )
        outcomes.append(
            UnitOutcome(
                index=index, worker_id=worker_id, elapsed=elapsed, run=run
            )
        )
    return outcomes


def run_shard(
    spec_payload: Dict[str, Any],
    indices: Sequence[int],
    timeout: Optional[float] = None,
    fault_payload: Optional[Dict[str, Any]] = None,
) -> ShardResult:
    """Run one shard in this process with a private metrics registry.

    The shard runs as exact :func:`rectangles`, one ``run_grid`` call
    each; a unit the fault plan fails is settled before any grid runs
    and never reaches one.  Outcomes come back in ``indices`` order.
    Serial campaigns call this directly; telemetry outside the
    campaign registry (spans, backend and cache metrics) then lands in
    this process's own recorder.
    """
    state = state_for(spec_payload)
    fault_plan = FaultPlan.from_payload(fault_payload)
    worker_id = f"pid-{os.getpid()}"
    local = MetricsRegistry()
    outcomes: Dict[int, UnitOutcome] = {}
    runnable: List[int] = []
    for index in indices:
        if fault_plan is not None and fault_plan.should_fail(index):
            outcomes[index] = _failure(
                index,
                worker_id,
                0.0,
                TransientWorkerError(
                    f"injected transient failure for unit {index}"
                ),
            )
        else:
            runnable.append(index)
    for rectangle in rectangles(state.units, runnable):
        for outcome in _run_rectangle(
            state, rectangle, timeout, local, worker_id
        ):
            outcomes[outcome.index] = outcome
    obs.publish_cache_metrics()
    return ShardResult(
        outcomes=[outcomes[index] for index in indices],
        worker_id=worker_id,
        metrics=local.drain(),
    )


def execute_shard(
    spec_payload: Dict[str, Any],
    indices: Sequence[int],
    timeout: Optional[float] = None,
    fault_payload: Optional[Dict[str, Any]] = None,
) -> ShardResult:
    """The pool task entry point: :func:`run_shard` plus this worker's
    drained recorder, for the driver to absorb."""
    result = run_shard(spec_payload, indices, timeout, fault_payload)
    result.obs = obs.recorder().drain()
    return result
