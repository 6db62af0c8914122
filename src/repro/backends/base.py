"""The execution-backend protocol.

A :class:`Backend` is one strategy for turning an (environment ×
device × test) grid into a :class:`GridResult`.  Three strategies ship
with the package (see :mod:`repro.backends`): the closed-form grid
program (:mod:`repro.backends.program`) with two samplers —
``analytic``'s per-unit numpy streams and ``tensor``'s batched
SplitMix draws — and the instance-level operational simulator.

The protocol is one method: ``run_grid(devices, tests, environments,
seed, iterations_override) -> GridResult``.  A single unit is a 1×1×1
grid, a campaign shard is a handful of rectangles (one ``run_grid``
call each), and :class:`~repro.env.runner.TestRun` records are
``run_grid(...).to_runs()`` — the concrete :meth:`Backend.run_matrix`,
which no backend overrides.  The determinism contract says a unit's
result depends solely on (seed, unit key), never on the grid it was
computed in or how that grid was traversed, so any rectangle cut from
a grid reproduces the grid's cells;
:func:`repro.backends.validate.validate_subgrid_determinism` checks it
for every registered backend.  :func:`serial_runs` is the canonical
per-cell loop (one :func:`~repro.env.runner.unit_rng` stream per
unit) for backends whose cells are scalar computations.

How closely a backend's numbers track the analytic ground truth is an
explicit, machine-checked property of the class: every backend
declares an ``equivalence`` contract (one of
:data:`EQUIVALENCE_CONTRACTS`), and :mod:`repro.backends.validate`
applies the matching check — bit identity, seeded statistical
agreement, or directional agreement — in CI.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun, unit_rng
from repro.errors import EnvironmentError_
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest

#: The recognised backend equivalence contracts:
#:
#: * ``"bitwise"`` — every :class:`TestRun` is bit-identical to the
#:   analytic reference for the same (seed, unit key).  Holds for
#:   ``analytic`` itself, whose grid program draws each unit from the
#:   same stream as the scalar reference loop.
#: * ``"statistical"`` — kill counts come from the same distributions
#:   as the reference (identical probabilities, seconds, and unit
#:   grid) but from different draws; fixed seeds still reproduce
#:   exactly.  Holds for ``tensor``, whose array-order sampling cannot
#:   replay the reference's per-unit streams.
#: * ``"directional"`` — a different abstraction of the same device:
#:   only ranking/zero-stays-zero agreement is promised.  Holds for
#:   ``operational``.
EQUIVALENCE_CONTRACTS = ("bitwise", "statistical", "directional")

#: Shared metric families every backend's grid pass reports under,
#: labelled ``backend=<name>`` so artifacts compare strategies.
GRID_SECONDS_METRIC = "repro_backend_grid_seconds"
GRID_UNITS_METRIC = "repro_backend_units_total"


def materialize_grid_metrics(registry) -> None:
    """Pre-declare both grid metric families for every registered
    backend, so exported artifacts show an explicit zero for backends
    that never ran (the same convention as the store/cache families).
    """
    # Lazy import: the registry module imports this one.
    from repro.backends.registry import registered_backends

    for name in registered_backends():
        labels = {"backend": name}
        registry.counter(GRID_UNITS_METRIC, labels).inc(0)
        registry.histogram(GRID_SECONDS_METRIC, labels)


def record_grid(backend: str, elapsed: float, units: int) -> None:
    """Publish one grid pass's timing; no-op when obs is disabled."""
    rec = obs.recorder()
    if not rec.enabled:
        return
    registry = getattr(rec, "registry", None)
    if registry is not None:
        materialize_grid_metrics(registry)
    rec.observe(GRID_SECONDS_METRIC, elapsed, {"backend": backend})
    rec.counter_inc(GRID_UNITS_METRIC, units, {"backend": backend})
    obs.publish_cache_metrics()


def timed_grid(
    backend: str,
    compute: Callable[[], "GridResult"],
    **attributes: Any,
) -> "GridResult":
    """Run one grid pass inside a ``backend.run_grid`` span and
    publish its timing."""
    started = time.perf_counter()
    with obs.recorder().span(
        "backend.run_grid", backend=backend, **attributes
    ):
        result = compute()
    record_grid(backend, time.perf_counter() - started, result.unit_count)
    return result


def serial_runs(
    cell: Callable[..., TestRun],
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    seed: int = 0,
    iterations_override: Optional[int] = None,
) -> List[TestRun]:
    """The canonical serial loop over a scalar ``cell(device, test,
    environment, iterations, rng)``.

    Environments outermost, then devices, then tests; each unit gets
    its own :func:`~repro.env.runner.unit_rng` stream, so any subset of
    the grid reproduces the full grid's values.
    """
    runs: List[TestRun] = []
    for environment in environments:
        iterations = environment.iterations(iterations_override)
        for device in devices:
            for test in tests:
                stream = unit_rng(
                    seed, environment.env_key, device.name, test.name
                )
                runs.append(
                    cell(device, test, environment, iterations, stream)
                )
    return runs


@dataclass(frozen=True)
class GridResult:
    """A whole grid's results in structure-of-arrays form.

    The per-:class:`TestRun` representation costs ~1µs of dataclass
    construction per unit — more than an array backend spends
    *computing* a unit — so the grid-result path keeps results as
    tensors indexed ``[environment, device, test]`` in the canonical
    serial-loop order and materializes records only on demand
    (:meth:`to_runs`).  Aggregations that only need counts and rates
    can stay in array land.
    """

    environments: Tuple[TestingEnvironment, ...]
    device_names: Tuple[str, ...]
    test_names: Tuple[str, ...]
    #: Iterations per environment, shape ``(E,)``.
    iterations: np.ndarray
    #: Instances per iteration, shape ``(E, D, T)`` (the operational
    #: backend caps instances per unit, so this is not per-environment).
    instances: np.ndarray
    #: Kill counts, shape ``(E, D, T)``.
    kills: np.ndarray
    #: Simulated wall time, shape ``(E, D, T)``.
    seconds: np.ndarray

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (
            len(self.environments),
            len(self.device_names),
            len(self.test_names),
        )

    @property
    def unit_count(self) -> int:
        return int(self.kills.size)

    def rates(self) -> np.ndarray:
        """Kills per second, zero where no time was simulated."""
        return np.divide(
            self.kills,
            self.seconds,
            out=np.zeros(self.kills.shape, dtype=np.float64),
            where=self.seconds > 0.0,
        )

    def to_runs(self) -> List[TestRun]:
        """Materialize :class:`TestRun` records in canonical order."""
        runs: List[TestRun] = []
        iterations = self.iterations.tolist()
        instances = self.instances.tolist()
        kills = self.kills.tolist()
        seconds = self.seconds.tolist()
        for e, environment in enumerate(self.environments):
            for d, device_name in enumerate(self.device_names):
                for t, test_name in enumerate(self.test_names):
                    runs.append(
                        TestRun(
                            test_name=test_name,
                            device_name=device_name,
                            environment=environment,
                            iterations=iterations[e],
                            instances_per_iteration=instances[e][d][t],
                            kills=kills[e][d][t],
                            seconds=seconds[e][d][t],
                        )
                    )
        return runs

    @classmethod
    def from_runs(
        cls,
        environments: Sequence[TestingEnvironment],
        device_names: Sequence[str],
        test_names: Sequence[str],
        runs: Sequence[TestRun],
    ) -> "GridResult":
        """Pack canonical-order :class:`TestRun` records into tensors."""
        shape = (len(environments), len(device_names), len(test_names))
        expected = shape[0] * shape[1] * shape[2]
        if len(runs) != expected:
            raise EnvironmentError_(
                f"grid of shape {shape} needs {expected} runs, "
                f"got {len(runs)}"
            )
        per_environment = shape[1] * shape[2]
        if per_environment:
            iterations = np.array(
                [
                    runs[e * per_environment].iterations
                    for e in range(shape[0])
                ],
                dtype=np.int64,
            )
        else:
            iterations = np.zeros(shape[0], dtype=np.int64)
        return cls(
            environments=tuple(environments),
            device_names=tuple(device_names),
            test_names=tuple(test_names),
            iterations=iterations,
            instances=np.array(
                [run.instances_per_iteration for run in runs],
                dtype=np.int64,
            ).reshape(shape),
            kills=np.array(
                [run.kills for run in runs], dtype=np.int64
            ).reshape(shape),
            seconds=np.array(
                [run.seconds for run in runs], dtype=np.float64
            ).reshape(shape),
        )


class Backend(abc.ABC):
    """One execution strategy behind the runner.

    Subclasses declare:

    * ``name`` — the registry key (``"analytic"``, ``"operational"``,
      ...), serialized through campaign journals so resume picks the
      identical backend;
    * ``option_names`` — the constructor options the backend accepts.
      :func:`repro.backends.make_backend` validates requested options
      against this set, so an option a backend would silently ignore
      is an error instead;
    * ``version`` — the backend's *numeric-behaviour* version.  It is
      part of every persistent result address
      (:func:`repro.env.runner.result_digest`), so bump it whenever a
      change alters the values a backend produces for the same (seed,
      unit) — stored results from the old behaviour then miss instead
      of being replayed as if nothing changed;
    * ``equivalence`` — how this backend's numbers relate to the
      analytic reference (one of :data:`EQUIVALENCE_CONTRACTS`).  The
      registry rejects classes declaring an unknown contract, the
      validation harness picks its check from it, and campaign
      journals record it so resume refuses to mix contracts.
    """

    name: str = ""
    option_names: "frozenset[str]" = frozenset()
    version: int = 1
    equivalence: str = "bitwise"

    @abc.abstractmethod
    def run_grid(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> GridResult:
        """Execute every (environment, device, test) combination.

        The one execution seam: tensors indexed ``[environment,
        device, test]`` in canonical order.  Each unit's values depend
        only on (seed, unit key), so any rectangle of the grid
        reproduces the full grid's cells.
        """

    def run_matrix(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> List[TestRun]:
        """The grid as :class:`TestRun` records in canonical order."""
        return self.run_grid(
            devices,
            tests,
            environments,
            seed=seed,
            iterations_override=iterations_override,
        ).to_runs()

    def describe(self) -> str:
        return f"{self.name} backend"


def check_positive_instances(max_operational_instances: int) -> int:
    """Shared validation for the operational instance cap."""
    if max_operational_instances < 1:
        raise EnvironmentError_("max_operational_instances must be >= 1")
    return max_operational_instances
