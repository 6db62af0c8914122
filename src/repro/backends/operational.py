"""The operational backend: every instance actually simulated.

Wraps the operational interpreter
(:func:`repro.gpu.executor.run_instance`, over the one interleaving
loop the PTE kernel and the scoped executor also run on) behind the
backend protocol: each instance is compiled, relaxed, interleaved, and
checked against the oracle.  Bounded by ``max_operational_instances``
per iteration — the one option this backend accepts, and the one the
analytic backends reject (it used to be silently ignored there).
Instances are simulated one at a time, so ``run_grid`` is the
canonical per-cell loop (:func:`~repro.backends.base.serial_runs`):
one :func:`~repro.env.runner.unit_rng` stream per cell.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.base import (
    Backend,
    GridResult,
    check_positive_instances,
    serial_runs,
    timed_grid,
)
from repro.backends.registry import register
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun
from repro.gpu.device import Device
from repro.litmus.oracle import oracle_for
from repro.litmus.program import LitmusTest


@register
class OperationalBackend(Backend):
    """Instance-level simulation, intended for SITE-scale validation."""

    name = "operational"
    option_names = frozenset({"max_operational_instances"})
    version = 1
    #: A different abstraction of the device: only ranking agreement
    #: with the analytic model is promised, never matching counts.
    equivalence = "directional"

    def __init__(self, max_operational_instances: int = 64) -> None:
        self.max_operational_instances = check_positive_instances(
            max_operational_instances
        )

    def run_grid(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> GridResult:
        return timed_grid(
            self.name,
            lambda: GridResult.from_runs(
                environments,
                [device.name for device in devices],
                [test.name for test in tests],
                serial_runs(
                    self._run_cell, devices, tests, environments, seed,
                    iterations_override,
                ),
            ),
            environments=len(environments),
        )

    def _run_cell(
        self,
        device: Device,
        test: LitmusTest,
        environment: TestingEnvironment,
        iterations: int,
        rng: np.random.Generator,
    ) -> TestRun:
        oracle = oracle_for(test)
        count_target = oracle.target_allowed()
        workload = environment.workload(device.profile, test)
        instances = min(
            workload.instances_in_flight, self.max_operational_instances
        )
        kills = 0
        for _ in range(iterations):
            for _ in range(instances):
                outcome = device.run_instance(test, workload, rng)
                if count_target:
                    kills += oracle.matches_target(outcome)
                else:
                    kills += oracle.is_violation(outcome)
        seconds = iterations * device.iteration_seconds(
            instances, environment.stress_level()
        )
        return TestRun(
            test_name=test.name,
            device_name=device.name,
            environment=environment,
            iterations=iterations,
            instances_per_iteration=instances,
            kills=kills,
            seconds=seconds,
        )
