"""The analytic backend: closed-form probabilities, binomial kills.

The default strategy and the numerical ground truth: one unit = one
workload translation, one per-instance probability
(:func:`repro.gpu.batch.unit_probability`), and one binomial draw per
iteration from the unit's :func:`~repro.env.runner.unit_rng` stream.

``run`` — the per-cell path Table 4 uses — is the plain scalar path,
with no memo lookups.  ``run_matrix`` — the path campaign workers
take, one call per shard rectangle — is one pass per grid: workload,
tuning and seconds are computed once per (environment, device), tests
are characterized once, and probabilities, jitter factors and whole
completed units are memoized under the canonical
:func:`~repro.env.runner.result_key`, so re-evaluating a grid costs
dictionary lookups.  Sampling is never batched, so both paths give
bit-identical records; ``python -m repro.backends`` asserts it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend, timed_grid
from repro.backends.registry import register
from repro.env.environment import TestingEnvironment
from repro.env.runner import (
    TestRun,
    result_key,
    structural_test_key,
    unit_rng,
)
from repro.gpu.batch import response_jitter, unit_probability
from repro.gpu.characteristics import TestCharacteristics, characterize
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest
from repro.memo import Memo

#: Per-instance probabilities keyed by (test structure, device
#: configuration, environment); shared across grids and instances.
_PROBABILITY_MEMO = Memo("probability", maxsize=262_144)
#: Response-jitter factors; SITE and PTE tuning candidates share env
#: keys, so this memo also pays off *across* environment kinds.
_JITTER_MEMO = Memo("jitter", maxsize=262_144)
#: Whole completed units, keyed additionally by (seed, iterations).
_RUN_MEMO = Memo("run", maxsize=262_144)


@register
class AnalyticBackend(Backend):
    """Evaluation of the closed-form batch model, per cell or per grid."""

    name = "analytic"
    option_names = frozenset()
    version = 1
    #: The reference itself: trivially bit-identical to itself.
    equivalence = "bitwise"

    def run(
        self,
        device: Device,
        test: LitmusTest,
        environment: TestingEnvironment,
        iterations: int,
        rng: np.random.Generator,
    ) -> TestRun:
        workload = environment.workload(device.profile, test)
        kills = device.sample_iteration_kills(
            test, workload, iterations, rng, env_key=environment.env_key
        )
        seconds = iterations * environment.iteration_seconds(device, test)
        return TestRun(
            test_name=test.name,
            device_name=device.name,
            environment=environment,
            iterations=iterations,
            instances_per_iteration=workload.instances_in_flight,
            kills=int(kills.sum()),
            seconds=seconds,
        )

    def run_matrix(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> List[TestRun]:
        """The grid pass: the serial loop's records in its unit order,
        with redundant computation lifted out of the inner loop."""
        return timed_grid(
            self.name,
            "backend.run_matrix",
            lambda: _run_grid(
                devices, tests, environments, seed, iterations_override
            ),
            environments=len(environments),
        )


def _run_grid(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    seed: int,
    iterations_override: Optional[int],
) -> List[TestRun]:
    if not tests:
        return []
    infos = [
        (test, structural_test_key(test), characterize(test))
        for test in tests
    ]
    runs: List[TestRun] = []
    for environment in environments:
        iterations = environment.iterations(iterations_override)
        for device in devices:
            runs.extend(
                _device_row(environment, device, iterations, infos, seed)
            )
    return runs


def _device_row(
    environment: TestingEnvironment,
    device: Device,
    iterations: int,
    infos: Sequence[Tuple[LitmusTest, str, TestCharacteristics]],
    seed: int,
) -> Iterator[TestRun]:
    """One (environment, device) row of the grid, in test order."""
    # workload and iteration_seconds are test-independent:
    # instances_per_iteration ignores its test argument.
    first_test = infos[0][0]
    workload = environment.workload(device.profile, first_test)
    tuning = device.tuning(workload)
    instances = workload.instances_in_flight
    seconds = iterations * environment.iteration_seconds(device, first_test)
    env_key = environment.env_key
    short_name = device.profile.short_name

    def unit(
        test: LitmusTest,
        structural_key: str,
        characteristics: TestCharacteristics,
    ) -> TestRun:
        def jitter(sigma: float) -> float:
            return _JITTER_MEMO.get_or_compute(
                (env_key, test.name, short_name, sigma),
                lambda: response_jitter(
                    env_key, test.name, short_name, sigma
                ),
            )

        probability = _PROBABILITY_MEMO.get_or_compute(
            result_key(
                test, device, environment, structural_key=structural_key
            ),
            lambda: unit_probability(
                device.profile,
                device.bugs,
                tuning,
                characteristics,
                max(1, instances),
                jitter,
            ),
        )
        kills = 0
        # The scalar path's no-draw shortcut: a zero-probability unit
        # consumes nothing from its stream.
        if probability != 0.0 and instances and iterations:
            rng = unit_rng(seed, env_key, device.name, test.name)
            kills = int(
                rng.binomial(instances, probability, size=iterations).sum()
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

    for test, structural_key, characteristics in infos:
        yield _RUN_MEMO.get_or_compute(
            result_key(
                test,
                device,
                environment,
                seed=seed,
                iterations=iterations,
                structural_key=structural_key,
            ),
            lambda: unit(test, structural_key, characteristics),
        )
