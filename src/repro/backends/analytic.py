"""The analytic backend: closed-form probabilities, binomial kills.

The default strategy and the numerical ground truth: one unit = one
per-instance probability (:func:`repro.gpu.batch.unit_probability`)
and one binomial draw per iteration from the unit's
:func:`~repro.env.runner.unit_rng` stream.

:func:`run_cell` is that unit as a plain scalar function, and
:func:`run_serial` is the canonical loop over it — the reference
:meth:`AnalyticBackend.run_grid` is held against (``python -m
repro.backends``, ``benchmarks/bench_backend_speedup.py``).  Table 4
draws from :func:`run_cell` directly.  :class:`AnalyticBackend` — the
path campaign workers take, one call per shard rectangle — is the
shared grid program (:mod:`repro.backends.program`) with the numpy
per-unit streams as its sampler: the program's probabilities are
bitwise equal to the scalar model's, and each live unit draws exactly
what :func:`run_cell` draws, so both paths give bit-identical records.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.backends.base import serial_runs
from repro.backends.program import GridProgram, ProgramBackend
from repro.backends.registry import register
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun, unit_rng
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest


def run_cell(
    device: Device,
    test: LitmusTest,
    environment: TestingEnvironment,
    iterations: int,
    rng: np.random.Generator,
) -> TestRun:
    """One unit of the closed-form model, drawing from ``rng``."""
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


def run_serial(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    seed: int = 0,
    iterations_override: Optional[int] = None,
) -> List[TestRun]:
    """The serial reference: :func:`run_cell` once per unit."""
    return serial_runs(
        run_cell, devices, tests, environments, seed, iterations_override
    )


@register
class AnalyticBackend(ProgramBackend):
    """The grid program with the reference per-unit numpy streams."""

    name = "analytic"
    option_names = frozenset()
    version = 1
    #: The reference itself: the same draws as :func:`run_serial`.
    equivalence = "bitwise"

    def sample(self, program: GridProgram, seed: int) -> np.ndarray:
        """Per-iteration binomials from each unit's :func:`unit_rng`.

        A zero-probability unit consumes nothing from its stream (the
        scalar path's no-draw shortcut), so only live units draw.
        """
        kills = np.zeros(program.shape, dtype=np.int64)
        instances = program.instances.tolist()
        iterations = program.iterations.tolist()
        probabilities = program.probabilities.tolist()
        for e, d, t in zip(*np.nonzero(program.probabilities)):
            if instances[e] and iterations[e]:
                rng = unit_rng(
                    seed,
                    program.environments[e].env_key,
                    program.device_names[d],
                    program.test_names[t],
                )
                kills[e, d, t] = rng.binomial(
                    instances[e], probabilities[e][d][t], size=iterations[e]
                ).sum()
        return kills
