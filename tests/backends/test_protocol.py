"""The one-method backend protocol and the sub-grid determinism check.

A backend implements ``run_grid`` and nothing else: records are
``run_grid(...).to_runs()`` and a single unit is a 1×1×1 grid.  What
makes that sound is that a unit's value never depends on the grid it
was computed in, which ``validate_subgrid_determinism`` checks — and
must be seen to fail on a backend that breaks it.
"""

import numpy as np
import pytest

from repro.backends import (
    Backend,
    GridResult,
    make_backend,
    registered_backends,
    resolve,
    validate_subgrid_determinism,
)
from repro.env import EnvironmentKind, Runner, environments_for
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()
#: Keeps the instance-level simulator test-sized.
OPTIONS = {"operational": {"max_operational_instances": 2}}


def backend_for(name):
    return make_backend(name, **OPTIONS.get(name, {}))


def small_grid(name):
    devices = [make_device("amd"), make_device("intel", buggy=True)]
    tests = SUITE.mutants[:3]
    environments = environments_for(EnvironmentKind.PTE, 2, 5)
    iterations = 4 if name == "operational" else None
    return devices, tests, environments, iterations


class SharedStreamBackend(Backend):
    """Order-dependent on purpose: every kill count is the next draw
    of one stream walked across the grid, so a unit's value depends on
    where it sits in the grid it was handed."""

    name = "shared-stream"

    def run_grid(
        self, devices, tests, environments, seed=0, iterations_override=None
    ):
        shape = (len(environments), len(devices), len(tests))
        return GridResult(
            environments=tuple(environments),
            device_names=tuple(device.name for device in devices),
            test_names=tuple(test.name for test in tests),
            iterations=np.array(
                [env.iterations(iterations_override) for env in environments],
                dtype=np.int64,
            ),
            instances=np.ones(shape, dtype=np.int64),
            kills=np.random.default_rng(seed).integers(0, 10**6, shape),
            seconds=np.ones(shape),
        )


class TestOneSeam:
    def test_run_grid_is_the_only_abstract_method(self):
        assert Backend.__abstractmethods__ == {"run_grid"}

    @pytest.mark.parametrize("name", registered_backends())
    def test_backends_implement_only_run_grid(self, name):
        backend_class = resolve(name)
        assert not hasattr(backend_class, "run")
        assert backend_class.run_matrix is Backend.run_matrix
        # Implemented by the class or its program base, never left
        # to the abstract protocol method.
        assert backend_class.run_grid is not Backend.run_grid

    @pytest.mark.parametrize("name", registered_backends())
    def test_runner_run_is_a_grid_cell(self, name):
        devices, tests, environments, iterations = small_grid(name)
        runner = Runner(backend=backend_for(name),
                        iterations_override=iterations)
        grid = runner.run_matrix(devices, tests, environments, seed=3)
        single = runner.run(devices[1], tests[2], environments[1], seed=3)
        # Canonical order: index = (e * D + d) * T + t.
        assert single == grid[(1 * 2 + 1) * 3 + 2]


class TestSubgridDeterminism:
    @pytest.mark.parametrize("name", registered_backends())
    def test_registered_backends_pass(self, name):
        devices, tests, environments, iterations = small_grid(name)
        report = validate_subgrid_determinism(
            backend_for(name), devices, tests, environments, seed=7,
            iterations_override=iterations,
        )
        assert report.ok, report.describe()
        assert report.units == 2 * 2 * 3

    def test_order_dependent_backend_fails(self):
        devices, tests, environments, _ = small_grid("shared-stream")
        report = validate_subgrid_determinism(
            SharedStreamBackend(), devices, tests, environments, seed=7
        )
        assert not report.ok
        assert len(report.mismatches) == 2
        assert "1x1x1 cell" in report.mismatches[0]
        assert "one-environment rectangle" in report.mismatches[1]
        assert all("kills" in entry for entry in report.mismatches)

    def test_misshapen_grid_is_reported_not_raised(self):
        class DropsLastTest(SharedStreamBackend):
            def run_grid(self, devices, tests, environments, **kwargs):
                return super().run_grid(
                    devices, tests[:-1], environments, **kwargs
                )

        devices, tests, environments, _ = small_grid("drops-last-test")
        report = validate_subgrid_determinism(
            DropsLastTest(), devices, tests, environments, seed=7
        )
        assert not report.ok
