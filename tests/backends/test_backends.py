"""Behavioural tests for the analytic and operational backends.

The load-bearing property is bit identity: the analytic backend
(``AnalyticBackend().run_matrix``) must reproduce the serial reference
loop over the scalar cell (``run_serial``) *exactly* for the same seed,
buggy devices and all environment kinds included.
"""

import numpy as np
import pytest

from repro.backends import (
    AnalyticBackend,
    OperationalBackend,
    TensorAnalyticBackend,
    reset_tensor_caches,
    tensor_cache_stats,
)
from repro.backends.analytic import run_cell, run_serial
from repro.env import (
    EnvironmentKind,
    Runner,
    environments_for,
    pte_baseline,
    site_baseline,
    unit_rng,
)
from repro.gpu import make_device, study_devices
from repro.memo import registered_memos
from repro.mutation import default_suite

SUITE = default_suite()
GRID_MEMOS = ("tensor_grid", "tensor_kills", "tensor_jitter")


def memo_stats(name):
    return registered_memos()[name].stats()


def serial(*args, **kwargs):
    """The serial reference loop through the scalar ``run_cell``."""
    return run_serial(*args, **kwargs)


@pytest.fixture(autouse=True)
def fresh_caches():
    reset_tensor_caches()
    yield
    reset_tensor_caches()


def grid_for(kind, environment_count=2, seed=3):
    return environments_for(kind, environment_count, seed)


class TestBitIdentity:
    @pytest.mark.parametrize("kind", list(EnvironmentKind))
    def test_matrix_identical_to_analytic(self, kind):
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = SUITE.mutants[:6]
        environments = grid_for(kind)
        reference = serial(devices, tests, environments, seed=9)
        candidate = AnalyticBackend().run_matrix(
            devices, tests, environments, seed=9
        )
        assert candidate == reference
        # A warm pass (the grid from the kills cache) is identical too.
        assert AnalyticBackend().run_matrix(
            devices, tests, environments, seed=9
        ) == reference

    def test_single_run_identical_to_analytic(self):
        device = make_device("nvidia")
        test = SUITE.mutants[0]
        environment = pte_baseline()
        reference = run_cell(
            device, test, environment, 50,
            unit_rng(1, environment.env_key, device.name, test.name),
        )
        (candidate,) = AnalyticBackend().run_matrix(
            [device], [test], [environment], seed=1,
            iterations_override=50,
        )
        assert candidate == reference
        # The scalar cell makes no memo lookups.
        before = [memo_stats(name) for name in GRID_MEMOS]
        run_cell(
            device, test, environment, 50,
            unit_rng(1, environment.env_key, device.name, test.name),
        )
        assert [memo_stats(name) for name in GRID_MEMOS] == before

    def test_conformance_tests_stay_dead(self):
        # Zero-probability units must not consume RNG draws either
        # way, or every later unit in a shared stream would drift.
        device = make_device("nvidia")
        tests = [SUITE.find("rev_poloc_rr_w"), SUITE.mutants[0]]
        reference = serial([device], tests, [site_baseline()], seed=4)
        candidate = AnalyticBackend().run_matrix(
            [device], tests, [site_baseline()], seed=4
        )
        assert candidate == reference
        assert reference[0].kills == 0

    def test_iterations_override_respected(self):
        runs = AnalyticBackend().run_matrix(
            [make_device("amd")], SUITE.mutants[:2], [pte_baseline()],
            seed=0, iterations_override=7,
        )
        assert all(run.iterations == 7 for run in runs)

    def test_empty_test_list(self):
        assert AnalyticBackend().run_matrix(
            [make_device("amd")], [], [pte_baseline()], seed=0
        ) == []


class TestCaches:
    def test_repeat_matrix_hits_kills_cache(self):
        backend = AnalyticBackend()
        devices = study_devices()
        tests = SUITE.mutants[:4]
        environments = grid_for(EnvironmentKind.PTE)
        first = backend.run_matrix(devices, tests, environments, seed=2)
        cold = tensor_cache_stats()
        assert (cold.grid_misses, cold.kills_misses) == (1, 1)
        second = backend.run_matrix(devices, tests, environments, seed=2)
        warm = tensor_cache_stats()
        assert second == first
        assert warm.kills_hits == 1
        assert warm.kills_misses == cold.kills_misses

    def test_different_seed_misses_kills_cache(self):
        backend = AnalyticBackend()
        backend.run_matrix(
            [make_device("amd")], SUITE.mutants[:2], [pte_baseline()],
            seed=1,
        )
        backend.run_matrix(
            [make_device("amd")], SUITE.mutants[:2], [pte_baseline()],
            seed=2,
        )
        stats = tensor_cache_stats()
        assert stats.kills_hits == 0
        assert stats.kills_misses == 2
        # The program is seed-independent: compiled once.
        assert (stats.grid_hits, stats.grid_misses) == (1, 1)

    def test_program_cache_shared_across_instances(self):
        kwargs = dict(
            devices=[make_device("amd")],
            tests=SUITE.mutants[:3],
            environments=[pte_baseline()],
            seed=5,
        )
        AnalyticBackend().run_matrix(**kwargs)
        misses = tensor_cache_stats().grid_misses
        AnalyticBackend().run_matrix(**kwargs)
        assert tensor_cache_stats().grid_misses == misses

    def test_reset_clears_counters(self):
        AnalyticBackend().run_matrix(
            [make_device("amd")], SUITE.mutants[:1], [pte_baseline()],
            seed=0,
        )
        reset_tensor_caches()
        stats = tensor_cache_stats()
        assert stats.kills_hits == stats.kills_misses == 0
        assert stats.grid_size == stats.kills_size == 0

    def test_backends_share_one_program_not_kills(self):
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = SUITE.mutants[:6]
        environments = grid_for(EnvironmentKind.PTE)
        reset_tensor_caches()
        cold_tensor = TensorAnalyticBackend().run_grid(
            devices, tests, environments, seed=4
        )
        reset_tensor_caches()
        AnalyticBackend().run_grid(devices, tests, environments, seed=4)
        after_analytic = tensor_cache_stats()
        assert (after_analytic.grid_hits, after_analytic.grid_misses) == (
            0, 1,
        )
        tensor = TensorAnalyticBackend().run_grid(
            devices, tests, environments, seed=4
        )
        stats = tensor_cache_stats()
        # One compiled program serves both samplers ...
        assert (stats.grid_hits, stats.grid_misses) == (1, 1)
        # ... but each samples its own kills: no cross-sampler hit.
        assert (stats.kills_hits, stats.kills_misses) == (0, 2)
        assert np.array_equal(tensor.kills, cold_tensor.kills)


class TestOperationalBackend:
    def test_counts_kills_at_site_scale(self):
        backend = OperationalBackend(max_operational_instances=8)
        device = make_device("amd")
        test = SUITE.mutants[0]
        environment = pte_baseline()
        (run,) = backend.run_matrix(
            [device], [test], [environment], seed=3,
            iterations_override=30,
        )
        assert run.instances_per_iteration == 8
        assert run.kills > 0


class TestRunnerComposition:
    def test_runner_delegates_to_vectorized(self):
        devices = [make_device("amd")]
        tests = SUITE.mutants[:3]
        environments = grid_for(EnvironmentKind.SITE)
        # The retired name builds the analytic backend.
        runner = Runner(backend="vectorized")
        assert type(runner.backend) is AnalyticBackend
        via_runner = runner.run_matrix(
            devices, tests, environments, seed=6
        )
        direct = serial(devices, tests, environments, seed=6)
        assert via_runner == direct

    def test_runner_accepts_backend_instance(self):
        backend = OperationalBackend(max_operational_instances=2)
        runner = Runner(backend=backend, iterations_override=3)
        assert runner.backend is backend
        assert runner.backend.name == "operational"
        assert runner.max_operational_instances == 2

    def test_instance_plus_cap_conflict(self):
        from repro.errors import EnvironmentError_

        with pytest.raises(EnvironmentError_, match="injected backend"):
            Runner(
                backend=OperationalBackend(),
                max_operational_instances=4,
            )

    def test_default_backend_is_analytic(self):
        assert Runner().backend.name == "analytic"
        assert Runner().max_operational_instances is None
