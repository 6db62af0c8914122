"""Tests for the tensor backend and the GridResult path.

The tensor backend promises the ``"statistical"`` contract: every
draw-independent quantity (probabilities, iteration counts, instance
counts, simulated seconds) bitwise equal to the analytic reference,
kill counts drawn from the same binomial distributions through
independent seeded streams.  The property tests below drive the
contract checker over random small grids; the unit tests pin the
grid/record round trips and the determinism guarantees.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import (
    AnalyticBackend,
    GridResult,
    TensorAnalyticBackend,
    reset_tensor_caches,
    tensor_cache_stats,
    validate_statistical_equivalence,
)
from repro.env import (
    EnvironmentKind,
    Runner,
    environments_for,
    pte_baseline,
    site_baseline,
)
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()
ROSTER = ("amd", "nvidia", "intel", "m1")


@pytest.fixture(autouse=True)
def fresh_caches():
    reset_tensor_caches()
    yield
    reset_tensor_caches()


def small_grid(kind=EnvironmentKind.PTE, environment_count=2, seed=3):
    return environments_for(kind, environment_count, seed)


class TestGridResult:
    def test_shapes_and_unit_count(self):
        devices = [make_device("amd"), make_device("m1")]
        tests = SUITE.mutants[:3]
        environments = small_grid()
        grid = TensorAnalyticBackend().run_grid(
            devices, tests, environments, seed=1
        )
        assert grid.shape == (2, 2, 3)
        assert grid.unit_count == 12
        assert grid.kills.shape == grid.instances.shape == (2, 2, 3)
        assert grid.iterations.shape == (2,)

    def test_to_runs_matches_run_matrix(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd")]
        tests = SUITE.mutants[:2]
        environments = small_grid()
        grid = backend.run_grid(devices, tests, environments, seed=4)
        assert grid.to_runs() == backend.run_matrix(
            devices, tests, environments, seed=4
        )

    def test_from_runs_round_trip(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = SUITE.mutants[:2]
        environments = small_grid()
        grid = backend.run_grid(devices, tests, environments, seed=2)
        rebuilt = GridResult.from_runs(
            environments,
            [device.name for device in devices],
            [test.name for test in tests],
            grid.to_runs(),
        )
        assert np.array_equal(rebuilt.kills, grid.kills)
        assert np.array_equal(rebuilt.instances, grid.instances)
        assert np.array_equal(rebuilt.seconds, grid.seconds)

    def test_rates_where_defined(self):
        grid = TensorAnalyticBackend().run_grid(
            [make_device("amd")], SUITE.mutants[:2], small_grid(), seed=0
        )
        rates = grid.rates()
        assert rates.shape == grid.shape
        assert (rates >= 0).all()

    def test_empty_grid(self):
        grid = TensorAnalyticBackend().run_grid(
            [make_device("amd")], [], small_grid(), seed=0
        )
        assert grid.unit_count == 0
        assert grid.to_runs() == []

    def test_default_backend_grid_path(self):
        # run_matrix is the grid's records, for the analytic sampler
        # as for any other.
        grid = AnalyticBackend().run_grid(
            [make_device("amd")], SUITE.mutants[:2], small_grid(), seed=7
        )
        reference = AnalyticBackend().run_matrix(
            [make_device("amd")], SUITE.mutants[:2], small_grid(), seed=7
        )
        assert grid.to_runs() == reference


class TestDeterminism:
    def test_seeded_rerun_is_bit_identical(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = SUITE.mutants[:4]
        environments = small_grid()
        first = backend.run_grid(devices, tests, environments, seed=11)
        reset_tensor_caches()
        second = backend.run_grid(devices, tests, environments, seed=11)
        assert np.array_equal(first.kills, second.kills)

    def test_different_seed_different_draws(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd")]
        tests = SUITE.mutants[:6]
        environments = small_grid()
        a = backend.run_grid(devices, tests, environments, seed=1)
        b = backend.run_grid(devices, tests, environments, seed=2)
        assert not np.array_equal(a.kills, b.kills)

    def test_single_run_matches_grid_cell(self):
        backend = TensorAnalyticBackend()
        device = make_device("nvidia")
        test = SUITE.mutants[0]
        environment = pte_baseline()
        grid = backend.run_grid([device], [test], [environment], seed=5)
        single = Runner(backend=backend).run(
            device, test, environment, seed=5
        )
        assert single.kills == int(grid.kills[0, 0, 0])

    def test_probabilities_bitwise_equal_to_analytic(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = SUITE.mutants[:3]
        environments = small_grid()
        probabilities = backend.probabilities(
            devices, tests, environments
        )
        for e, environment in enumerate(environments):
            for d, device in enumerate(devices):
                for t, test in enumerate(tests):
                    assert probabilities[e, d, t] == (
                        device.instance_probability(
                            test,
                            environment.workload(device.profile, test),
                            env_key=environment.env_key,
                        )
                    )

    def test_conformance_stays_dead(self):
        # Zero probability must mean zero kills, not merely unlikely.
        backend = TensorAnalyticBackend()
        device = make_device("nvidia")
        test = SUITE.find("rev_poloc_rr_w")
        grid = backend.run_grid(
            [device], [test], [site_baseline()], seed=3
        )
        assert int(grid.kills[0, 0, 0]) == 0

    def test_iterations_override(self):
        grid = TensorAnalyticBackend().run_grid(
            [make_device("amd")],
            SUITE.mutants[:2],
            [pte_baseline()],
            seed=0,
            iterations_override=7,
        )
        assert (grid.iterations == 7).all()


class TestCaches:
    def test_program_cached_across_seeds(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd")]
        tests = SUITE.mutants[:2]
        environments = small_grid()
        backend.run_grid(devices, tests, environments, seed=1)
        cold = tensor_cache_stats()
        backend.run_grid(devices, tests, environments, seed=2)
        warm = tensor_cache_stats()
        assert warm.grid_hits == cold.grid_hits + 1
        assert warm.grid_misses == cold.grid_misses
        assert warm.kills_misses == cold.kills_misses + 1

    def test_same_seed_hits_kills_cache(self):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd")]
        tests = SUITE.mutants[:2]
        environments = small_grid()
        backend.run_grid(devices, tests, environments, seed=1)
        backend.run_grid(devices, tests, environments, seed=1)
        assert tensor_cache_stats().kills_hits == 1

    def test_reset_clears_counters(self):
        TensorAnalyticBackend().run_grid(
            [make_device("amd")], SUITE.mutants[:1], small_grid(), seed=0
        )
        reset_tensor_caches()
        stats = tensor_cache_stats()
        assert stats.grid_hits == stats.grid_misses == 0
        assert stats.grid_size == stats.kills_size == 0


class TestStatisticalContractProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        device_name=st.sampled_from(ROSTER),
        buggy=st.booleans(),
        kind=st.sampled_from(list(EnvironmentKind)),
        test_offset=st.integers(min_value=0, max_value=28),
        environment_count=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_contract_holds_on_random_grids(
        self, device_name, buggy, kind, test_offset, environment_count,
        seed,
    ):
        reset_tensor_caches()
        devices = [make_device(device_name, buggy=buggy)]
        tests = SUITE.mutants[test_offset:test_offset + 3]
        environments = environments_for(
            kind, environment_count, seed % 997
        )
        report = validate_statistical_equivalence(
            devices, tests, environments, seed=seed
        )
        assert report.ok, report.describe()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_seeded_rerun_exactness(self, seed):
        backend = TensorAnalyticBackend()
        devices = [make_device("amd")]
        tests = SUITE.mutants[:3]
        environments = small_grid(environment_count=1, seed=1)
        reset_tensor_caches()
        first = backend.run_grid(devices, tests, environments, seed=seed)
        reset_tensor_caches()
        second = backend.run_grid(
            devices, tests, environments, seed=seed
        )
        assert np.array_equal(first.kills, second.kills)

    @settings(max_examples=8, deadline=None)
    @given(
        e=st.integers(min_value=0, max_value=1),
        t=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_unit_run_matches_grid_cell(self, e, t, seed):
        backend = TensorAnalyticBackend()
        device = make_device("m1")
        tests = SUITE.mutants[:3]
        environments = small_grid(environment_count=2, seed=9)
        grid = backend.run_grid(
            [device], tests, environments, seed=seed
        )
        single = Runner(backend=backend).run(
            device, tests[t], environments[e], seed=seed
        )
        assert single.kills == int(grid.kills[e, 0, t])
