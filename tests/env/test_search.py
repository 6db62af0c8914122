"""Tests for the tuning-search strategies."""

import pytest

from repro.env import EnvironmentKind, Runner, random_environments
from repro.env.search import (
    EvolutionarySearch,
    RandomSearch,
    SearchResult,
    mean_rate_objective,
    min_rate_objective,
)
from repro.errors import EnvironmentError_
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()


def quick_objective(device_name="amd", count=2):
    return mean_rate_objective(
        [make_device(device_name)],
        SUITE.mutants[:count],
        runner=Runner(iterations_override=20),
    )


class TestObjectives:
    def test_mean_rate_nonnegative(self):
        objective = quick_objective()
        search = RandomSearch(EnvironmentKind.PTE, seed=1)
        result = search.run(objective, budget=3)
        assert all(record.score >= 0 for record in result.history)

    def test_min_rate_bounded_by_mean(self):
        device = make_device("amd")
        tests = SUITE.mutants[:2]
        runner = Runner(iterations_override=20)
        mean_objective = mean_rate_objective([device], tests, runner)
        worst_objective = min_rate_objective([device], tests, runner)
        search = RandomSearch(EnvironmentKind.PTE, seed=2)
        env = search.run(mean_objective, budget=1).best.environment
        assert worst_objective(env) <= mean_objective(env) + 1e-9

    def test_objective_deterministic(self):
        objective = quick_objective()
        search = RandomSearch(EnvironmentKind.PTE, seed=3)
        env = search.run(objective, budget=1).best.environment
        assert objective(env) == objective(env)


class TestRandomSearch:
    def test_budget_respected(self):
        result = RandomSearch(EnvironmentKind.PTE, seed=1).run(
            quick_objective(), budget=5
        )
        assert result.evaluations == 5

    def test_best_is_maximum(self):
        result = RandomSearch(EnvironmentKind.PTE, seed=1).run(
            quick_objective(), budget=5
        )
        assert result.best.score == max(
            record.score for record in result.history
        )

    def test_curve_monotone(self):
        result = RandomSearch(EnvironmentKind.PTE, seed=1).run(
            quick_objective(), budget=6
        )
        curve = result.best_so_far()
        assert curve == sorted(curve)

    def test_reproducible(self):
        first = RandomSearch(EnvironmentKind.PTE, seed=9).run(
            quick_objective(), budget=4
        )
        second = RandomSearch(EnvironmentKind.PTE, seed=9).run(
            quick_objective(), budget=4
        )
        assert [r.score for r in first.history] == [
            r.score for r in second.history
        ]

    def test_validation(self):
        with pytest.raises(EnvironmentError_):
            RandomSearch(EnvironmentKind.PTE_BASELINE)
        with pytest.raises(EnvironmentError_):
            RandomSearch(EnvironmentKind.PTE).run(quick_objective(), 0)


class TestEvolutionarySearch:
    def test_budget_respected(self):
        result = EvolutionarySearch(
            EnvironmentKind.PTE, seed=1, population=4, survivors=2
        ).run(quick_objective(), budget=10)
        assert result.evaluations == 10

    def test_children_are_valid_environments(self):
        result = EvolutionarySearch(
            EnvironmentKind.PTE, seed=2, population=3, survivors=2
        ).run(quick_objective(), budget=12)
        for record in result.history:
            params = record.environment.parameters
            assert params.testing_workgroups <= params.max_workgroups
            assert 0 <= params.mem_stress_pct <= 100

    def test_site_children_keep_site_shape(self):
        result = EvolutionarySearch(
            EnvironmentKind.SITE, seed=3, population=3, survivors=1
        ).run(quick_objective(), budget=8)
        for record in result.history:
            assert record.environment.parameters.testing_workgroups == 2

    def test_env_keys_unique(self):
        result = EvolutionarySearch(
            EnvironmentKind.PTE, seed=4, population=3, survivors=2
        ).run(quick_objective(), budget=9)
        keys = [record.environment.env_key for record in result.history]
        assert len(keys) == len(set(keys))

    def test_population_validation(self):
        with pytest.raises(EnvironmentError_):
            EvolutionarySearch(
                EnvironmentKind.PTE, population=2, survivors=3
            )

    def test_not_worse_than_its_seed_population(self):
        """Evolution can only improve on its own random seeds."""
        search = EvolutionarySearch(
            EnvironmentKind.PTE, seed=5, population=4, survivors=2
        )
        objective = quick_objective()
        result = search.run(objective, budget=12)
        seed_best = max(
            record.score for record in result.history[:4]
        )
        assert result.best.score >= seed_best


class TestPinnedScores:
    """Objective scores pinned bitwise, per backend.

    2 devices × 3 mutants × 2 PTE environments, seed 3; the values
    were recorded when each objective still ran one ``Runner.run``
    per (device, test) cell, and one grid per environment must
    reproduce them exactly.
    """

    PINNED = {
        "analytic": {
            "mean": [28319.776810746233, 16935.637758883964],
            "min": [2790.661135124526, 1981.7152390632675],
        },
        "tensor": {
            "mean": [28335.695331450668, 16879.08001966615],
            "min": [2749.157671291819, 1986.332315672834],
        },
        "operational": {
            "mean": [527.5727344038881, 534.8731154768398],
            "min": [150.83000708235807, 114.51619957668396],
        },
    }

    @pytest.mark.parametrize("backend", sorted(PINNED))
    def test_scores_match_recorded_values(self, backend):
        devices = [make_device("amd"), make_device("intel", buggy=True)]
        tests = [SUITE.mutants[i] for i in (0, 5, 11)]
        environments = random_environments(EnvironmentKind.PTE, 2, seed=4)
        if backend == "operational":
            execution = dict(
                runner=Runner(
                    backend="operational",
                    max_operational_instances=4,
                    iterations_override=8,
                )
            )
        else:
            execution = dict(backend=backend)
        for label, make_objective in (
            ("mean", mean_rate_objective),
            ("min", min_rate_objective),
        ):
            objective = make_objective(devices, tests, seed=3, **execution)
            scores = [objective(env) for env in environments]
            assert scores == self.PINNED[backend][label]

    def test_runner_and_backend_are_exclusive(self):
        with pytest.raises(EnvironmentError_, match="not both"):
            mean_rate_objective(
                [make_device("amd")], SUITE.mutants[:1],
                runner=Runner(), backend="tensor",
            )
