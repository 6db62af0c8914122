"""Testing environments: stress parameters, SITE/PTE, running, tuning.

Implements Sec. 4.1 of the paper (the Parallel Testing Environment and
its co-prime permutation assignment) together with the 17-parameter
stress space of prior work, the four preset environment families of
Sec. 5.1, and the tuning harness that searches them.
"""

from repro.env.environment import (
    DEFAULT_ITERATIONS,
    EnvironmentKind,
    TestingEnvironment,
    pte_baseline,
    random_environment,
    random_environments,
    site_baseline,
)
from repro.env.parameters import (
    EnvironmentParameters,
    STRESS_PATTERNS,
    pte_baseline_parameters,
    random_parameters,
    site_baseline_parameters,
)
from repro.env.permutation import (
    InstanceAssignment,
    ParallelPermutation,
    assign_instances,
    coprime_to,
    is_coprime,
    naive_neighbor_assignment,
    stripe_workgroup,
    verify_assignment_covers,
)
from repro.env.parallel_kernel import (
    ParallelIteration,
    run_parallel_iteration,
)
from repro.env.runner import (
    RESULT_KEY_SCHEMA,
    Runner,
    TestRun,
    result_digest,
    result_key,
    stable_name_hash,
    structural_test_key,
    unit_rng,
    unit_seed_sequence,
)
from repro.litmus.oracle import (
    oracle_cache_stats,
    oracle_for,
    reset_oracle_cache,
)
from repro.env.search import (
    EvolutionarySearch,
    RandomSearch,
    SearchResult,
    mean_rate_objective,
    min_rate_objective,
)
from repro.env.tuning import (
    TuningResult,
    environments_for,
    tuning_run,
)

__all__ = [
    "DEFAULT_ITERATIONS",
    "EnvironmentKind",
    "EnvironmentParameters",
    "EvolutionarySearch",
    "InstanceAssignment",
    "ParallelIteration",
    "RESULT_KEY_SCHEMA",
    "ParallelPermutation",
    "RandomSearch",
    "Runner",
    "STRESS_PATTERNS",
    "SearchResult",
    "TestRun",
    "TestingEnvironment",
    "TuningResult",
    "assign_instances",
    "coprime_to",
    "environments_for",
    "is_coprime",
    "mean_rate_objective",
    "min_rate_objective",
    "naive_neighbor_assignment",
    "oracle_cache_stats",
    "oracle_for",
    "pte_baseline",
    "pte_baseline_parameters",
    "random_environment",
    "random_environments",
    "random_parameters",
    "reset_oracle_cache",
    "result_digest",
    "result_key",
    "run_parallel_iteration",
    "site_baseline",
    "site_baseline_parameters",
    "stable_name_hash",
    "stripe_workgroup",
    "structural_test_key",
    "tuning_run",
    "unit_rng",
    "unit_seed_sequence",
    "verify_assignment_covers",
]
