"""The Table 4 correlation study (Sec. 5.4).

For each historical bug, run the conformance test that reveals it and
the mutants of the matching mutator for 100 iterations in many random
parallel testing environments on the buggy device, then correlate the
bug observation counts with the mutant kill counts across environments.

The paper reports the best mutant's Pearson correlation per bug:
Intel/CoRR/reversing-po-loc .996, AMD/MP-relacq/weakening-sw .967,
NVIDIA/MP-CO/weakening-po-loc .893 — all "very strong" (> .8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import CorrelationResult, correlate
from repro.env.environment import EnvironmentKind, random_environments
from repro.env.runner import stable_name_hash
from repro.errors import AnalysisError
from repro.gpu.device import Device, make_device
from repro.mutation.suite import MutationSuite, default_suite


@dataclass(frozen=True)
class BugCase:
    """One row of Table 4 before measurement."""

    vendor: str
    device_name: str
    failed_test_alias: str
    mutant_type: str


#: The paper's three cases (Table 4).  The Kepler device stands in for
#: the NVIDIA row: the coherence bug was recreated on Kepler hardware.
TABLE4_CASES: Tuple[BugCase, ...] = (
    BugCase("Intel", "intel", "CoRR", "Reversing po-loc"),
    BugCase("AMD", "amd", "MP", "Weakening sw"),
    BugCase("NVIDIA", "kepler", "MP-CO", "Weakening po-loc"),
)


@dataclass(frozen=True)
class CorrelationRow:
    """One measured row of Table 4."""

    vendor: str
    failed_test: str
    mutant_type: str
    best_mutant: str
    correlation: CorrelationResult
    per_mutant: Dict[str, CorrelationResult]

    @property
    def pcc(self) -> float:
        return self.correlation.r


def _kill_vector(
    device: Device,
    test,
    environments,
    iterations: int,
    seed: int,
) -> List[int]:
    """Kills per environment, each from its own (seed, environment,
    test) stream through the analytic model's scalar cell."""
    # Lazy import: obs (which the backends import) loads this package.
    from repro.backends.analytic import run_cell

    kills = []
    for environment in environments:
        rng = np.random.default_rng(
            (seed, environment.env_key, stable_name_hash(test.name))
        )
        kills.append(
            run_cell(device, test, environment, iterations, rng).kills
        )
    return kills


def correlation_row(
    case: BugCase,
    suite: Optional[MutationSuite] = None,
    environment_count: int = 150,
    iterations: int = 100,
    seed: int = 0,
) -> CorrelationRow:
    """Measure one Table 4 row.

    Runs the conformance test (on the historically buggy device) and
    every mutant of its pair across random PTEs, then reports the
    mutant with the strongest correlation to the bug counts — the
    paper likewise reports the best variant ("Message Passing Barrier
    Variant 2").
    """
    if environment_count < 3:
        raise AnalysisError("need at least three environments")
    active_suite = suite if suite is not None else default_suite()
    pair = active_suite.find_by_alias(case.failed_test_alias)
    device = make_device(case.device_name, buggy=True)
    environments = random_environments(
        EnvironmentKind.PTE, environment_count, seed=seed
    )
    bug_kills = _kill_vector(
        device, pair.conformance, environments, iterations, seed
    )
    if not any(bug_kills):
        raise AnalysisError(
            f"the {case.vendor} bug was never observed; cannot correlate"
        )
    per_mutant: Dict[str, CorrelationResult] = {}
    for mutant in pair.mutants:
        mutant_kills = _kill_vector(
            device, mutant, environments, iterations, seed
        )
        if not any(mutant_kills):
            continue
        per_mutant[mutant.name] = correlate(
            [float(k) for k in bug_kills],
            [float(k) for k in mutant_kills],
        )
    if not per_mutant:
        raise AnalysisError(
            f"no mutant of {pair.conformance.name} was ever killed"
        )
    best_name = max(per_mutant, key=lambda name: per_mutant[name].r)
    return CorrelationRow(
        vendor=case.vendor,
        failed_test=case.failed_test_alias
        if case.failed_test_alias != "MP"
        else "MP-relacq",
        mutant_type=case.mutant_type,
        best_mutant=best_name,
        correlation=per_mutant[best_name],
        per_mutant=per_mutant,
    )


def table4(
    cases: Sequence[BugCase] = TABLE4_CASES,
    suite: Optional[MutationSuite] = None,
    environment_count: int = 150,
    iterations: int = 100,
    seed: int = 0,
) -> List[CorrelationRow]:
    """Measure all of Table 4."""
    return [
        correlation_row(
            case,
            suite=suite,
            environment_count=environment_count,
            iterations=iterations,
            seed=seed,
        )
        for case in cases
    ]
