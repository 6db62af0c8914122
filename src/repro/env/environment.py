"""Testing environments: SITE and PTE (Sec. 4.1, Sec. 5.1).

A :class:`TestingEnvironment` packages a point in the stress-parameter
space with an execution style:

* **SITE** (single-instance testing environment, prior work): one test
  instance per iteration, with optional memory-stressing workgroups.
* **PTE** (parallel testing environment, this paper): every testing
  thread participates, instances assigned by the co-prime permutation;
  thousands of instances per iteration amortise the dispatch overhead.

The environment translates its parameters into the device model's
:class:`~repro.gpu.profiles.Workload` — the single point where stress
knobs meet device tendencies — and owns the per-iteration economics
(instances per iteration, simulated seconds).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.env.parameters import (
    EnvironmentParameters,
    pte_baseline_parameters,
    random_parameters,
    site_baseline_parameters,
)
from repro.env.permutation import ParallelPermutation, coprime_to
from repro.errors import EnvironmentError_
from repro.gpu.device import Device
from repro.gpu.profiles import DeviceProfile, Workload
from repro.litmus.program import LitmusTest


class EnvironmentKind(enum.Enum):
    """The four environment families evaluated in Sec. 5.1."""

    SITE_BASELINE = "SITE Baseline"
    SITE = "SITE"
    PTE_BASELINE = "PTE Baseline"
    PTE = "PTE"

    @property
    def parallel(self) -> bool:
        return self in (EnvironmentKind.PTE, EnvironmentKind.PTE_BASELINE)

    @property
    def stressed(self) -> bool:
        return self in (EnvironmentKind.SITE, EnvironmentKind.PTE)


#: Iteration budgets used by the paper's tuning runs (Sec. 5.1).
DEFAULT_ITERATIONS = {
    EnvironmentKind.SITE_BASELINE: 300,
    EnvironmentKind.SITE: 300,
    EnvironmentKind.PTE_BASELINE: 100,
    EnvironmentKind.PTE: 100,
}


def _normalised_stress(pct: int, iterations: int, scale: int) -> float:
    """Stress intensity in [0, 1] from a percentage and loop count."""
    if pct == 0 or iterations == 0:
        return 0.0
    return (pct / 100.0) * min(1.0, (iterations / scale) ** 0.5)


@dataclass(frozen=True)
class TestingEnvironment:
    """One concrete testing environment (kind + parameters + key)."""

    kind: EnvironmentKind
    parameters: EnvironmentParameters
    #: Identifies the environment in jitter hashing and reports; tuning
    #: runs number their random environments 0..N-1.
    env_key: int = 0

    @property
    def name(self) -> str:
        return f"{self.kind.value}#{self.env_key}"

    # -- instance economics ------------------------------------------------

    def instances_per_iteration(self, test: LitmusTest) -> int:
        """How many test instances one iteration executes.

        PTE: every testing thread carries one instance (each thread
        runs one role of ``k`` different instances, Fig. 4).  SITE:
        exactly one instance regardless of device size.
        """
        if not self.kind.parallel:
            return 1
        return self.parameters.testing_threads

    def iterations(self, override: Optional[int] = None) -> int:
        """The iteration budget: ``override`` when given, else the
        kind's default — the one rule every execution path applies."""
        if override is not None:
            return override
        return DEFAULT_ITERATIONS[self.kind]

    # -- permutation plumbing ------------------------------------------------

    def instance_permutation(self, test: LitmusTest) -> ParallelPermutation:
        """The thread→instance permutation this environment uses."""
        size = self.instances_per_iteration(test)
        return ParallelPermutation(
            size, coprime_to(size, self.parameters.permute_first)
        )

    def location_permutation(self, test: LitmusTest) -> ParallelPermutation:
        size = self.instances_per_iteration(test)
        return ParallelPermutation(
            size, coprime_to(size, self.parameters.permute_second)
        )

    # -- the workload handed to the device model ------------------------------

    def workload(self, profile: DeviceProfile, test: LitmusTest) -> Workload:
        """Translate parameters into the device model's terms.

        The stress patterns and line sizes are scored against the
        profile's hidden optima (``pattern_affinity``) — this is what
        tuning runs implicitly search for.
        """
        params = self.parameters
        mem_stress = _normalised_stress(
            params.mem_stress_pct, params.mem_stress_iterations, 1024
        ) * min(1.0, 2.0 * params.stress_workgroup_fraction)
        pre_stress = _normalised_stress(
            params.pre_stress_pct, params.pre_stress_iterations, 128
        )
        dominant_pattern = (
            params.mem_stress_pattern
            if mem_stress >= pre_stress
            else params.pre_stress_pattern
        )
        affinity = profile.pattern_affinity(
            dominant_pattern, params.stress_line_exponent
        )
        location_spread = self._location_spread(test)
        cross_workgroup = self._cross_workgroup()
        return Workload(
            instances_in_flight=self.instances_per_iteration(test),
            mem_stress=mem_stress,
            pre_stress=pre_stress,
            pattern_affinity=affinity,
            location_spread=location_spread,
            cross_workgroup=cross_workgroup,
        )

    def _location_spread(self, test: LitmusTest) -> float:
        """Memory-location diversity from permutation and striding."""
        params = self.parameters
        permutation = self.location_permutation(test)
        base = 0.35 if permutation.is_degenerate else 0.85
        stride_bonus = min(0.1, 0.02 * (params.mem_stride - 1))
        shuffle_bonus = 0.05 * (params.shuffle_pct / 100.0)
        return min(1.0, base + stride_bonus + shuffle_bonus)

    def _cross_workgroup(self) -> float:
        """Fraction of instances whose threads span workgroups.

        With three or more testing workgroups striping puts every role
        in a distinct workgroup; with two, at least one pairing
        crosses (Sec. 4.1).  Barrier alignment sharpens the temporal
        overlap of the communicating threads.
        """
        params = self.parameters
        if params.testing_workgroups >= 3:
            base = 1.0
        elif params.testing_workgroups == 2:
            base = 0.75
        else:
            base = 0.3
        alignment = 0.9 + 0.1 * (params.barrier_pct / 100.0)
        return min(1.0, base * alignment)

    # -- timing ---------------------------------------------------------------

    def stress_level(self) -> float:
        params = self.parameters
        return max(
            _normalised_stress(
                params.mem_stress_pct, params.mem_stress_iterations, 1024
            ),
            _normalised_stress(
                params.pre_stress_pct, params.pre_stress_iterations, 128
            ),
        )

    def iteration_seconds(self, device: Device, test: LitmusTest) -> float:
        return device.iteration_seconds(
            self.instances_per_iteration(test), self.stress_level()
        )

    def describe(self) -> str:
        return f"{self.name}: {self.parameters.describe()}"


# -- constructors -------------------------------------------------------------


def site_baseline() -> TestingEnvironment:
    return TestingEnvironment(
        EnvironmentKind.SITE_BASELINE, site_baseline_parameters()
    )


def pte_baseline() -> TestingEnvironment:
    return TestingEnvironment(
        EnvironmentKind.PTE_BASELINE, pte_baseline_parameters()
    )


def random_environment(
    kind: EnvironmentKind,
    rng: np.random.Generator,
    env_key: int,
) -> TestingEnvironment:
    """One random tuning candidate of the given kind."""
    if not kind.stressed:
        raise EnvironmentError_(
            "baseline environments are fixed; use site_baseline()/"
            "pte_baseline()"
        )
    return TestingEnvironment(
        kind,
        random_parameters(rng, parallel=kind.parallel),
        env_key=env_key,
    )


def random_environments(
    kind: EnvironmentKind,
    count: int,
    seed: int,
) -> List[TestingEnvironment]:
    """A reproducible family of random environments (a tuning run)."""
    if count < 0:
        raise EnvironmentError_("count must be non-negative")
    rng = np.random.default_rng(seed)
    return [
        random_environment(kind, rng, env_key=index)
        for index in range(count)
    ]
