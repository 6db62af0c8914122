"""Tuning runs: searching the environment space (Sec. 5.1).

The paper tunes by generating random environments and executing every
mutant in each, on every device: 150 environments, SITE × 300
iterations, PTE × 100 iterations.  :func:`tuning_run` reproduces that
experiment (scaled by arguments) and returns a :class:`TuningResult`
that the analysis layer aggregates into Fig. 5 and Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.env.environment import (
    EnvironmentKind,
    TestingEnvironment,
    pte_baseline,
    random_environments,
    site_baseline,
)
from repro.env.runner import Runner, TestRun
from repro.errors import AnalysisError, EnvironmentError_
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest

RunKey = Tuple[str, str, int]  # (test, device, env_key)


@dataclass
class TuningResult:
    """All runs of one tuning experiment, with fast lookups.

    ``runs`` is fixed once the result is built: the lookup index, the
    device names and the environments are all computed from it in one
    pass at construction.
    """

    kind: EnvironmentKind
    runs: List[TestRun]
    #: Name of the execution backend that produced the runs, when
    #: known (``None`` for results merged across backends or loaded
    #: from archives that predate backend recording).
    backend: Optional[str] = None
    _index: Dict[RunKey, TestRun] = field(default_factory=dict, repr=False)
    _device_names: List[str] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _environments: List[TestingEnvironment] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        devices: Dict[str, None] = {}
        environments: Dict[int, TestingEnvironment] = {}
        for run in self.runs:
            key = (run.test_name, run.device_name, run.environment.env_key)
            if key in self._index:
                raise AnalysisError(f"duplicate run for {key}")
            self._index[key] = run
            devices.setdefault(run.device_name)
            environments.setdefault(run.environment.env_key, run.environment)
        self._device_names = list(devices)
        self._environments = [
            environments[key] for key in sorted(environments)
        ]

    # -- lookups ---------------------------------------------------------

    @property
    def test_names(self) -> List[str]:
        return sorted({run.test_name for run in self.runs})

    @property
    def device_names(self) -> List[str]:
        """Devices in first-run order (a copy)."""
        return list(self._device_names)

    @property
    def environments(self) -> List[TestingEnvironment]:
        """One environment per env key, in key order (a copy)."""
        return list(self._environments)

    def run_for(
        self, test_name: str, device_name: str, env_key: int
    ) -> TestRun:
        try:
            return self._index[(test_name, device_name, env_key)]
        except KeyError:
            raise AnalysisError(
                f"no run recorded for test={test_name!r} "
                f"device={device_name!r} env={env_key}"
            ) from None

    def rate(self, test_name: str, device_name: str, env_key: int) -> float:
        return self.run_for(test_name, device_name, env_key).rate

    def runs_for_test(
        self, test_name: str, device_name: Optional[str] = None
    ) -> Iterator[TestRun]:
        for run in self.runs:
            if run.test_name != test_name:
                continue
            if device_name is not None and run.device_name != device_name:
                continue
            yield run

    # -- aggregations used throughout Sec. 5 --------------------------------

    def killed(self, test_name: str, device_name: str) -> bool:
        """Was the test killed in at least one environment? (the
        definition behind the mutation score, Sec. 5.2)"""
        return any(
            run.killed
            for run in self.runs_for_test(test_name, device_name)
        )

    def best_rate(self, test_name: str, device_name: str) -> float:
        """The maximum death rate over all environments."""
        return max(
            (
                run.rate
                for run in self.runs_for_test(test_name, device_name)
            ),
            default=0.0,
        )

    def best_environment(
        self, test_name: str, device_name: str
    ) -> Optional[TestingEnvironment]:
        best: Optional[TestRun] = None
        for run in self.runs_for_test(test_name, device_name):
            if best is None or run.rate > best.rate:
                best = run
        if best is None or not best.killed:
            return None
        return best.environment

    def merge(self, other: "TuningResult") -> "TuningResult":
        if other.kind is not self.kind:
            raise AnalysisError("cannot merge results of different kinds")
        backend = self.backend if self.backend == other.backend else None
        return TuningResult(
            kind=self.kind, runs=self.runs + other.runs, backend=backend
        )


def environments_for(
    kind: EnvironmentKind, count: int, seed: int
) -> List[TestingEnvironment]:
    """The environment family a tuning run evaluates.

    Baseline kinds have exactly one (fixed) environment; stressed kinds
    get ``count`` random candidates.
    """
    if kind is EnvironmentKind.SITE_BASELINE:
        return [site_baseline()]
    if kind is EnvironmentKind.PTE_BASELINE:
        return [pte_baseline()]
    return random_environments(kind, count, seed)


def _name_resolvable(tests: Sequence[LitmusTest]) -> bool:
    """Can workers reconstruct these exact tests from their names?

    Campaign workers materialise tests by name; delegating is only
    sound when name lookup yields a structurally identical test.
    """
    from repro.campaign.spec import CampaignError
    from repro.campaign.worker import _resolve_test

    for test in tests:
        try:
            resolved = _resolve_test(test.name)
        except CampaignError:
            return False
        if resolved.pretty() != test.pretty():
            return False
    return True


def tuning_run(
    kind: EnvironmentKind,
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environment_count: int = 150,
    seed: int = 0,
    runner: Optional[Runner] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> TuningResult:
    """Reproduce one of the paper's four tuning experiments.

    Args:
        kind: Which environment family (Sec. 5.1's presets).
        devices: Devices to evaluate (normally the Table 3 roster).
        tests: Tests to execute (normally the 32 mutants).
        environment_count: Random candidates for stressed kinds (the
            paper uses 150).
        seed: Seeds both environment generation and execution.
        runner: A fully configured :class:`Runner` for custom setups;
            mutually exclusive with ``backend``.
        workers: With ``workers > 1``, delegate to the sharded
            campaign executor (:mod:`repro.campaign`); results are
            identical to the serial path for the same seed.  Requires
            name-constructible (bug-free or ``buggy``-roster) devices;
            custom ``runner`` objects force the serial path.
        backend: Execution backend name from the
            :mod:`repro.backends` registry (defaults to
            ``"analytic"``); carried through campaign delegation so
            sharded workers execute with the same backend.
    """
    if runner is not None and backend is not None:
        raise EnvironmentError_(
            "pass either runner= or backend=, not both; a runner "
            "already carries its backend"
        )
    from repro import obs

    rec = obs.recorder()
    rec.counter_inc(
        "repro_tuning_runs_total", 1, {"kind": kind.name.lower()}
    )
    if workers is not None and workers > 1 and runner is None:
        if not any(len(device.bugs) for device in devices) and (
            _name_resolvable(tests)
        ):
            # Lazy import: campaign sits above env in the layering.
            from repro.campaign import (
                CampaignSpec,
                CampaignScheduler,
                ExecutorConfig,
            )

            spec = CampaignSpec(
                name=f"tuning-{kind.name.lower()}",
                kinds=(kind.name,),
                device_names=tuple(device.name for device in devices),
                test_names=tuple(test.name for test in tests),
                environment_count=environment_count,
                seed=seed,
                backend=backend if backend is not None else "analytic",
            )
            outcome = CampaignScheduler(
                spec, config=ExecutorConfig(workers=workers)
            ).run()
            return outcome.results[kind]
    environments = environments_for(kind, environment_count, seed)
    active_runner = runner if runner is not None else Runner(backend=backend)
    with rec.span(
        "tuning.run",
        kind=kind.name.lower(),
        environments=len(environments),
        tests=len(tests),
    ):
        runs = active_runner.run_matrix(
            devices, tests, environments, seed=seed
        )
    return TuningResult(
        kind=kind, runs=runs, backend=active_runner.backend.name
    )
