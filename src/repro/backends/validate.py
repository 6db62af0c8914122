"""Cross-backend validation: the drift alarm for execution backends.

Each backend declares an ``equivalence`` contract
(:data:`repro.backends.base.EQUIVALENCE_CONTRACTS`) and this module
holds the executable check for each contract:

1. **Bit identity** (``"bitwise"``, the analytic backend) — exactly
   the serial reference loop's :class:`TestRun` records
   (:func:`repro.backends.analytic.run_serial`: same kills, same
   seconds) for the same seed.  Anything else means caching or
   batching changed the numbers.
2. **Statistical equivalence** (``"statistical"``, the tensor
   backend) — probabilities, seconds, and grid metadata bitwise equal
   to analytic; kill counts from the same binomial distributions but
   independent seeded draws, checked by standardized aggregate
   residuals within a fixed sigma bound, plus exact seeded
   reproducibility (a rerun from cold caches is bit-identical to
   itself).
3. **Directional agreement** (``"directional"``, the operational
   backend) — a different abstraction of the same device will never
   match count-for-count; what must hold is that both point the same
   way: analytically dead units stay dead operationally, analytically
   easy units out-kill hard ones.

Every registered backend, whatever its contract, must also pass the
**sub-grid determinism** check (:func:`validate_subgrid_determinism`):
a 1×1×1 cell and a one-environment rectangle cut from a larger grid
equal that grid's cells.  Campaign workers run each shard as such
rectangles, so this is what makes a campaign's stats independent of
its sharding.

``python -m repro.backends.validate`` runs all four on a small grid
and exits non-zero on the first violation, which is what the CI
matrix job invokes; the functions are also importable for tests and
for validating custom grids.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.analytic import AnalyticBackend, run_serial
from repro.backends.base import Backend, GridResult
from repro.backends.operational import OperationalBackend
from repro.backends.registry import (
    make_backend,
    registered_backends,
    resolve,
)
from repro.backends.program import reset_tensor_caches
from repro.backends.tensor import TensorAnalyticBackend
from repro.env.environment import TestingEnvironment
from repro.env.runner import TestRun
from repro.errors import EnvironmentError_
from repro.gpu.device import Device
from repro.litmus.oracle import oracle_for
from repro.litmus.program import LitmusTest
from repro.memo import registered_memos


@dataclass
class ValidationReport:
    """The outcome of one cross-backend validation pass."""

    units: int = 0
    mismatches: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        lines = [
            f"cross-backend validation over {self.units} units: "
            + ("OK" if self.ok else f"{len(self.mismatches)} mismatch(es)")
        ]
        lines.extend(f"  MISMATCH: {entry}" for entry in self.mismatches)
        lines.extend(f"  {entry}" for entry in self.notes)
        return "\n".join(lines)


def _unit_label(run: TestRun) -> str:
    return (
        f"{run.test_name} on {run.device_name} in {run.environment.name}"
    )


def validate_bit_identity(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    seed: int = 0,
    iterations_override: Optional[int] = None,
) -> ValidationReport:
    """Assert the analytic backend equals the serial reference loop
    bit-for-bit."""
    reference = run_serial(
        devices, tests, environments, seed=seed,
        iterations_override=iterations_override,
    )
    candidate = AnalyticBackend().run_matrix(
        devices, tests, environments, seed=seed,
        iterations_override=iterations_override,
    )
    report = ValidationReport(units=len(reference))
    if len(candidate) != len(reference):
        report.mismatches.append(
            f"unit counts differ: serial {len(reference)}, "
            f"grid {len(candidate)}"
        )
        return report
    for expected, actual in zip(reference, candidate):
        if expected != actual:
            report.mismatches.append(
                f"{_unit_label(expected)}: serial kills="
                f"{expected.kills} seconds={expected.seconds!r}, "
                f"grid kills={actual.kills} "
                f"seconds={actual.seconds!r}"
            )
    if report.ok:
        report.notes.append(
            "analytic backend and serial loop are bit-identical"
        )
    return report


def validate_statistical_equivalence(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    seed: int = 0,
    iterations_override: Optional[int] = None,
    sigma_bound: float = 6.0,
) -> ValidationReport:
    """Assert the tensor backend's ``"statistical"`` contract.

    Everything draw-independent must be *bitwise* equal to analytic:
    the per-instance probability tensor, simulated seconds, iteration
    and instance counts.  Kill counts come from independent seeded
    streams, so they are checked distributionally — the aggregate
    standardized residual of each backend's total kills against the
    exact binomial mean/variance must stay within ``sigma_bound``, and
    so must the killed-unit count against its exact expectation.
    Determinism is checked directly: recomputing from cold caches is
    bit-identical.  All checks are seeded, so they cannot flake.
    """
    tensor = TensorAnalyticBackend()
    reference = AnalyticBackend().run_matrix(
        devices, tests, environments, seed=seed,
        iterations_override=iterations_override,
    )
    grid = tensor.run_grid(
        devices, tests, environments, seed=seed,
        iterations_override=iterations_override,
    )
    report = ValidationReport(units=grid.unit_count)
    if len(reference) != grid.unit_count:
        report.mismatches.append(
            f"unit counts differ: analytic {len(reference)}, "
            f"tensor {grid.unit_count}"
        )
        return report

    # 1. Draw-independent values must be bitwise equal.
    candidate = grid.to_runs()
    probabilities = tensor.probabilities(
        devices, tests, environments,
        iterations_override=iterations_override,
    ).reshape(-1)
    for index, (expected, actual) in enumerate(
        zip(reference, candidate)
    ):
        if (
            expected.seconds != actual.seconds
            or expected.iterations != actual.iterations
            or expected.instances_per_iteration
            != actual.instances_per_iteration
        ):
            report.mismatches.append(
                f"{_unit_label(expected)}: draw-independent fields "
                f"differ (seconds {expected.seconds!r} vs "
                f"{actual.seconds!r})"
            )
        # Canonical order: index = (e * D + d) * T + t.  Resolving by
        # position (not name) keeps buggy/clean variants of the same
        # device distinct.
        environment = expected.environment
        device = devices[(index // len(tests)) % len(devices)]
        test = tests[index % len(tests)]
        analytic_probability = device.instance_probability(
            test,
            environment.workload(device.profile, test),
            env_key=environment.env_key,
        )
        if probabilities[index] != analytic_probability:
            report.mismatches.append(
                f"{_unit_label(expected)}: probability "
                f"{probabilities[index]!r} != analytic "
                f"{analytic_probability!r}"
            )

    # 2. Distribution agreement on kill counts (and therefore rates:
    # seconds are bitwise equal, so rate residuals are kill residuals).
    totals = (grid.instances * grid.iterations[:, None, None]).reshape(
        -1
    ).astype(np.float64)
    means = totals * probabilities
    variances = means * (1.0 - probabilities)
    scale = max(float(variances.sum()), 1.0) ** 0.5
    tensor_kills = grid.kills.reshape(-1).astype(np.float64)
    analytic_kills = np.array(
        [run.kills for run in reference], dtype=np.float64
    )
    for backend_name, kills in (
        ("tensor", tensor_kills),
        ("analytic", analytic_kills),
    ):
        residual = float((kills - means).sum()) / scale
        if abs(residual) > sigma_bound:
            report.mismatches.append(
                f"{backend_name} total kills deviate from the model "
                f"by {residual:+.2f} sigma (bound {sigma_bound})"
            )
        else:
            report.notes.append(
                f"{backend_name} aggregate kill residual "
                f"{residual:+.2f} sigma"
            )
    # Killed-unit fraction against its exact expectation.
    alive = np.exp(
        totals * np.log1p(-np.minimum(probabilities, 1.0 - 1e-15))
    )
    killed_mean = float((1.0 - alive).sum())
    killed_scale = max(float((alive * (1.0 - alive)).sum()), 1.0) ** 0.5
    for backend_name, kills in (
        ("tensor", tensor_kills),
        ("analytic", analytic_kills),
    ):
        killed = float((kills > 0).sum())
        residual = (killed - killed_mean) / killed_scale
        if abs(residual) > sigma_bound:
            report.mismatches.append(
                f"{backend_name} killed-unit count {killed:.0f} "
                f"deviates from expected {killed_mean:.1f} by "
                f"{residual:+.2f} sigma"
            )
    # Impossible units must be exactly impossible.
    impossible = probabilities == 0.0
    if (tensor_kills[impossible] != 0).any():
        report.mismatches.append(
            "tensor reported kills on zero-probability units"
        )

    # 3. Exact seeded reproducibility from cold caches.
    reset_tensor_caches()
    rerun = tensor.run_grid(
        devices, tests, environments, seed=seed,
        iterations_override=iterations_override,
    )
    if not np.array_equal(grid.kills, rerun.kills):
        report.mismatches.append(
            "seeded rerun from cold caches is not bit-identical"
        )
    if report.ok:
        report.notes.append(
            "tensor probabilities/seconds bitwise equal to analytic; "
            "kills statistically equivalent and seed-reproducible"
        )
    return report


def validate_directional_agreement(
    device: Device,
    tests: Sequence[LitmusTest],
    environment: TestingEnvironment,
    seed: int = 0,
    iterations: int = 40,
    max_operational_instances: int = 8,
) -> ValidationReport:
    """Assert operational and analytic execution point the same way.

    Checked per unit at SITE-affordable scale:

    * a unit whose kill condition is an actual memory-model violation
      (oracle target disallowed) and whose analytic probability is
      zero must stay at zero kills operationally — a clean executor
      never violates the model;
    * a unit with zero analytic probability whose target *is* an
      allowed weak behaviour can still be killed operationally; that
      is an analytic coverage gap, recorded as a note, not a failure;
    * ranking units by the analytic model's probability and by
      operational kill counts must correlate positively overall (no
      exact match expected — the ranking is against the model itself,
      not a sampled analytic draw, so the comparison is not doubly
      noisy; it needs a spread of tests to be meaningful, so pass the
      full mutant suite rather than a handful).
    """
    operational = OperationalBackend(
        max_operational_instances=max_operational_instances
    )
    report = ValidationReport(units=len(tests))
    pairs: List[Tuple[float, int]] = []
    coverage_gaps = 0
    operational_runs = operational.run_matrix(
        [device], tests, [environment], seed=seed + 1,
        iterations_override=iterations,
    )
    for test, operational_run in zip(tests, operational_runs):
        probability = device.instance_probability(
            test,
            environment.workload(device.profile, test),
            env_key=environment.env_key,
        )
        pairs.append((probability, operational_run.kills))
        if probability == 0.0 and operational_run.kills > 0:
            if oracle_for(test).target_allowed():
                coverage_gaps += 1
            else:
                report.mismatches.append(
                    f"{_unit_label(operational_run)}: analytically "
                    f"impossible and model-forbidden, yet killed "
                    f"{operational_run.kills}x operationally"
                )
    concordant = 0
    discordant = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            left = pairs[i][0] - pairs[j][0]
            right = pairs[i][1] - pairs[j][1]
            if left * right > 0:
                concordant += 1
            elif left * right < 0:
                discordant += 1
    if concordant + discordant > 0 and concordant < discordant:
        report.mismatches.append(
            f"analytic and operational kill rankings anti-correlate "
            f"({concordant} concordant vs {discordant} discordant pairs)"
        )
    if coverage_gaps:
        report.notes.append(
            f"{coverage_gaps} unit(s) operationally killable but "
            f"analytically unmodelled (allowed-behaviour coverage gap)"
        )
    report.notes.append(
        f"rank agreement: {concordant} concordant, "
        f"{discordant} discordant pairs"
    )
    return report


def validate_subgrid_determinism(
    backend: Backend,
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    seed: int = 0,
    iterations_override: Optional[int] = None,
) -> ValidationReport:
    """Assert that rectangles cut from a grid equal its cells.

    Campaign workers run each shard as rectangles, so a unit's value
    must depend only on (seed, unit key), never on the grid it was
    computed in or on that grid's traversal.  Checked for two cuts —
    the grid's last cell as a 1×1×1 grid, and the first environment's
    trailing devices × trailing tests — each computed from empty
    memos, as a fresh worker would, and compared bitwise.
    """

    def cold_grid(*grid) -> GridResult:
        for memo in registered_memos().values():
            memo.clear()
        return backend.run_grid(
            *grid, seed=seed, iterations_override=iterations_override
        )

    grid = cold_grid(devices, tests, environments)
    report = ValidationReport(units=grid.unit_count)
    d0, t0 = len(devices) // 2, len(tests) // 2
    cuts = (
        ("1x1x1 cell", (slice(-1, None),) * 3,
         ([devices[-1]], [tests[-1]], [environments[-1]])),
        ("one-environment rectangle",
         (slice(0, 1), slice(d0, None), slice(t0, None)),
         (devices[d0:], tests[t0:], environments[:1])),
    )
    for label, index, cut in cuts:
        sub = cold_grid(*cut)
        for field_name, at in (
            ("kills", index), ("seconds", index), ("instances", index),
            ("iterations", index[0]),
        ):
            actual = getattr(sub, field_name)
            expected = getattr(grid, field_name)[at]
            if not np.array_equal(actual, expected):
                differing = (
                    int(np.sum(actual != expected))
                    if actual.shape == expected.shape
                    else actual.size
                )
                report.mismatches.append(
                    f"{backend.name} {label}: {differing} of "
                    f"{actual.size} {field_name} value(s) differ from "
                    f"the grid's cells"
                )
    if report.ok:
        report.notes.append(
            f"{backend.name}: sub-grids reproduce the grid's cells"
        )
    return report


def validate_backends(
    environment_count: int = 2,
    seed: int = 7,
    log=print,
) -> bool:
    """The CI entry point: every check on a small mixed grid."""
    from repro.env.environment import EnvironmentKind, pte_baseline
    from repro.env.tuning import environments_for
    from repro.gpu.device import make_device, study_devices
    from repro.mutation import default_suite

    suite = default_suite()
    devices = study_devices() + [make_device("intel", buggy=True)]
    ok = True
    for kind in EnvironmentKind:
        environments = environments_for(kind, environment_count, seed)
        report = validate_bit_identity(
            devices, suite.mutants, environments, seed=seed
        )
        log(f"[{kind.name}] {report.describe()}")
        ok = ok and report.ok
        statistical = validate_statistical_equivalence(
            devices, suite.mutants, environments, seed=seed
        )
        log(f"[{kind.name}/tensor] {statistical.describe()}")
        ok = ok and statistical.ok
    directional = validate_directional_agreement(
        make_device("amd"),
        suite.mutants,
        pte_baseline(),
        seed=seed,
    )
    log(f"[operational-vs-analytic] {directional.describe()}")
    ok = ok and directional.ok
    environments = environments_for(
        EnvironmentKind.PTE, environment_count, seed
    )
    for name in registered_backends():
        # A CI-sized grid and instance cap keep simulation affordable.
        options = (
            {"max_operational_instances": 2}
            if "max_operational_instances" in resolve(name).option_names
            else {}
        )
        subgrid = validate_subgrid_determinism(
            make_backend(name, **options), devices, suite.mutants[:4],
            environments, seed=seed, iterations_override=4,
        )
        log(f"[{name}/sub-grids] {subgrid.describe()}")
        ok = ok and subgrid.ok
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.backends.validate``; non-zero on drift."""
    del argv
    try:
        return 0 if validate_backends() else 1
    except EnvironmentError_ as error:  # pragma: no cover
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
