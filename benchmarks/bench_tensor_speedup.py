"""Speedup of the tensor backend's grid path on the Figure 5 grid.

Times the same grid — all four Sec. 5.1 environment kinds, the study
device roster, the full mutant suite — through the analytic backend's
records path, ``AnalyticBackend().run_matrix`` (bitwise contract,
per-unit numpy streams), and through the tensor backend's native
``run_grid`` path (statistical contract, batched SplitMix draws).
Both backends run the same compiled grid program, so the caches are
reset between them and each side pays its own compile:

* **cold** (caches empty): compile plus one batched sampling pass,
  against compile plus one per-unit stream per live unit;
* **warm** (program and kills cached, the steady state of sweeps and
  resumed campaigns): re-evaluating a grid costs two cache lookups
  and three ``np.broadcast_to`` views;
* **resample** (fresh seed, cached program): only the batched
  binomial sampling reruns — the regime incremental campaigns with
  new seeds live in.

The acceptance bar is asserted on the warm regime: ≥10× over the warm
analytic ``run_matrix`` at the paper's full scale (150 environments
per stressed kind), relaxed to ≥3× on reduced CI grids where fixed
overheads dominate.  Speed never buys silent drift: the per-instance
probability tensor, iteration counts, instance counts, and simulated
seconds stay bitwise equal to the analytic model (checked here via
``GridResult.to_runs`` against the analytic runs), kill counts are
checked statistically against their exact binomial expectation, and
a seeded rerun from cold caches must reproduce kills bit-for-bit.

Scale via ``BENCH_TENSOR_ENVS`` (default 150, the paper's scale; CI
uses a smaller grid).
"""

import os
import time

import numpy as np

from repro import obs
from repro.backends import (
    AnalyticBackend,
    TensorAnalyticBackend,
    reset_tensor_caches,
    tensor_cache_stats,
)
from repro.backends.base import GRID_SECONDS_METRIC
from repro.env import EnvironmentKind, environments_for

ENVIRONMENT_COUNT = int(os.environ.get("BENCH_TENSOR_ENVS", "150"))
SEED = 42
#: Full-scale bar (the tentpole's acceptance criterion); reduced
#: grids amortise the compile worse, so CI asserts a lower floor.
WARM_SPEEDUP_FLOOR = 10.0 if ENVIRONMENT_COUNT >= 150 else 3.0
#: Aggregate kill-count residual bound in standard deviations; the
#: residuals are deterministic for a fixed seed, so this cannot flake.
SIGMA_BOUND = 6.0


def _grids(seed=SEED):
    return {
        kind: environments_for(kind, ENVIRONMENT_COUNT, seed)
        for kind in EnvironmentKind
    }


def _timed_matrix(backend, devices, tests, grids):
    rec = obs.enable()
    try:
        runs = {}
        started = time.perf_counter()
        for kind, environments in grids.items():
            runs[kind] = backend.run_matrix(
                devices, tests, environments, seed=SEED
            )
        elapsed = time.perf_counter() - started
        summary = obs.histogram_summary(rec.registry, GRID_SECONDS_METRIC)
    finally:
        obs.disable()
    return runs, elapsed, summary


def _timed_grid(backend, devices, tests, grids, seed=SEED):
    rec = obs.enable()
    try:
        results = {}
        started = time.perf_counter()
        for kind, environments in grids.items():
            results[kind] = backend.run_grid(
                devices, tests, environments, seed=seed
            )
        elapsed = time.perf_counter() - started
        summary = obs.histogram_summary(rec.registry, GRID_SECONDS_METRIC)
    finally:
        obs.disable()
    return results, elapsed, summary


def _kill_residual(backend, devices, tests, environments, result):
    """Aggregate kill residual in σ against the exact expectation."""
    probabilities = backend.probabilities(devices, tests, environments)
    totals = (
        result.iterations[:, None, None] * result.instances
    ).astype(np.float64)
    mean = totals * probabilities
    variance = totals * probabilities * (1.0 - probabilities)
    spread = float(np.sqrt(variance.sum()))
    if spread == 0.0:
        return 0.0
    return float((result.kills - mean).sum()) / spread


def test_tensor_speedup(suite, devices):
    tests = suite.mutants
    grids = _grids()
    total_units = sum(
        len(environments) * len(devices) * len(tests)
        for environments in grids.values()
    )

    reset_tensor_caches()
    analytic = AnalyticBackend()
    # The priming pass doubles as the cold-regime reference.
    _, analytic_cold_seconds, _ = _timed_matrix(
        analytic, devices, tests, grids
    )
    analytic_runs, analytic_warm_seconds, analytic_summary = _timed_matrix(
        analytic, devices, tests, grids
    )

    reset_tensor_caches()
    tensor = TensorAnalyticBackend()
    cold_results, cold_seconds, cold_summary = _timed_grid(
        tensor, devices, tests, grids
    )
    warm_results, warm_seconds, warm_summary = _timed_grid(
        tensor, devices, tests, grids
    )
    _, resample_seconds, resample_summary = _timed_grid(
        tensor, devices, tests, grids, seed=SEED + 1
    )

    # Cold compares against cold (first sight of a grid), warm and
    # resample against the analytic steady state it must displace.
    cold_speedup = analytic_cold_seconds / cold_seconds
    warm_speedup = analytic_warm_seconds / warm_seconds
    resample_speedup = analytic_warm_seconds / resample_seconds
    stats = tensor_cache_stats()

    print(f"\ntensor grid speedup over {total_units} units "
          f"({ENVIRONMENT_COUNT} environments per stressed kind):")
    print(f"  analytic (cold matrix):   {analytic_cold_seconds:.3f}s")
    print(f"  analytic (warm matrix):   {analytic_warm_seconds:.3f}s "
          f"({total_units / analytic_warm_seconds:,.0f} units/s)")
    print(f"  tensor (cold grid):       {cold_seconds:.3f}s "
          f"({cold_speedup:.2f}x over cold)")
    print(f"  tensor (warm grid):       {warm_seconds * 1e3:.1f}ms "
          f"({warm_speedup:.1f}x)")
    print(f"  tensor (resample):        {resample_seconds * 1e3:.1f}ms "
          f"({resample_speedup:.1f}x)")
    print(f"  program cache: {stats.grid_hits} hits / "
          f"{stats.grid_misses} misses; kills cache: "
          f"{stats.kills_hits} hits / {stats.kills_misses} misses")

    artifact = obs.emit(
        "tensor",
        {
            "analytic_grid_warm": analytic_summary,
            "tensor_cold": cold_summary,
            "tensor_warm": warm_summary,
            "tensor_resample": resample_summary,
        },
        # Not a timed stage (no median/p90), so it rides as ledger
        # metadata instead of failing the stage-schema check.
        extra={
            "speedups": {
                "cold": cold_speedup,
                "warm": warm_speedup,
                "resample": resample_speedup,
                "floor": WARM_SPEEDUP_FLOOR,
                "units": total_units,
            },
        },
    )
    print(f"  per-stage grid-time summary written to {artifact}")

    # Correctness before speed.  The grid's probability-derived
    # fields are bitwise equal to the analytic runs;
    # only the kill draws differ, and those must sit within
    # SIGMA_BOUND of their exact binomial expectation per kind.
    for kind, result in warm_results.items():
        assert result.unit_count == len(analytic_runs[kind])
        for ours, reference in zip(result.to_runs(), analytic_runs[kind]):
            assert ours.test_name == reference.test_name
            assert ours.device_name == reference.device_name
            assert ours.environment == reference.environment
            assert ours.iterations == reference.iterations
            assert (
                ours.instances_per_iteration
                == reference.instances_per_iteration
            )
            assert ours.seconds == reference.seconds
        residual = _kill_residual(
            tensor, devices, tests, grids[kind], result
        )
        assert abs(residual) < SIGMA_BOUND, (
            f"{kind.name}: kill residual {residual:+.2f}σ outside "
            f"±{SIGMA_BOUND}σ"
        )

    # The warm pass resolves every grid from the kills cache.
    assert stats.kills_hits == len(grids)

    # Seeded rerun from cold caches is bit-identical.
    reset_tensor_caches()
    for kind, environments in grids.items():
        rerun = tensor.run_grid(devices, tests, environments, seed=SEED)
        assert np.array_equal(rerun.kills, cold_results[kind].kills)
        assert np.array_equal(warm_results[kind].kills,
                              cold_results[kind].kills)

    assert cold_speedup > 1.0, (
        f"tensor grid slower than the cold analytic matrix "
        f"({cold_speedup:.2f}x)"
    )
    assert resample_speedup > 1.0, (
        f"resampling a cached program slower than warm analytic "
        f"({resample_speedup:.2f}x)"
    )
    assert warm_speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm tensor grid speedup {warm_speedup:.2f}x below the "
        f"{WARM_SPEEDUP_FLOOR}x acceptance bar"
    )
