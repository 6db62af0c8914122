"""Pluggable execution backends behind the runner.

One :class:`Backend` protocol, three strategies, one registry.  A
backend implements one method, ``run_grid`` → :class:`GridResult`
(kill/instance/seconds tensors indexed ``[environment, device,
test]``); records are ``run_matrix`` = ``run_grid(...).to_runs()``,
and a single unit is a 1×1×1 grid.  Every backend declares an
``equivalence`` contract (:data:`EQUIVALENCE_CONTRACTS`) naming how
its numbers relate to the analytic reference; the registry validates
the contract, the validation harness checks it, and campaign journals
enforce it across resume:

* ``analytic`` (:class:`AnalyticBackend`, ``bitwise``) — the default:
  closed-form per-instance probabilities, binomially sampled kills.
  Scales to PTE instance counts; the numerical ground truth
  everything else is validated against.  Its ``run_grid`` is the
  shared grid program (:mod:`repro.backends.program`) sampled by
  per-unit numpy streams, bit-identical to the scalar reference loop
  (:func:`repro.backends.analytic.run_serial`).  The retired
  name ``vectorized`` resolves here, so journals that pin it still
  resume.
* ``operational`` (:class:`OperationalBackend`, ``directional``) —
  every instance actually simulated by the operational executor.
  SITE-scale only; accepts ``max_operational_instances``.
* ``tensor`` (:class:`TensorAnalyticBackend`, ``statistical``) — the
  same grid program with batched counter-based binomial sampling.
  Probabilities and seconds are identical to ``analytic``'s; kill
  counts come from the same distributions via independent seeded
  streams (see ``benchmarks/bench_tensor_speedup.py``).

Callers select a backend by name through :func:`resolve` /
:func:`make_backend` — the single validation point that
``repro.env.runner.Runner`` and ``repro.campaign.CampaignSpec`` both
delegate to — or inject a :class:`Backend` instance directly.
:mod:`repro.backends.validate` is the cross-backend drift alarm CI
runs on every build.
"""

from repro.backends.analytic import AnalyticBackend
from repro.backends.base import (
    EQUIVALENCE_CONTRACTS,
    Backend,
    GridResult,
)
from repro.backends.operational import OperationalBackend
from repro.backends.registry import (
    make_backend,
    register,
    registered_backends,
    resolve,
    validate_options,
)
from repro.backends.program import (
    TensorCacheStats,
    reset_tensor_caches,
    tensor_cache_stats,
)
from repro.backends.tensor import TensorAnalyticBackend
from repro.backends.validate import (
    ValidationReport,
    validate_backends,
    validate_bit_identity,
    validate_directional_agreement,
    validate_statistical_equivalence,
    validate_subgrid_determinism,
)

__all__ = [
    "AnalyticBackend",
    "Backend",
    "EQUIVALENCE_CONTRACTS",
    "GridResult",
    "OperationalBackend",
    "TensorAnalyticBackend",
    "TensorCacheStats",
    "ValidationReport",
    "make_backend",
    "register",
    "registered_backends",
    "reset_tensor_caches",
    "resolve",
    "tensor_cache_stats",
    "validate_backends",
    "validate_bit_identity",
    "validate_directional_agreement",
    "validate_options",
    "validate_statistical_equivalence",
    "validate_subgrid_determinism",
]
