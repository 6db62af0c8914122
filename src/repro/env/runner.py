"""Executing tests in environments and recording results.

A :class:`TestRun` is the atomic measurement of the whole evaluation:
one (test, device, environment) triple, executed for some iterations,
yielding a kill count and a simulated duration.  Everything in Sec. 5
— mutation scores, death rates, environment merging, correlation — is
an aggregation over ``TestRun`` records.

Execution strategies live in :mod:`repro.backends` (``analytic``,
``operational``, ``tensor``); the :class:`Runner`
here is a thin composition over one of them, owning only what is
strategy-independent — iteration-count resolution and the
deterministic per-unit RNG derivation.  Every run goes through the
backend's one grid seam; :meth:`Runner.run` is a 1×1×1 grid, keyed by
the campaign ``seed`` like every other unit.  ``backend=`` (a registry name
or a :class:`~repro.backends.Backend` instance) together with
:func:`repro.backends.make_backend` is the single construction path;
the ``mode=`` alias deprecated since the backend extraction has been
removed.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.env.environment import TestingEnvironment
from repro.errors import EnvironmentError_
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest, structural_test_key


#: Version of the canonical result-key tuple layout below.  Bump it
#: whenever :func:`result_key` changes shape or a component's identity
#: semantics change; the bump flows into every :func:`result_digest`,
#: so persistent stores treat old entries as misses instead of serving
#: results keyed under different semantics.
RESULT_KEY_SCHEMA = 1


def result_key(
    test: LitmusTest,
    device: Device,
    environment: TestingEnvironment,
    seed: Optional[int] = None,
    iterations: Optional[int] = None,
) -> tuple:
    """The canonical identity of one (test, device, environment) unit.

    The persistent :mod:`repro.store` keys every result off this one
    tuple, with ``seed`` and ``iterations`` set, so a stored result
    can only be served for the unit, seed and budget that produced it.

    Components are frozen dataclasses, enums, strings, and ints, so
    the tuple is hashable and its ``repr`` is identical across
    processes — which is what lets :func:`result_digest` derive a
    process-stable content address from it.
    """
    return (
        structural_test_key(test),
        test.name,
        device.profile,
        tuple(device.bugs),
        environment,
        seed,
        iterations,
    )


def result_digest(
    backend_name: str, backend_version: int, key: tuple
) -> str:
    """A content address for one unit result under one backend.

    SHA-256 over the deterministic ``repr`` of (key schema, backend
    name, backend version, :func:`result_key` tuple).  Two processes —
    or two runs months apart — computing the digest for the same unit
    under the same backend semantics get the same address; any change
    to the backend's numeric behaviour is signalled by bumping its
    ``version`` and lands old store entries as misses.
    """
    payload = repr(
        (RESULT_KEY_SCHEMA, backend_name, backend_version, key)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- deterministic per-unit seeding -------------------------------------------


def stable_name_hash(name: str) -> int:
    """A process-stable 32-bit hash of a name (CRC32, not ``hash``)."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def unit_seed_sequence(
    seed: int, env_key: int, device_name: str, test_name: str
) -> np.random.SeedSequence:
    """The RNG root for one (environment, device, test) work unit.

    Spawn-style derivation from the campaign seed and the unit's
    stable key: every unit gets an independent stream that does not
    depend on execution order, worker count, or Python's per-process
    hash randomisation, so any subset of a matrix — or a sharded
    parallel run of it — reproduces the full run's values exactly.
    """
    return np.random.SeedSequence(
        (
            seed,
            env_key,
            stable_name_hash(device_name),
            stable_name_hash(test_name),
        )
    )


def unit_rng(
    seed: int, env_key: int, device_name: str, test_name: str
) -> np.random.Generator:
    """The deterministic generator for one work unit."""
    return np.random.default_rng(
        unit_seed_sequence(seed, env_key, device_name, test_name)
    )


@dataclass(frozen=True)
class TestRun:
    """The outcome of running one test in one environment on one device."""

    # Not a pytest test class, despite the name.
    __test__ = False

    test_name: str
    device_name: str
    environment: TestingEnvironment
    iterations: int
    instances_per_iteration: int
    kills: int
    seconds: float

    @property
    def killed(self) -> bool:
        return self.kills > 0

    @property
    def rate(self) -> float:
        """Mutant death rate (or bug observation rate): kills/second."""
        if self.seconds <= 0.0:
            return 0.0
        return self.kills / self.seconds

    @property
    def instances(self) -> int:
        return self.iterations * self.instances_per_iteration

    def describe(self) -> str:
        return (
            f"{self.test_name} on {self.device_name} in "
            f"{self.environment.name}: {self.kills} kills / "
            f"{self.instances} instances / {self.seconds:.4f}s "
            f"({self.rate:.1f}/s)"
        )


class Runner:
    """Runs tests in environments through a pluggable backend.

    The runner is a thin composition: the backend (see
    :mod:`repro.backends`) decides *how* a unit executes, the runner
    resolves *how long* (``iterations_override`` vs the environment's
    default budget) and hands grids to the backend's ``run_matrix``
    so batching backends get whole grids to work with.

    Args:
        backend: A backend name (``"analytic"``, ``"operational"``,
            ``"tensor"``) or a
            :class:`repro.backends.Backend` instance.  Defaults to
            ``"analytic"``.
        max_operational_instances: Per-iteration instance cap; only
            the operational backend accepts it — passing it with any
            other backend raises :class:`EnvironmentError_` instead of
            being silently ignored.
        iterations_override: Fixed iteration count for every unit.
    """

    def __init__(
        self,
        backend: Union[str, "object", None] = None,
        max_operational_instances: Optional[int] = None,
        iterations_override: Optional[int] = None,
        **removed: "object",
    ) -> None:
        from repro.backends import Backend, make_backend

        if "mode" in removed:
            raise EnvironmentError_(
                "Runner(mode=...) was removed; construct with "
                "Runner(backend=<name or Backend instance>) — "
                "repro.backends.make_backend(name, **options) is the "
                "single validated construction path"
            )
        if removed:
            unknown = ", ".join(sorted(removed))
            raise EnvironmentError_(
                f"Runner() got unexpected argument(s): {unknown}"
            )
        if backend is None:
            backend = "analytic"
        if isinstance(backend, Backend):
            if max_operational_instances is not None:
                raise EnvironmentError_(
                    "max_operational_instances cannot be combined with "
                    "an injected backend instance; configure the "
                    "instance directly"
                )
            self.backend = backend
        else:
            self.backend = make_backend(
                backend,
                max_operational_instances=max_operational_instances,
            )
        self.iterations_override = iterations_override

    @property
    def max_operational_instances(self) -> Optional[int]:
        return getattr(self.backend, "max_operational_instances", None)

    # -- single runs -----------------------------------------------------

    def run(
        self,
        device: Device,
        test: LitmusTest,
        environment: TestingEnvironment,
        seed: int = 0,
    ) -> TestRun:
        """Run one unit: a 1×1×1 :meth:`run_matrix`.

        Its value is the cell of any grid containing it, for the same
        ``seed``.
        """
        (run,) = self.run_matrix([device], [test], [environment], seed=seed)
        return run

    # -- matrices -----------------------------------------------------------

    def run_matrix(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
    ) -> List[TestRun]:
        """Run every (device, test, environment) combination.

        Each triple gets an independent, deterministic RNG stream, so
        subsets of the matrix reproduce the full run's values.
        Delegated whole to the backend, so grid-program backends
        (analytic, tensor) see the grid at once.
        """
        return self.backend.run_matrix(
            devices,
            tests,
            environments,
            seed=seed,
            iterations_override=self.iterations_override,
        )


def resolve_runner(
    runner: Optional[Runner], backend: Optional[str]
) -> Runner:
    """The runner for entry points taking ``runner=`` or ``backend=``.

    A runner already carries its backend, so passing both is an error.
    """
    if runner is not None and backend is not None:
        raise EnvironmentError_(
            "pass either runner= or backend=, not both; a runner "
            "already carries its backend"
        )
    return runner if runner is not None else Runner(backend=backend)
