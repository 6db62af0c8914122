"""The closed-form grid program: one model, one sampler hook.

The analytic model is implemented once, here, as a whole-grid tensor
program over (environment × device × test).  Per-test characteristics
and per-(environment, device) tuning scalars are computed once with
the genuine scalar functions, then composed elementwise in exactly the
scalar evaluation order — IEEE float64 arithmetic is deterministic, so
the probability tensor matches
:meth:`repro.gpu.batch.BatchModel.instance_probability` bit for bit
(the validation harness asserts it).  The response-jitter draw is
cached as a *standard* normal per (env, test, device)
(:func:`~repro.gpu.batch.jitter_draw`), so one cached value serves
every sigma.

:class:`ProgramBackend` is the shared base of the ``analytic`` and
``tensor`` backends: it compiles (or looks up) the grid's program and
turns it into a :class:`~repro.backends.base.GridResult`.  The only
thing a subclass supplies is :meth:`ProgramBackend.sample`, which
draws the (E, D, T) kill tensor from the program for one seed —
per-unit numpy streams for ``analytic``, counter-based SplitMix
streams for ``tensor``.

Memoization is at the grid level, in three bounded
:class:`~repro.memo.Memo` caches shared by both backends: compiled
programs (``tensor_grid``, seed-independent, so one program serves
both samplers and every seed), sampled kill tensors (``tensor_kills``,
keyed by backend name, grid identity and seed, so the two samplers
never collide), and standard-normal jitter draws (``tensor_jitter``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend, GridResult, timed_grid
from repro.env.environment import TestingEnvironment
from repro.env.runner import stable_name_hash
from repro.gpu.batch import (
    JITTER_SIGMA,
    instance_dilution,
    interleaving_probability,
    jitter_draw,
    observer_factor,
    stress_focus,
    weak_reorder_probability,
)
from repro.gpu.characteristics import Mechanism, characterize
from repro.gpu.device import Device
from repro.litmus.program import LitmusTest, structural_test_key
from repro.memo import Memo

#: Mechanism channel order inside the stacked probability tensor.
_CHANNELS = (
    Mechanism.INTERLEAVING,
    Mechanism.WEAK_REORDER,
    Mechanism.PARTIAL_SYNC,
)

#: Whole grid programs (probability/instances/seconds tensors), keyed
#: by grid identity; seed- and sampler-independent, so tuning sweeps
#: that resample the same grid, on either backend, reuse one program.
_GRID_CACHE = Memo("tensor_grid", maxsize=32)
#: Sampled kill tensors, keyed by (backend name, grid identity, seed).
_KILLS_CACHE = Memo("tensor_kills", maxsize=64)
#: Standard-normal jitter draws per (env_key, test, device); shared
#: across sigmas, grids, and environment kinds (SITE and PTE tuning
#: candidates share env keys).
_JITTER_Z_CACHE = Memo("tensor_jitter", maxsize=262_144)
_PROGRAM_MEMOS = (_GRID_CACHE, _KILLS_CACHE, _JITTER_Z_CACHE)


@dataclass(frozen=True)
class TensorCacheStats:
    """Counters of the shared grid-program memo caches."""

    grid_hits: int
    grid_misses: int
    grid_size: int
    kills_hits: int
    kills_misses: int
    kills_size: int
    jitter_hits: int
    jitter_misses: int


def tensor_cache_stats() -> TensorCacheStats:
    """Current counters of the shared grid/kills/jitter caches."""
    grid, kills, jitter = (memo.stats() for memo in _PROGRAM_MEMOS)
    return TensorCacheStats(
        grid.hits, grid.misses, grid.size,
        kills.hits, kills.misses, kills.size,
        jitter.hits, jitter.misses,
    )


def reset_tensor_caches() -> None:
    """Empty the shared caches (benchmarks measure cold vs warm)."""
    for memo in _PROGRAM_MEMOS:
        memo.clear()


@dataclass(frozen=True)
class GridProgram:
    """Seed-independent tensors for one grid, compiled once."""

    environments: Tuple[TestingEnvironment, ...]
    device_names: Tuple[str, ...]
    test_names: Tuple[str, ...]
    #: Per-instance probabilities, (E, D, T); bitwise equal to the
    #: scalar model's.
    probabilities: np.ndarray
    #: Instances per iteration, (E,) — device-independent.
    instances: np.ndarray
    #: Iterations, (E,).
    iterations: np.ndarray
    #: Simulated seconds per unit, (E, D) — test-independent.
    seconds: np.ndarray
    env_keys: np.ndarray
    device_hashes: np.ndarray
    test_hashes: np.ndarray

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.probabilities.shape


def _jitter_z(env_key: int, test_name: str, device_name: str) -> float:
    return _JITTER_Z_CACHE.get_or_compute(
        (env_key, test_name, device_name),
        lambda: jitter_draw(env_key, test_name, device_name),
    )


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark a cached tensor read-only and return it."""
    array.setflags(write=False)
    return array


def _compile_program(
    devices: Sequence[Device],
    tests: Sequence[LitmusTest],
    environments: Sequence[TestingEnvironment],
    iterations_override: Optional[int],
) -> GridProgram:
    """Evaluate the closed forms once, as whole-grid tensors.

    Scalar-per-(env, device) quantities — tuning, workload, the base
    channel probabilities — are computed with the genuine scalar
    functions in an E×D Python loop (cheap: no per-*test* work), and
    everything per-unit is composed elementwise in the exact scalar
    evaluation order, preserving bit equality with the scalar model.
    """
    env_count = len(environments)
    dev_count = len(devices)
    test_count = len(tests)
    shape = (env_count, dev_count, test_count)

    characteristics = [characterize(test) for test in tests]
    channel_index = {mechanism: i for i, mechanism in enumerate(_CHANNELS)}
    channel_sel = np.array(
        [
            channel_index.get(c.mechanism, 0) for c in characteristics
        ],
        dtype=np.intp,
    )
    bug_only = np.array(
        [c.mechanism is Mechanism.BUG_ONLY for c in characteristics],
        dtype=bool,
    )
    difficulty = np.array([c.difficulty for c in characteristics])
    sigma = np.array([JITTER_SIGMA[c.mechanism] for c in characteristics])
    needs_observer = np.array(
        [c.needs_observer_luck for c in characteristics],
        dtype=bool,
    )
    uses_fences = np.array(
        [c.uses_fences for c in characteristics], dtype=bool
    )
    adjacent_loads = np.array(
        [c.has_adjacent_same_location_loads for c in characteristics],
        dtype=bool,
    )
    stale_pattern = np.array(
        [c.has_stale_read_pattern for c in characteristics],
        dtype=bool,
    )

    gain = np.array([d.profile.interleave_gain for d in devices])
    leak = np.array([d.profile.partial_sync_leak for d in devices])
    requires_stress = np.array(
        [d.profile.partial_sync_requires_stress for d in devices],
        dtype=bool,
    )
    suppresses_observer = np.array(
        [d.profile.suppresses_observer_witness for d in devices],
        dtype=bool,
    )
    # (D, T) mask of mechanisms a profile never exhibits (Sec. 3.4).
    mechanisms = np.array(
        [c.mechanism for c in characteristics], dtype=object
    )
    suppressed = np.array(
        [
            [
                mechanism in device.profile.suppressed_mechanisms
                for mechanism in mechanisms
            ]
            for device in devices
        ],
        dtype=bool,
    )
    drops_fences = np.array(
        [len(d.bugs) > 0 and d.bugs.drops_fences for d in devices],
        dtype=bool,
    )
    swap = np.array(
        [
            d.bugs.load_load_swap_probability() if len(d.bugs) else 0.0
            for d in devices
        ]
    )

    env_keys = np.array(
        [env.env_key for env in environments], dtype=np.uint64
    )
    iterations = np.array(
        [env.iterations(iterations_override) for env in environments],
        dtype=np.int64,
    )
    instances = np.zeros(env_count, dtype=np.int64)

    inter_p = np.zeros((env_count, dev_count))
    weak_p = np.zeros((env_count, dev_count))
    observer = np.zeros((env_count, dev_count))
    contention = np.zeros((env_count, dev_count))
    stress_gate = np.zeros((env_count, dev_count))
    flush_window = np.zeros((env_count, dev_count))
    stale = np.zeros((env_count, dev_count))
    dilution = np.zeros((env_count, dev_count))
    focus = np.zeros((env_count, dev_count))
    seconds = np.zeros((env_count, dev_count))

    reference_test = tests[0] if tests else None
    for e, environment in enumerate(environments):
        for d, device in enumerate(devices):
            # workload and iteration_seconds are test-independent:
            # instances_per_iteration ignores its test argument.
            workload = environment.workload(
                device.profile, reference_test
            )
            tuning = device.tuning(workload)
            in_flight = workload.instances_in_flight
            instances[e] = in_flight
            inter_p[e, d] = interleaving_probability(tuning)
            weak_p[e, d] = weak_reorder_probability(tuning)
            observer[e, d] = observer_factor(tuning)
            contention[e, d] = tuning.contention
            stress_gate[e, d] = min(1.0, 2.0 * tuning.stress)
            flush_window[e, d] = 0.2 + 0.8 * tuning.flush_probability
            stale[e, d] = (
                device.bugs.stale_read_probability(tuning)
                if len(device.bugs)
                else 0.0
            )
            dilution[e, d] = instance_dilution(max(1, in_flight))
            focus[e, d] = stress_focus(tuning.stress, max(1, in_flight))
            seconds[e, d] = iterations[e] * environment.iteration_seconds(
                device, reference_test
            )

    # Mechanism channels, (E, D): composed in scalar evaluation order.
    effective_gain = 1.0 + (gain[None, :] - 1.0) * contention
    channel_inter = inter_p * effective_gain
    channel_weak = weak_p
    channel_partial = np.where(
        requires_stress[None, :],
        (weak_p * leak[None, :]) * stress_gate,
        weak_p * leak[None, :],
    )
    channels = np.stack(
        [channel_inter, channel_weak, channel_partial], axis=-1
    )
    mech = channels[:, :, channel_sel] * difficulty[None, None, :]
    mech = np.where(
        needs_observer[None, None, :],
        mech * observer[:, :, None],
        mech,
    )
    mech = np.minimum(1.0, mech)
    silenced = (
        bug_only[None, :]
        | suppressed
        | (needs_observer[None, :] & suppresses_observer[:, None])
    )
    mech = np.where(silenced[None, :, :], 0.0, mech)

    # Bug channels, max-composed exactly like ``bug_probability``.
    fence_open = drops_fences[:, None] & uses_fences[None, :]
    bug = np.where(
        fence_open[None, :, :],
        weak_p[:, :, None] * difficulty[None, None, :],
        0.0,
    )
    swap_open = (swap[:, None] > 0.0) & adjacent_loads[None, :]
    bug = np.maximum(
        bug,
        np.where(
            swap_open[None, :, :],
            (swap[None, :, None] * inter_p[:, :, None])
            * difficulty[None, None, :],
            0.0,
        ),
    )
    stale_open = (stale[:, :, None] > 0.0) & stale_pattern[None, None, :]
    bug = np.maximum(
        bug,
        np.where(
            stale_open,
            (stale * flush_window)[:, :, None]
            * difficulty[None, None, :],
            0.0,
        ),
    )
    bug = np.minimum(1.0, bug)

    base = np.maximum(mech, bug)

    jitter_z = np.empty(shape)
    short_names = [device.profile.short_name for device in devices]
    for e, environment in enumerate(environments):
        key = environment.env_key
        for d, short_name in enumerate(short_names):
            for t, test in enumerate(tests):
                jitter_z[e, d, t] = _jitter_z(key, test.name, short_name)
    jitter = np.where(
        sigma[None, None, :] > 0.0,
        np.exp(sigma[None, None, :] * jitter_z),
        1.0,
    )

    scaled = (base * dilution[:, :, None]) * focus[:, :, None]
    probabilities = np.where(
        base > 0.0, np.minimum(1.0, scaled * jitter), 0.0
    )

    return GridProgram(
        environments=tuple(environments),
        device_names=tuple(device.name for device in devices),
        test_names=tuple(test.name for test in tests),
        probabilities=_freeze(probabilities),
        instances=_freeze(instances),
        iterations=_freeze(iterations),
        seconds=_freeze(seconds),
        env_keys=_freeze(env_keys),
        device_hashes=_freeze(
            np.array(
                [stable_name_hash(device.name) for device in devices],
                dtype=np.uint64,
            )
        ),
        test_hashes=_freeze(
            np.array(
                [stable_name_hash(test.name) for test in tests],
                dtype=np.uint64,
            )
        ),
    )


class ProgramBackend(Backend):
    """A backend that is the grid program plus one kill sampler.

    Probabilities, instance counts, and simulated seconds come from
    the shared compiled program, so they are identical across every
    subclass; only :meth:`sample` differs.
    """

    @abc.abstractmethod
    def sample(self, program: GridProgram, seed: int) -> np.ndarray:
        """The (E, D, T) int64 kill tensor of ``program`` for ``seed``.

        Each unit's kills must depend only on (seed, unit identity),
        and a zero-probability unit must get zero kills.
        """

    @staticmethod
    def _program(
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        iterations_override: Optional[int],
    ) -> Tuple[tuple, GridProgram]:
        """The grid's identity and its (memoized) compiled program."""
        key = (
            tuple(environments),
            tuple((d.profile, tuple(d.bugs)) for d in devices),
            tuple(structural_test_key(test) for test in tests),
            iterations_override,
        )
        program = _GRID_CACHE.get_or_compute(
            key,
            lambda: _compile_program(
                devices, tests, environments, iterations_override
            ),
        )
        return key, program

    def _grid_result(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int,
        iterations_override: Optional[int],
    ) -> GridResult:
        if not (len(environments) and len(devices) and len(tests)):
            shape = (len(environments), len(devices), len(tests))
            return GridResult(
                environments=tuple(environments),
                device_names=tuple(d.name for d in devices),
                test_names=tuple(t.name for t in tests),
                iterations=np.array(
                    [
                        env.iterations(iterations_override)
                        for env in environments
                    ],
                    dtype=np.int64,
                ),
                instances=np.zeros(shape, dtype=np.int64),
                kills=np.zeros(shape, dtype=np.int64),
                seconds=np.zeros(shape, dtype=np.float64),
            )
        key, program = self._program(
            devices, tests, environments, iterations_override
        )
        kills = _KILLS_CACHE.get_or_compute(
            (self.name, key, seed),
            lambda: _freeze(self.sample(program, seed)),
        )
        shape = program.shape
        return GridResult(
            environments=program.environments,
            device_names=program.device_names,
            test_names=program.test_names,
            iterations=program.iterations,
            instances=np.broadcast_to(
                program.instances[:, None, None], shape
            ),
            kills=kills,
            seconds=np.broadcast_to(
                program.seconds[:, :, None], shape
            ),
        )

    def probabilities(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        iterations_override: Optional[int] = None,
    ) -> np.ndarray:
        """The (E, D, T) per-instance probability tensor.

        Exposed for the validation harness: these values are bitwise
        equal to ``Device.instance_probability`` per unit.
        """
        _, program = self._program(
            devices, tests, environments, iterations_override
        )
        return program.probabilities

    def run_grid(
        self,
        devices: Sequence[Device],
        tests: Sequence[LitmusTest],
        environments: Sequence[TestingEnvironment],
        seed: int = 0,
        iterations_override: Optional[int] = None,
    ) -> GridResult:
        """Tensors in, tensors out, no records."""
        return timed_grid(
            self.name,
            lambda: self._grid_result(
                devices, tests, environments, seed, iterations_override
            ),
            environments=len(environments),
        )
