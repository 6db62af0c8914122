"""The analytic batch model: per-instance probabilities at scale.

The operational executor (:mod:`repro.gpu.executor`) is the ground
truth, but simulating 125 000 instances per iteration × 100 iterations
× 150 environments × 32 mutants × 4 devices in Python is not feasible.
The paper's measurements, however, only depend on per-instance *rates*;
given a per-instance probability, kills per iteration are binomial.

This module provides closed-form per-instance probabilities derived
from the same :class:`~repro.gpu.profiles.ExecutionTuning` knobs the
operational executor consumes, per mechanism:

* ``INTERLEAVING`` scales with scheduler granularity (1/chunk) and
  write-visibility latency;
* ``WEAK_REORDER`` scales with the reorder probability and store-buffer
  retention;
* ``PARTIAL_SYNC`` is ``WEAK_REORDER`` damped by the profile's
  ``partial_sync_leak`` (one fence still suppresses most weakness);
* ``BUG_ONLY`` is zero unless a matching injected bug opens a channel.

A deterministic per-(environment, test, device) *response jitter*
models the unmodelled microarchitectural interactions that keep
real-world mutant/bug correlations below 1.0 (Table 4); it is seeded,
so runs reproduce exactly.  ``tests/gpu/test_consistency.py`` checks
that the closed forms and the operational executor agree directionally
(more stress → more weak outcomes; fences suppress; chunk size hurts
interleavings).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.gpu.bugs import BugSet, NO_BUGS
from repro.gpu.characteristics import (
    Mechanism,
    TestCharacteristics,
    characterize,
)
from repro.gpu.profiles import DeviceProfile, ExecutionTuning
from repro.litmus.program import LitmusTest

#: Mechanism-specific jitter strength (log-normal sigma).  Ordered so
#: that the Table 4 correlations come out strongest for the
#: interleaving channel and weakest for the coherence channel.
JITTER_SIGMA = {
    Mechanism.INTERLEAVING: 0.02,
    Mechanism.PARTIAL_SYNC: 0.15,
    Mechanism.WEAK_REORDER: 0.30,
    Mechanism.BUG_ONLY: 0.10,
}

#: Observer-thread witnesses additionally require the observer to catch
#: the coherence window; roughly one order of magnitude of extra luck.
OBSERVER_BASE_FACTOR = 0.08

#: Per-instance probabilities dilute as instances share the memory
#: system: each instance's racy window shrinks when thousands of
#: instances are in flight.  For large N the per-iteration kill count
#: approaches a device-dependent plateau, which is why PTE's advantage
#: over SITE settles around the dispatch-amortisation factor (~2000×,
#: Sec. 5.2.1) rather than growing without bound.
INSTANCE_DILUTION_SCALE = 20_000.0
INSTANCE_DILUTION_EXPONENT = 0.2

#: A stress campaign aimed at a *single* test instance concentrates
#: every stressing workgroup on that instance's cache lines; spread
#: over thousands of instances the same stress is diffuse.  This focus
#: bonus is what lets hyper-tuned SITE environments reach per-instance
#: probabilities PTE instances never see (and why SITE remains
#: competitive on stress-responsive devices like Intel, Sec. 5.2.2).
SINGLE_INSTANCE_FOCUS = 4.0


def stress_focus(stress: float, instances: int) -> float:
    """Multiplier for stress concentrated on few instances."""
    return 1.0 + SINGLE_INSTANCE_FOCUS * stress / float(instances) ** 0.5


#: Global scale factors aligning the closed forms with the operational
#: executor's empirical ranges.
INTERLEAVING_SCALE = 0.06
WEAK_REORDER_SCALE = 0.01


def instance_dilution(instances: int) -> float:
    """Per-instance probability multiplier at a given parallelism."""
    if instances < 1:
        raise ValueError("instances must be >= 1")
    return float(
        (1.0 + instances / INSTANCE_DILUTION_SCALE)
        ** -INSTANCE_DILUTION_EXPONENT
    )


def jitter_draw(env_key: int, test_name: str, device_name: str) -> float:
    """The standard-normal draw behind :func:`response_jitter`, seeded
    by the (env, test, device) triple."""
    digest = hashlib.sha256(
        f"{env_key}|{test_name}|{device_name}".encode()
    ).digest()
    seed = int.from_bytes(digest[:8], "big")
    return float(np.random.default_rng(seed).standard_normal())


def response_jitter(
    env_key: int,
    test_name: str,
    device_name: str,
    sigma: float,
) -> float:
    """Deterministic log-normal multiplier for (env, test, device).

    Models device-specific sensitivities the tuning knobs do not
    capture; the same triple always produces the same factor.  numpy's
    ``normal(0, sigma)`` is exactly ``sigma * standard_normal()`` for
    the same stream, so one draw serves every sigma.
    """
    if sigma <= 0.0:
        return 1.0
    return float(np.exp(sigma * jitter_draw(env_key, test_name, device_name)))


def interleaving_probability(tuning: ExecutionTuning) -> float:
    """P(remote event lands between two local ones, visibly).

    The scheduler switches threads between chunks, so the chance of a
    switch exactly between two adjacent local ops falls off with the
    square of the chunk size; the remote write must additionally become
    visible inside the gap, which improves with flush pressure.
    """
    switch = (1.0 / (1.0 + 0.5 * tuning.chunk_mean)) ** 2
    visibility = 0.3 + 0.7 * tuning.flush_probability
    return min(1.0, INTERLEAVING_SCALE * switch * visibility)


def weak_reorder_probability(tuning: ExecutionTuning) -> float:
    """P(a genuine weak-memory reordering is produced and observed).

    Two additive channels, matching the executor: issue-order swaps
    (reorder probability) and out-of-order store-buffer drain (which
    grows as flush pressure drops, i.e. stores linger).
    """
    reorder_channel = tuning.reorder_probability
    buffering_channel = (
        0.5 * tuning.reorder_probability * (1.0 - tuning.flush_probability)
    )
    observation = 0.25 + 0.75 * (1.0 / (1.0 + 0.25 * tuning.chunk_mean))
    return min(
        1.0,
        WEAK_REORDER_SCALE
        * (reorder_channel + buffering_channel)
        * observation,
    )


def observer_factor(tuning: ExecutionTuning) -> float:
    """Extra factor when the witness needs observer-thread luck."""
    return min(
        1.0, OBSERVER_BASE_FACTOR + 0.15 / (1.0 + tuning.chunk_mean)
    )


def mechanism_probability(
    profile: DeviceProfile,
    tuning: ExecutionTuning,
    characteristics: TestCharacteristics,
) -> float:
    """Per-instance target probability before bug channels and jitter."""
    mechanism = characteristics.mechanism
    if mechanism is Mechanism.BUG_ONLY:
        return 0.0
    if mechanism in profile.suppressed_mechanisms:
        # Sec. 3.4: the specification is more permissive than this
        # implementation; the behaviour simply never occurs.
        return 0.0
    if characteristics.needs_observer_luck and (
        profile.suppresses_observer_witness
    ):
        return 0.0
    if mechanism is Mechanism.INTERLEAVING:
        # A device's interleaving appetite only materialises once the
        # memory system is busy: an idle NVIDIA behaves like anything
        # else (SITE-baseline observes interleavings on one device
        # only, Sec. 3.1), while under pressure the gains diverge by
        # orders of magnitude (Fig. 5b).
        effective_gain = 1.0 + (
            profile.interleave_gain - 1.0
        ) * tuning.contention
        probability = interleaving_probability(tuning) * effective_gain
    elif mechanism is Mechanism.WEAK_REORDER:
        probability = weak_reorder_probability(tuning)
    else:  # PARTIAL_SYNC
        probability = (
            weak_reorder_probability(tuning) * profile.partial_sync_leak
        )
        if profile.partial_sync_requires_stress:
            probability *= min(1.0, 2.0 * tuning.stress)
    probability *= characteristics.difficulty
    if characteristics.needs_observer_luck:
        probability *= observer_factor(tuning)
    return min(1.0, probability)


def bug_probability(
    profile: DeviceProfile,
    tuning: ExecutionTuning,
    characteristics: TestCharacteristics,
    bugs: BugSet,
) -> float:
    """Per-instance probability that a bug channel produces the target.

    Each injected bug opens the channel matching its root cause:

    * fence dropping makes a fenced test behave like its
      drop-both-fences mutant (weak reordering);
    * load-load swapping exposes adjacent same-location load pairs,
      still requiring the interleaving window;
    * stale cache reads expose backwards-in-coherence read pairs.
    """
    if len(bugs) == 0:
        return 0.0
    probability = 0.0
    if bugs.drops_fences and characteristics.uses_fences:
        probability = max(
            probability,
            weak_reorder_probability(tuning) * characteristics.difficulty,
        )
    swap = bugs.load_load_swap_probability()
    if swap > 0.0 and characteristics.has_adjacent_same_location_loads:
        probability = max(
            probability,
            swap
            * interleaving_probability(tuning)
            * characteristics.difficulty,
        )
    stale = bugs.stale_read_probability(tuning)
    if stale > 0.0 and characteristics.has_stale_read_pattern:
        window = 0.2 + 0.8 * tuning.flush_probability
        probability = max(
            probability, stale * window * characteristics.difficulty
        )
    return min(1.0, probability)


def unit_probability(
    profile: DeviceProfile,
    bugs: BugSet,
    tuning: ExecutionTuning,
    characteristics: TestCharacteristics,
    instances: int,
    jitter: Callable[[float], float],
) -> float:
    """The per-instance probability of one unit, from characteristics.

    The scalar composition of the closed forms — mechanism and bug
    channels, instance dilution, stress focus, response jitter — and
    the reference the whole-grid program
    (:mod:`repro.backends.program`) reproduces bit for bit.
    ``jitter(sigma)`` returns the
    unit's response-jitter factor for the mechanism's sigma; it is
    only called for units with a non-zero base probability.
    """
    probability = mechanism_probability(profile, tuning, characteristics)
    probability = max(
        probability,
        bug_probability(profile, tuning, characteristics, bugs),
    )
    if probability <= 0.0:
        return 0.0
    factor = jitter(JITTER_SIGMA[characteristics.mechanism])
    probability *= instance_dilution(instances)
    probability *= stress_focus(tuning.stress, instances)
    return float(min(1.0, probability * factor))


@dataclass(frozen=True)
class BatchModel:
    """Per-instance probability model for one device configuration."""

    profile: DeviceProfile
    bugs: BugSet = NO_BUGS

    def instance_probability(
        self,
        test: LitmusTest,
        tuning: ExecutionTuning,
        env_key: int = 0,
        instances: int = 1,
    ) -> float:
        """P(one instance shows the target behaviour) for this device.

        For mutants this is the per-instance kill probability; for
        conformance tests it is the per-instance violation probability
        (zero on a bug-free device).  ``instances`` is the parallelism
        the instance runs at — see :func:`instance_dilution`.
        """
        return unit_probability(
            self.profile,
            self.bugs,
            tuning,
            characterize(test),
            instances,
            lambda sigma: response_jitter(
                env_key, test.name, self.profile.short_name, sigma
            ),
        )

    def sample_kills(
        self,
        test: LitmusTest,
        tuning: ExecutionTuning,
        instances: int,
        iterations: int,
        rng: np.random.Generator,
        env_key: int = 0,
    ) -> np.ndarray:
        """Kills per iteration, sampled binomially.

        Returns an ``iterations``-length integer array.
        """
        if instances < 0 or iterations < 0:
            raise ValueError("instances and iterations must be >= 0")
        probability = self.instance_probability(
            test, tuning, env_key, instances=max(1, instances)
        )
        if probability == 0.0 or instances == 0 or iterations == 0:
            return np.zeros(iterations, dtype=np.int64)
        return rng.binomial(instances, probability, size=iterations)
