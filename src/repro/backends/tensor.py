"""The tensor backend: the grid program with batched sampling.

Probabilities, instance counts and simulated seconds come from the
shared grid program (:mod:`repro.backends.program`), exactly as for
``analytic``; only the kill sampler differs.  ``analytic`` draws
``iterations`` binomials from one ``Generator`` per unit;
constructing those 19k+ generators costs more than this sampler
spends on the whole grid.  Instead each unit's kills are one draw
from Binomial(instances · iterations, p) — the same distribution as
the summed per-iteration draws — fed by counter-based SplitMix64
streams keyed on the *same* unit identity ``(seed, env_key,
crc32(device), crc32(test))`` that
:func:`repro.env.runner.unit_seed_sequence` hashes.  Results are
therefore still worker-count- and grid-traversal-independent, and a
fixed seed reproduces exactly; only the analytic stream's literal
bits are not replayed.  That is the ``"statistical"`` equivalence
contract (:data:`repro.backends.base.EQUIVALENCE_CONTRACTS`).
Because a unit's words come from its identity alone, a single unit —
``Runner.run``, a 1×1×1 ``run_grid`` — draws exactly its cell of any
larger grid with the same seed.

Small-mean units (the vast majority: ~half the grid has probability
zero) sample by exact CDF inversion of the binomial pmf recurrence;
large-mean units use the normal approximation with continuity
correction, whose error at the cutoff is far below the jitter the
model itself injects.

``benchmarks/bench_tensor_speedup.py`` asserts the speedup target
(≥10x over the warm analytic ``run_matrix`` on the full Figure 5
grid); ``python -m repro.backends`` asserts the statistical contract
and sub-grid determinism.
"""

from __future__ import annotations

import numpy as np

from repro.backends.program import GridProgram, ProgramBackend
from repro.backends.registry import register

#: Units whose expected kills are at most this sample by exact CDF
#: inversion; above it the continuity-corrected normal approximation
#: is indistinguishable at the model's own jitter scale.
SMALL_MEAN_CUTOFF = 32.0
#: Hard ceiling on inversion steps; P(X > 256 | mean <= 32) < 1e-60,
#: so the cap is unreachable in practice and only bounds the loop.
_MAX_INVERSION_STEPS = 256

# -- counter-based per-unit streams -------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SALT_A = np.uint64(0xA5A5A5A5A5A5A5A5)
_SALT_B = np.uint64(0xC3C3C3C3C3C3C3C3)
_U64_MASK = (1 << 64) - 1


def _mix64(value: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer: full-avalanche 64-bit mixing."""
    value = (value ^ (value >> np.uint64(30))) * _MIX_1
    value = (value ^ (value >> np.uint64(27))) * _MIX_2
    return value ^ (value >> np.uint64(31))


def _unit_words(
    seed: int,
    env_keys: np.ndarray,
    device_hashes: np.ndarray,
    test_hashes: np.ndarray,
) -> np.ndarray:
    """One mixed 64-bit word per unit, shape (E, D, T).

    Derived from the same identity tuple as
    :func:`repro.env.runner.unit_seed_sequence`: the campaign seed,
    the env key, and the CRC32 name hashes.  Purely positional inputs
    never enter, so the value is traversal- and worker-independent.
    """
    with np.errstate(over="ignore"):
        low = np.uint64(seed & _U64_MASK)
        high = np.uint64((seed >> 64) & _U64_MASK)
        base = _mix64((low + _GOLDEN) ^ _mix64(high + _GOLDEN))
        words = _mix64(base ^ (env_keys + _GOLDEN))
        words = _mix64(words[:, None] ^ (device_hashes + _GOLDEN))
        words = _mix64(words[:, :, None] ^ (test_hashes + _GOLDEN))
    return words


def _uniforms(words: np.ndarray, salt: np.uint64) -> np.ndarray:
    """A uniform draw in the open interval (0, 1) per word."""
    with np.errstate(over="ignore"):
        mixed = _mix64(words ^ salt)
    return ((mixed >> np.uint64(11)).astype(np.float64) + 0.5) * (
        2.0 ** -53
    )


def _binomial_kills(
    counts: np.ndarray,
    probabilities: np.ndarray,
    uniform_a: np.ndarray,
    uniform_b: np.ndarray,
) -> np.ndarray:
    """Batched Binomial(counts, probabilities) draws from unit uniforms.

    Hybrid sampler over flat arrays: exact CDF inversion (one uniform)
    where the mean is small, continuity-corrected normal approximation
    via Box-Muller (both uniforms) where it is large.  Zero-probability
    units produce exactly zero kills, matching the analytic no-draw
    shortcut.
    """
    kills = np.zeros(counts.shape, dtype=np.int64)
    totals = counts.astype(np.float64)
    means = totals * probabilities
    live = (probabilities > 0.0) & (counts > 0)
    certain = live & (probabilities >= 1.0)
    kills[certain] = counts[certain]
    live &= ~certain
    small = live & (means <= SMALL_MEAN_CUTOFF)
    large = live & ~small
    if large.any():
        mean = means[large]
        sd = np.sqrt(mean * (1.0 - probabilities[large]))
        z = np.sqrt(-2.0 * np.log(uniform_a[large])) * np.cos(
            2.0 * np.pi * uniform_b[large]
        )
        approx = np.floor(mean + sd * z + 0.5)
        kills[large] = np.clip(approx, 0.0, totals[large]).astype(
            np.int64
        )
    if small.any():
        n = totals[small]
        p = probabilities[small]
        u = uniform_a[small]
        # pmf(0) via log1p keeps precision for tiny probabilities.
        pmf = np.exp(n * np.log1p(-p))
        cdf = pmf.copy()
        ratio = p / (1.0 - p)
        drawn = np.zeros(n.shape, dtype=np.int64)
        active = cdf < u
        step = 0
        while active.any() and step < _MAX_INVERSION_STEPS:
            drawn[active] += 1
            step += 1
            # pmf(k) = pmf(k-1) * (n-k+1)/k * p/(1-p); zeroing retired
            # lanes keeps the recurrence finite past k > n.
            pmf *= active * ((n - (step - 1)) / step) * ratio
            cdf += pmf
            active &= cdf < u
        kills[small] = np.minimum(drawn, totals[small].astype(np.int64))
    return kills


@register
class TensorAnalyticBackend(ProgramBackend):
    """The grid program with batched counter-based sampling.

    Probabilities, instance counts, and simulated seconds are bitwise
    equal to the analytic reference (the same compiled program); kill
    counts are statistically equivalent (same distributions,
    independent seeded streams) — the ``"statistical"`` contract,
    checked by
    :func:`repro.backends.validate.validate_statistical_equivalence`.
    """

    name = "tensor"
    option_names = frozenset()
    version = 1
    equivalence = "statistical"

    def sample(self, program: GridProgram, seed: int) -> np.ndarray:
        """One Binomial(instances · iterations, p) draw per unit, fed
        by the unit's SplitMix64 words."""
        shape = program.shape
        words = _unit_words(
            seed,
            program.env_keys,
            program.device_hashes,
            program.test_hashes,
        )
        totals = np.broadcast_to(
            (program.instances * program.iterations)[:, None, None], shape
        ).reshape(-1)
        kills = _binomial_kills(
            totals,
            program.probabilities.reshape(-1),
            _uniforms(words, _SALT_A).reshape(-1),
            _uniforms(words, _SALT_B).reshape(-1),
        )
        return kills.reshape(shape)
