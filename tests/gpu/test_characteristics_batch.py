"""Tests for test characterisation and the analytic batch model."""

import numpy as np
import pytest

from repro.errors import WitnessError
from repro.gpu import (
    AMD_MP_RELACQ,
    BatchModel,
    BugSet,
    ExecutionTuning,
    INTEL_CORR,
    Mechanism,
    NO_BUGS,
    NVIDIA_KEPLER_MP_CO,
    Workload,
    characterize,
    profile_by_name,
)
from repro.gpu.batch import (
    interleaving_probability,
    response_jitter,
    weak_reorder_probability,
)
from repro.litmus import AtomicLoad, LitmusTest, library
from repro.memory_model import X
from repro.mutation import MutatorKind, default_suite

SUITE = default_suite()

QUIET = ExecutionTuning(0.001, 0.9, 16.0, 0.0)
HOT = ExecutionTuning(0.3, 0.4, 1.5, 0.9, stress=0.7)


class TestCharacterize:
    def test_reversing_poloc_mutants_are_interleaving(self):
        for pair in SUITE.by_mutator(MutatorKind.REVERSING_PO_LOC):
            for mutant in pair.mutants:
                assert (
                    characterize(mutant).mechanism
                    is Mechanism.INTERLEAVING
                )

    def test_weakening_poloc_mutants_are_weak_reorder(self):
        for pair in SUITE.by_mutator(MutatorKind.WEAKENING_PO_LOC):
            for mutant in pair.mutants:
                assert (
                    characterize(mutant).mechanism
                    is Mechanism.WEAK_REORDER
                )

    def test_weakening_sw_mutants_split(self):
        for pair in SUITE.by_mutator(MutatorKind.WEAKENING_SW):
            partial = [m for m in pair.mutants if m.uses_fences]
            full = [m for m in pair.mutants if not m.uses_fences]
            assert len(partial) == 2 and len(full) == 1
            for mutant in partial:
                assert (
                    characterize(mutant).mechanism is Mechanism.PARTIAL_SYNC
                )
            assert (
                characterize(full[0]).mechanism is Mechanism.WEAK_REORDER
            )

    def test_conformance_tests_are_bug_only(self):
        for test in SUITE.conformance_tests:
            assert characterize(test).mechanism is Mechanism.BUG_ONLY

    def test_corr_has_adjacent_same_location_loads(self):
        assert characterize(library.corr()).has_adjacent_same_location_loads

    def test_mp_has_no_adjacent_same_location_loads(self):
        assert not characterize(
            library.mp()
        ).has_adjacent_same_location_loads

    def test_stale_read_pattern_detected(self):
        assert characterize(library.corr()).has_stale_read_pattern
        assert characterize(library.mp_co()).has_stale_read_pattern
        assert not characterize(library.lb()).has_stale_read_pattern

    def test_observer_luck_flag(self):
        coww_mutant = SUITE.find("rev_poloc_ww_w_mut")
        assert characterize(coww_mutant).needs_observer_luck
        assert not characterize(library.mp()).needs_observer_luck

    def test_difficulty_in_range(self):
        for test in SUITE.mutants:
            assert 0.0 < characterize(test).difficulty <= 1.0

    def test_requires_target(self):
        bare = LitmusTest("bare", [[AtomicLoad(X, "r0")]])
        with pytest.raises(WitnessError):
            characterize(bare)


class TestClosedForms:
    def test_interleaving_prefers_fine_chunks(self):
        fine = ExecutionTuning(0.1, 0.5, 1.0, 0.5)
        coarse = ExecutionTuning(0.1, 0.5, 24.0, 0.5)
        assert interleaving_probability(fine) > interleaving_probability(
            coarse
        )

    def test_weak_reorder_tracks_reorder_probability(self):
        low = ExecutionTuning(0.01, 0.5, 4.0, 0.5)
        high = ExecutionTuning(0.3, 0.5, 4.0, 0.5)
        assert weak_reorder_probability(high) > weak_reorder_probability(low)

    def test_probabilities_bounded(self):
        extreme = ExecutionTuning(1.0, 0.05, 1.0, 1.0)
        assert 0.0 <= interleaving_probability(extreme) <= 1.0
        assert 0.0 <= weak_reorder_probability(extreme) <= 1.0

    def test_jitter_deterministic(self):
        first = response_jitter(7, "mp", "AMD", 0.3)
        second = response_jitter(7, "mp", "AMD", 0.3)
        assert first == second

    def test_jitter_varies_by_test(self):
        assert response_jitter(7, "mp", "AMD", 0.3) != response_jitter(
            7, "lb", "AMD", 0.3
        )

    def test_zero_sigma_is_identity(self):
        assert response_jitter(7, "mp", "AMD", 0.0) == 1.0


class TestBatchModel:
    def model(self, name="nvidia", bugs=NO_BUGS):
        return BatchModel(profile_by_name(name), bugs)

    def test_conformance_zero_without_bug(self):
        model = self.model()
        for test in SUITE.conformance_tests:
            assert model.instance_probability(test, HOT) == 0.0

    def test_mutants_positive_under_pressure_on_amd(self):
        """AMD suppresses nothing, so under pressure every mutant
        behaviour has a positive probability there."""
        model = self.model("amd")
        for _, mutant in SUITE.mutant_pairs():
            assert model.instance_probability(mutant, HOT) > 0.0

    def test_device_level_suppression(self):
        """Sec. 3.4 gates: M1 never shows partial-sync weakness, and
        NVIDIA never exposes the observer-witnessed coherence chains."""
        m1 = self.model("m1")
        pair = SUITE.find_by_alias("MP")
        drop_one = next(m for m in pair.mutants if m.uses_fences)
        assert m1.instance_probability(drop_one, HOT) == 0.0
        nvidia = self.model("nvidia")
        coww_mutant = SUITE.find("rev_poloc_ww_w_mut")
        assert nvidia.instance_probability(coww_mutant, HOT) == 0.0

    def test_unobservable_fraction_matches_paper(self):
        """Across the four study devices, most but not all mutant
        behaviours are observable (paper: 83.6%)."""
        from repro.gpu import study_devices

        observable = 0
        total = 0
        for device in study_devices():
            for _, mutant in SUITE.mutant_pairs():
                total += 1
                if device.batch_model.instance_probability(
                    mutant, HOT
                ) > 0.0:
                    observable += 1
        assert 0.75 <= observable / total <= 0.95

    def test_partial_sync_harder_than_full_drop(self):
        model = self.model()
        pair = SUITE.find_by_alias("MP")
        drop_one = next(m for m in pair.mutants if m.uses_fences)
        drop_both = next(m for m in pair.mutants if not m.uses_fences)
        assert model.instance_probability(
            drop_one, HOT
        ) < model.instance_probability(drop_both, HOT)

    def test_intel_bug_channel(self):
        model = self.model("intel", BugSet([INTEL_CORR]))
        assert model.instance_probability(library.corr(), HOT) > 0.0
        assert model.instance_probability(library.mp_relacq(), HOT) == 0.0

    def test_amd_bug_channel(self):
        model = self.model("amd", BugSet([AMD_MP_RELACQ]))
        assert model.instance_probability(library.mp_relacq(), HOT) > 0.0
        assert model.instance_probability(library.corr(), HOT) == 0.0

    def test_kepler_bug_channel(self):
        model = self.model("kepler", BugSet([NVIDIA_KEPLER_MP_CO]))
        assert model.instance_probability(library.mp_co(), HOT) > 0.0
        # A disallowed behaviour without the stale-read shape stays
        # unobservable even with the stale-cache bug present.
        assert model.instance_probability(library.lb_relacq(), HOT) == 0.0

    def test_sample_kills_shape_and_reproducibility(self):
        model = self.model()
        mutant = SUITE.find("rev_poloc_rr_w_mut")
        first = model.sample_kills(
            mutant, HOT, 1000, 20, np.random.default_rng(5)
        )
        second = model.sample_kills(
            mutant, HOT, 1000, 20, np.random.default_rng(5)
        )
        assert first.shape == (20,)
        assert (first == second).all()
        assert first.sum() > 0

    def test_sample_kills_zero_probability(self):
        model = self.model()
        test = SUITE.conformance_tests[0]
        kills = model.sample_kills(
            test, HOT, 1000, 10, np.random.default_rng(0)
        )
        assert kills.sum() == 0

    def test_sample_kills_validation(self):
        model = self.model()
        with pytest.raises(ValueError):
            model.sample_kills(
                SUITE.mutants[0], HOT, -1, 10, np.random.default_rng(0)
            )


class TestOperationalAnalyticConsistency:
    """The analytic model must agree with the operational executor
    *directionally*: the same knob moves both the same way."""

    def operational_rate(self, test, tuning, n=600, seed=17):
        from repro.gpu import run_instance
        from repro.litmus import TestOracle

        oracle = TestOracle(test)
        generator = np.random.default_rng(seed)
        return (
            sum(
                oracle.matches_target(run_instance(test, tuning, generator))
                for _ in range(n)
            )
            / n
        )

    def test_mp_weakness_direction(self):
        model = BatchModel(profile_by_name("amd"))
        test = library.mp()
        assert self.operational_rate(test, HOT) > self.operational_rate(
            test, QUIET
        )
        assert model.instance_probability(
            test, HOT
        ) > model.instance_probability(test, QUIET)

    def test_interleaving_direction(self):
        model = BatchModel(profile_by_name("amd"))
        mutant = SUITE.find("rev_poloc_rr_w_mut")
        fine = ExecutionTuning(0.05, 0.6, 1.0, 0.5)
        coarse = ExecutionTuning(0.05, 0.6, 16.0, 0.5)
        assert self.operational_rate(
            mutant, fine
        ) > self.operational_rate(mutant, coarse)
        assert model.instance_probability(
            mutant, fine
        ) > model.instance_probability(mutant, coarse)

    def test_fence_suppression_direction(self):
        """Both paths agree that a remaining fence suppresses weakness."""
        model = BatchModel(profile_by_name("amd"))
        pair = SUITE.find_by_alias("MP")
        drop_one = next(m for m in pair.mutants if m.uses_fences)
        drop_both = next(m for m in pair.mutants if not m.uses_fences)
        assert self.operational_rate(
            drop_one, HOT
        ) <= self.operational_rate(drop_both, HOT) + 0.02
        assert model.instance_probability(
            drop_one, HOT
        ) < model.instance_probability(drop_both, HOT)


class TestOracleSharing:
    def test_characterize_after_build_suite_hits_oracle_memo(self):
        """Suite construction verifies every test through the one
        oracle memo; characterizing the suite afterwards reuses those
        oracles instead of enumerating a second time."""
        from repro.env import oracle_cache_stats, reset_oracle_cache
        from repro.memo import registered_memos
        from repro.mutation import build_suite

        reset_oracle_cache()
        registered_memos()["characteristics"].clear()
        suite = build_suite()
        built = oracle_cache_stats()
        tests = [*suite.conformance_tests, *suite.mutants]
        assert built.misses >= len(tests)
        for test in tests:
            characterize(test)
        after = oracle_cache_stats()
        assert after.misses == built.misses
        assert after.hits - built.hits == len({t.pretty() for t in tests})
