"""Operational executor tests, including the headline soundness sweep."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.gpu import (
    BugSet,
    ExecutionTuning,
    compile_test,
    run_instance,
)
from repro.gpu.executor import Op, OpKind, _chunk_size, reorder_pass
from repro.litmus import TestOracle, library
from repro.memory_model import X, Y
from repro.mutation import default_suite

SUITE = default_suite()

RELAXED = ExecutionTuning(
    reorder_probability=0.3,
    flush_probability=0.4,
    chunk_mean=1.5,
    contention=0.8,
)
STRICT = ExecutionTuning(
    reorder_probability=0.0,
    flush_probability=1.0,
    chunk_mean=32.0,
    contention=0.0,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCompile:
    def test_op_per_instruction(self):
        ops = compile_test(library.mp_relacq())
        assert [op.kind for op in ops[0]] == [
            OpKind.STORE,
            OpKind.FENCE,
            OpKind.STORE,
        ]
        assert [op.kind for op in ops[1]] == [
            OpKind.LOAD,
            OpKind.FENCE,
            OpKind.LOAD,
        ]

    def test_rmw_compiled(self):
        ops = compile_test(library.corr_rmw())
        assert ops[0][1].kind is OpKind.RMW
        assert ops[0][1].value == 1
        assert ops[0][1].register == "r1"

    def test_fence_dropping_bug(self):
        from repro.gpu import AMD_MP_RELACQ

        ops = compile_test(library.mp_relacq(), BugSet([AMD_MP_RELACQ]))
        assert all(
            op.kind is not OpKind.FENCE for thread in ops for op in thread
        )


class TestReorderPass:
    def test_zero_probability_is_identity(self):
        ops = compile_test(library.mp())
        reordered = reorder_pass(ops, STRICT, rng())
        assert [
            (o.kind, o.location) for t in reordered for o in t
        ] == [(o.kind, o.location) for t in ops for o in t]

    def test_fences_never_move(self):
        ops = compile_test(library.mp_relacq())
        always = ExecutionTuning(1.0, 0.5, 1.0, 0.5)
        for seed in range(20):
            reordered = reorder_pass(ops, always, rng(seed))
            for thread in reordered:
                kinds = [op.kind for op in thread]
                if OpKind.FENCE in kinds:
                    assert kinds.index(OpKind.FENCE) == 1

    def test_same_location_never_swapped_without_bug(self):
        ops = compile_test(library.corr())
        always = ExecutionTuning(1.0, 0.5, 1.0, 0.5)
        for seed in range(20):
            reordered = reorder_pass(ops, always, rng(seed))
            registers = [
                op.register
                for op in reordered[0]
                if op.kind is OpKind.LOAD
            ]
            assert registers == ["r0", "r1"]

    def test_different_locations_do_swap(self):
        ops = compile_test(library.mp())
        always = ExecutionTuning(1.0, 0.5, 1.0, 0.5)
        reordered = reorder_pass(ops, always, rng(1), passes=1)
        locations = [op.location for op in reordered[0]]
        assert locations == [Y, X]

    def test_corr_bug_swaps_same_location_loads(self):
        from repro.gpu import INTEL_CORR

        ops = compile_test(library.corr())
        bugs = BugSet([INTEL_CORR])
        swapped = 0
        for seed in range(300):
            reordered = reorder_pass(ops, STRICT, rng(seed), bugs)
            registers = [
                op.register
                for op in reordered[0]
                if op.kind is OpKind.LOAD
            ]
            if registers == ["r1", "r0"]:
                swapped += 1
        # swap_probability is 0.35 over two passes.
        assert 80 < swapped < 250


class TestSoundness:
    """The load-bearing property: without bugs, the executor only
    produces outcomes that some allowed candidate execution explains."""

    @pytest.mark.parametrize(
        "test",
        SUITE.conformance_tests + SUITE.mutants,
        ids=lambda t: t.name,
    )
    def test_suite_outcomes_always_legal(self, test):
        oracle = TestOracle(test)
        generator = rng(hash(test.name) % 2**32)
        for _ in range(60):
            outcome = run_instance(test, RELAXED, generator)
            assert not oracle.is_violation(outcome), outcome.describe()

    @pytest.mark.parametrize(
        "name", library.test_names(), ids=str
    )
    def test_library_outcomes_always_legal(self, name):
        test = library.by_name(name)
        oracle = TestOracle(test)
        generator = rng(hash(name) % 2**32)
        for _ in range(60):
            outcome = run_instance(test, RELAXED, generator)
            assert not oracle.is_violation(outcome), outcome.describe()

    @given(
        reorder=st.floats(0.0, 1.0),
        flush=st.floats(0.05, 1.0),
        chunk=st.floats(1.0, 32.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_mp_relacq_never_violates_across_tunings(
        self, reorder, flush, chunk, seed
    ):
        """Fig. 1b's disallowed behaviour is unobservable on a
        conforming device under *any* tuning."""
        test = library.mp_relacq()
        oracle = TestOracle(test)
        tuning = ExecutionTuning(reorder, flush, chunk, 0.5)
        generator = rng(seed)
        for _ in range(10):
            outcome = run_instance(test, tuning, generator)
            assert not oracle.is_violation(outcome)

    @given(
        reorder=st.floats(0.0, 1.0),
        flush=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_corr_never_violates_across_tunings(self, reorder, flush, seed):
        test = library.corr()
        oracle = TestOracle(test)
        tuning = ExecutionTuning(reorder, flush, 1.0, 0.5)
        generator = rng(seed)
        for _ in range(10):
            outcome = run_instance(test, tuning, generator)
            assert not oracle.is_violation(outcome)


class TestWeakBehaviours:
    """The executor must also *produce* the allowed weak behaviours."""

    def count_kills(self, test, tuning, n=400, seed=5):
        oracle = TestOracle(test)
        generator = rng(seed)
        return sum(
            oracle.matches_target(run_instance(test, tuning, generator))
            for _ in range(n)
        )

    def test_store_buffering_observable(self):
        assert self.count_kills(library.sb(), RELAXED) > 50

    def test_message_passing_weakness_observable(self):
        assert self.count_kills(library.mp(), RELAXED) > 10

    def test_reversed_corr_interleaving_observable(self):
        mutant = SUITE.find("rev_poloc_rr_w_mut")
        assert self.count_kills(mutant, RELAXED) > 3

    def test_strict_tuning_suppresses_weakness(self):
        weak = self.count_kills(library.mp(), RELAXED)
        strong = self.count_kills(library.mp(), STRICT)
        assert strong < weak

    def test_fences_suppress_weakness(self):
        """Same tuning: MP with fences shows no weak outcomes, the
        drop-both mutant shows plenty."""
        fenced = SUITE.find_by_alias("MP").conformance
        unfenced = SUITE.find("weak_sw_ww_rr_mut_f01")
        oracle = TestOracle(fenced)
        generator = rng(11)
        violations = sum(
            oracle.is_violation(run_instance(fenced, RELAXED, generator))
            for _ in range(300)
        )
        assert violations == 0
        assert self.count_kills(unfenced, RELAXED) > 10

    def test_every_mutant_killable_under_pressure(self):
        """Sec. 5.2: most mutant behaviour is observable.  Under an
        aggressive tuning every mutant dies at least once in 3000
        instances — our simulated devices can observe all 32."""
        pressure = ExecutionTuning(0.35, 0.35, 1.0, 0.9)
        for _, mutant in SUITE.mutant_pairs():
            oracle = TestOracle(mutant)
            generator = rng(hash(mutant.name) % 2**32)
            killed = any(
                oracle.matches_target(
                    run_instance(mutant, pressure, generator)
                )
                for _ in range(3000)
            )
            assert killed, mutant.name


class TestExecutorInternals:
    def test_outcome_covers_all_registers_and_locations(self):
        test = library.sb_relacq_rmw()
        outcome = run_instance(test, STRICT, rng())
        assert set(outcome.reads) == set(test.registers)
        assert set(outcome.finals) == set(test.locations)

    def test_strict_tuning_gives_sc_outcomes(self):
        test = library.mp()
        oracle = TestOracle(test)
        generator = rng(2)
        for _ in range(100):
            outcome = run_instance(test, STRICT, generator)
            assert not oracle.matches_target(outcome)

    def test_chunk_size_at_least_one(self):
        generator = rng()
        assert all(_chunk_size(STRICT, generator) >= 1 for _ in range(50))

    def test_deterministic_given_seed(self):
        test = library.mp()
        first = run_instance(test, RELAXED, rng(99))
        second = run_instance(test, RELAXED, rng(99))
        assert first == second
