"""Tests for the experimental execution-hierarchy package."""

import numpy as np
import pytest

from repro.errors import MalformedProgramError
from repro.gpu import ExecutionTuning
from repro.litmus import (
    AtomicLoad,
    AtomicStore,
    BehaviorSpec,
    Fence,
    TestOracle,
)
from repro.memory_model import X, Y
from repro.scopes import (
    BarrierScope,
    ControlBarrier,
    Placement,
    run_scoped_instance,
    scope_of,
    scope_table,
    scoped_model,
    scoped_test,
)

RELAXED = ExecutionTuning(0.3, 0.4, 1.5, 0.8)


def rng(seed=0):
    return np.random.default_rng(seed)


def mp_threads(barrier):
    return [
        [AtomicStore(X, 1), barrier, AtomicStore(Y, 2)],
        [AtomicLoad(Y, "r0"), barrier, AtomicLoad(X, "r1")],
    ]


def mp_scoped(placement, barrier=None):
    barrier = barrier if barrier is not None else ControlBarrier()
    return scoped_test(
        "mp_scoped",
        mp_threads(barrier),
        placement,
        target=BehaviorSpec(reads={"r0": 2, "r1": 0}),
    )


class TestPlacement:
    def test_all_separate(self):
        placement = Placement.all_separate(3)
        assert placement.workgroups == (0, 1, 2)
        assert not placement.same_workgroup(0, 1)

    def test_all_together(self):
        placement = Placement.all_together(3)
        assert placement.same_workgroup(0, 2)
        assert placement.peers(1) == (0, 1, 2)

    def test_mixed(self):
        placement = Placement([0, 0, 1])
        assert placement.same_workgroup(0, 1)
        assert not placement.same_workgroup(0, 2)
        assert placement.peers(2) == (2,)

    def test_validation(self):
        with pytest.raises(MalformedProgramError):
            Placement([])
        with pytest.raises(MalformedProgramError):
            Placement([-1])
        with pytest.raises(MalformedProgramError):
            Placement([0]).workgroup_of(5)

    def test_describe(self):
        assert Placement([0, 1]).describe() == "t0@wg0, t1@wg1"


class TestInstructions:
    def test_scope_of(self):
        assert scope_of(ControlBarrier()) is BarrierScope.WORKGROUP
        assert (
            scope_of(ControlBarrier(BarrierScope.STORAGE))
            is BarrierScope.STORAGE
        )
        assert scope_of(Fence()) is BarrierScope.STORAGE

    def test_scope_of_non_barrier(self):
        with pytest.raises(TypeError):
            scope_of(AtomicStore(X, 1))

    def test_pretty(self):
        assert ControlBarrier().pretty() == "workgroupBarrier()"
        assert (
            ControlBarrier(BarrierScope.STORAGE).pretty()
            == "storageBarrier()"
        )

    def test_is_fence_for_core_machinery(self):
        barrier = ControlBarrier()
        assert not barrier.is_memory_access
        assert not barrier.reads and not barrier.writes

    def test_scope_table(self):
        table = scope_table(mp_threads(ControlBarrier()))
        assert table == {
            1: BarrierScope.WORKGROUP,
            4: BarrierScope.WORKGROUP,
        }


class TestScopedModel:
    def test_same_workgroup_forbids_weak_mp(self):
        test = mp_scoped(Placement.all_together(2))
        assert not TestOracle(test).target_allowed()

    def test_cross_workgroup_allows_weak_mp(self):
        """A workgroup barrier does not synchronize across workgroups
        — the scope distinction the paper's future work needs."""
        test = mp_scoped(Placement.all_separate(2))
        assert TestOracle(test).target_allowed()

    def test_storage_scope_synchronizes_everywhere(self):
        test = mp_scoped(
            Placement.all_separate(2),
            barrier=ControlBarrier(BarrierScope.STORAGE),
        )
        assert not TestOracle(test).target_allowed()

    def test_plain_fence_is_storage_scoped(self):
        test = mp_scoped(Placement.all_separate(2), barrier=Fence())
        assert not TestOracle(test).target_allowed()

    def test_mixed_scopes_take_the_weaker(self):
        threads = [
            [AtomicStore(X, 1), ControlBarrier(BarrierScope.STORAGE),
             AtomicStore(Y, 2)],
            [AtomicLoad(Y, "r0"), ControlBarrier(BarrierScope.WORKGROUP),
             AtomicLoad(X, "r1")],
        ]
        test = scoped_test(
            "mp_mixed",
            threads,
            Placement.all_separate(2),
            target=BehaviorSpec(reads={"r0": 2, "r1": 0}),
        )
        assert TestOracle(test).target_allowed()

    def test_placement_size_checked(self):
        with pytest.raises(MalformedProgramError, match="placement"):
            run_scoped_instance(
                mp_scoped(Placement.all_together(2)),
                Placement([0]),
                RELAXED,
                rng(),
            )


class TestScopedExecutor:
    @pytest.mark.parametrize(
        "placement",
        [Placement.all_together(2), Placement.all_separate(2)],
        ids=["same-wg", "cross-wg"],
    )
    def test_soundness(self, placement):
        test = mp_scoped(placement)
        oracle = TestOracle(test)
        generator = rng(3)
        for _ in range(250):
            outcome = run_scoped_instance(
                test, placement, RELAXED, generator
            )
            assert not oracle.is_violation(outcome), outcome.describe()

    def test_rendezvous_orders_same_workgroup(self):
        """With the rendezvous, the same-workgroup weak outcome never
        appears even under an aggressive tuning."""
        placement = Placement.all_together(2)
        test = mp_scoped(placement)
        oracle = TestOracle(test)
        aggressive = ExecutionTuning(0.5, 0.2, 1.0, 0.9)
        generator = rng(4)
        for _ in range(400):
            outcome = run_scoped_instance(
                test, placement, aggressive, generator
            )
            assert not oracle.matches_target(outcome)

    def test_without_barrier_weakness_returns(self):
        """Control: removing the barrier, the same placement shows the
        weak outcome — the rendezvous is what prevents it."""
        placement = Placement.all_together(2)
        threads = [
            [AtomicStore(X, 1), AtomicStore(Y, 2)],
            [AtomicLoad(Y, "r0"), AtomicLoad(X, "r1")],
        ]
        test = scoped_test(
            "mp_bare",
            threads,
            placement,
            target=BehaviorSpec(reads={"r0": 2, "r1": 0}),
        )
        oracle = TestOracle(test)
        generator = rng(5)
        kills = sum(
            oracle.matches_target(
                run_scoped_instance(test, placement, RELAXED, generator)
            )
            for _ in range(400)
        )
        assert kills > 0

    def test_three_thread_rendezvous(self):
        placement = Placement([0, 0, 0])
        threads = [
            [AtomicStore(X, 1), ControlBarrier()],
            [AtomicStore(Y, 2), ControlBarrier()],
            [ControlBarrier(), AtomicLoad(X, "r0"), AtomicLoad(Y, "r1")],
        ]
        test = scoped_test(
            "rendezvous3",
            threads,
            placement,
            target=BehaviorSpec(reads={"r0": 1, "r1": 2}),
        )
        generator = rng(6)
        # After the barrier, the reader must see both writes.
        for _ in range(150):
            outcome = run_scoped_instance(
                test, placement, RELAXED, generator
            )
            assert outcome.reads == {"r0": 1, "r1": 2}

    def test_non_uniform_barriers_rejected(self):
        placement = Placement.all_together(2)
        threads = [
            [AtomicStore(X, 1), ControlBarrier()],
            [AtomicLoad(X, "r0")],
        ]
        test = scoped_test("broken", threads, placement)
        with pytest.raises(MalformedProgramError, match="non-uniform"):
            run_scoped_instance(test, placement, RELAXED, rng())

    def test_deterministic(self):
        placement = Placement.all_together(2)
        test = mp_scoped(placement)
        first = run_scoped_instance(test, placement, RELAXED, rng(9))
        second = run_scoped_instance(test, placement, RELAXED, rng(9))
        assert first == second


class TestScopedInterop:
    """Scoped barriers interoperate with the core text/WGSL tooling."""

    def test_wgsl_renders_workgroup_barrier(self):
        from repro.litmus import generate_wgsl

        test = mp_scoped(Placement.all_together(2))
        shader = generate_wgsl(test)
        # The test's own barriers lower to workgroupBarrier(); the
        # harness preamble may still use storageBarrier() for its
        # alignment plumbing.
        assert shader.count("workgroupBarrier();") == 2

    def test_textfmt_round_trips_scoped_program(self):
        from repro.litmus.textfmt import format_test, parse

        test = mp_scoped(Placement.all_together(2))
        text = format_test(test)
        assert "workgroupBarrier();" in text
        assert "placement 0 0" in text
        parsed = parse(text)
        assert parsed.threads == test.threads
        assert parsed.target == test.target
        assert parsed.model.placement.workgroups == (0, 0)
        # Legality judgements survive the round trip.
        from repro.litmus import TestOracle

        assert not TestOracle(parsed).target_allowed()
