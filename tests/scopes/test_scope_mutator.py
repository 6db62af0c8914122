"""Tests for the scope-weakening mutator (the fourth mutator)."""

import pytest

from repro.litmus import TestOracle
from repro.scopes import BarrierScope, ControlBarrier, Placement
from repro.scopes.mutator import SCOPE_DROPS, WeakeningScopeMutator


@pytest.fixture(scope="module")
def pairs():
    return WeakeningScopeMutator().generate()


class TestGeneration:
    def test_six_pairs_of_three(self, pairs):
        assert len(pairs) == 6
        assert all(len(pair.mutants) == 3 for pair in pairs)

    def test_aliases(self, pairs):
        aliases = {pair.alias for pair in pairs}
        assert aliases == {
            "MP-scope", "LB-scope", "S-scope",
            "SB-scope", "R-scope", "2+2W-scope",
        }

    def test_conformance_uses_storage_barriers(self, pairs):
        for pair in pairs:
            barriers = [
                instruction
                for thread in pair.conformance.threads
                for instruction in thread
                if isinstance(instruction, ControlBarrier)
            ]
            assert barriers
            assert all(
                barrier.scope is BarrierScope.STORAGE
                for barrier in barriers
            )

    def test_mutants_downgrade_expected_threads(self, pairs):
        for pair in pairs:
            for mutant, (suffix, downgraded) in zip(
                pair.mutants, SCOPE_DROPS
            ):
                assert mutant.name.endswith(suffix)
                for index, thread in enumerate(mutant.threads):
                    for instruction in thread:
                        if isinstance(instruction, ControlBarrier):
                            expected = (
                                BarrierScope.WORKGROUP
                                if index in downgraded
                                else BarrierScope.STORAGE
                            )
                            assert instruction.scope is expected

    def test_spec_preserved(self, pairs):
        for pair in pairs:
            for mutant in pair.mutants:
                assert mutant.target == pair.conformance.target


class TestVerification:
    def test_conformance_targets_disallowed(self, pairs):
        for pair in pairs:
            assert not TestOracle(pair.conformance).target_allowed()

    def test_mutant_targets_allowed(self, pairs):
        """Downgrading even one barrier to workgroup scope across
        workgroups deletes the synchronization — the behaviour becomes
        allowed, oracle-verified."""
        for pair in pairs:
            for mutant in pair.mutants:
                assert TestOracle(mutant).target_allowed(), mutant.name

    def test_same_workgroup_placement_would_keep_sync(self, pairs):
        """Control: with the threads in ONE workgroup, the downgraded
        barrier still synchronizes, so the mutant behaviour stays
        disallowed — scope only matters across workgroups."""
        from repro.scopes.model import scoped_model
        from repro.litmus import LitmusTest

        pair = next(p for p in pairs if p.alias == "MP-scope")
        mutant = pair.mutants[2]  # both barriers downgraded
        placement = Placement.all_together(mutant.thread_count)
        rehomed = LitmusTest(
            name=mutant.name + "_samewg",
            threads=mutant.threads,
            model=scoped_model(mutant.threads, placement),
            target=mutant.target,
        )
        assert not TestOracle(rehomed).target_allowed()


class TestScopedSuiteIntegration:
    """The scope mutants run through the standard analytic pipeline."""

    def test_scope_mutants_evaluable_by_runner(self, pairs):
        from repro.env import Runner, pte_baseline
        from repro.gpu import make_device

        runner = Runner(iterations_override=50)
        device = make_device("amd")
        killed = 0
        for pair in pairs:
            for mutant in pair.mutants:
                run = runner.run(device, mutant, pte_baseline(), seed=1)
                killed += run.killed
        # The downgraded-barrier programs still carry fences, so the
        # batch model treats them as partial-sync mutants; on AMD
        # (stress-gated) the unstressed baseline misses them, which is
        # itself the correct physics — with stress they die.
        from repro.env import EnvironmentKind, random_environments

        stressed = random_environments(EnvironmentKind.PTE, 10, seed=2)
        for environment in stressed:
            run = runner.run(
                device, pairs[0].mutants[2], environment, seed=2
            )
            killed += run.killed
        assert killed > 0
