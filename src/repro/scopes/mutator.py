"""A fourth mutator: weakening barrier *scope*.

The paper's mutators disrupt ``po-loc`` and ``sw``; once the execution
hierarchy exists there is a new syntactic edge to disrupt — the *scope*
of a synchronizing barrier. A plausible implementation bug compiles a
``storageBarrier()`` as if it were a ``workgroupBarrier()`` (ordering
only within the workgroup); for threads in different workgroups that
deletes the synchronization exactly like the paper's fence-removal
bugs, while remaining a one-token change to the program text.

``WeakeningScopeMutator`` takes the weakening-``sw`` conformance
programs, places their threads in different workgroups, and generates
mutants by downgrading one or both storage barriers to workgroup
scope. All tests are verified against the scoped oracle: conformance
targets disallowed, mutant targets allowed — the same guarantee the
core suite enjoys.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import MutationError
from repro.litmus.instructions import Fence, Instruction
from repro.litmus.oracle import oracle_for
from repro.litmus.program import LitmusTest
from repro.mutation.mutators import (
    MutationPair,
    MutatorKind,
    WeakeningSwMutator,
)
from repro.scopes.instructions import BarrierScope, ControlBarrier
from repro.scopes.model import scoped_model
from repro.scopes.placement import Placement

#: Which barriers a mutant downgrades, as (suffix, thread indices).
SCOPE_DROPS: Tuple[Tuple[str, frozenset], ...] = (
    ("s0", frozenset({0})),
    ("s1", frozenset({1})),
    ("s01", frozenset({0, 1})),
)


class WeakeningScopeMutator:
    """Generate scoped conformance tests and scope-downgrade mutants."""

    kind = MutatorKind.WEAKENING_SW  # the same cycle family
    title = "Weakening scope"

    def __init__(self) -> None:
        self._base = WeakeningSwMutator()

    # -- program rewriting ---------------------------------------------------

    @staticmethod
    def _with_barrier_scopes(
        test: LitmusTest, downgraded: frozenset
    ) -> List[List[Instruction]]:
        """Replace fences with explicitly scoped control barriers."""
        threads: List[List[Instruction]] = []
        for index, thread in enumerate(test.threads):
            rewritten: List[Instruction] = []
            for instruction in thread:
                if isinstance(instruction, Fence):
                    scope = (
                        BarrierScope.WORKGROUP
                        if index in downgraded
                        else BarrierScope.STORAGE
                    )
                    rewritten.append(ControlBarrier(scope))
                else:
                    rewritten.append(instruction)
            threads.append(rewritten)
        return threads

    def _scoped(
        self,
        source: LitmusTest,
        placement: Placement,
        downgraded: frozenset,
        name: str,
        expect_allowed: bool,
        description: str,
    ) -> LitmusTest:
        threads = self._with_barrier_scopes(source, downgraded)
        test = LitmusTest(
            name=name,
            threads=threads,
            model=scoped_model(threads, placement),
            target=source.target,
            observer_threads=sorted(source.observer_threads),
            description=description,
        )
        if oracle_for(test).target_allowed() != expect_allowed:
            expectation = "allowed" if expect_allowed else "disallowed"
            raise MutationError(
                f"scoped test {name!r}: target should be {expectation}"
            )
        return test

    # -- generation ------------------------------------------------------------

    def generate(self) -> List[MutationPair]:
        """Verified (conformance, mutants) pairs for the scope mutator.

        One pair per weakening-``sw`` shape, threads placed in separate
        workgroups (the paper's setting); three mutants each.
        """
        pairs: List[MutationPair] = []
        for base_pair in self._base.generate():
            source = base_pair.conformance
            placement = Placement.all_separate(source.thread_count)
            conformance = self._scoped(
                source,
                placement,
                downgraded=frozenset(),
                name=f"{source.name}_scoped",
                expect_allowed=False,
                description=(
                    f"{base_pair.alias}: storage barriers across "
                    f"workgroups"
                ),
            )
            mutants = []
            for suffix, downgraded in SCOPE_DROPS:
                mutants.append(
                    self._scoped(
                        source,
                        placement,
                        downgraded=downgraded,
                        name=f"{source.name}_scoped_mut_{suffix}",
                        expect_allowed=True,
                        description=(
                            f"{base_pair.alias} mutant: barrier(s) "
                            f"{sorted(downgraded)} downgraded to "
                            f"workgroup scope"
                        ),
                    )
                )
            pairs.append(
                MutationPair(
                    mutator=self.kind,
                    conformance=conformance,
                    mutants=tuple(mutants),
                    alias=f"{base_pair.alias}-scope",
                )
            )
        return pairs
