"""Deriving what it takes to observe a test's target behaviour.

The batch model (:mod:`repro.gpu.batch`) needs to know *which physical
mechanism* a test's target behaviour requires, because that determines
how its probability scales with the tuning knobs:

* ``INTERLEAVING`` — the behaviour is sequentially consistent; it only
  needs a remote event to land between two local ones (the reversing
  po-loc mutants, Sec. 3.1).
* ``WEAK_REORDER`` — the behaviour needs a genuine weak-memory
  reordering with no fences in the way (weakening po-loc mutants and
  drop-both-fences mutants).
* ``PARTIAL_SYNC`` — a weak reordering despite a remaining fence
  (single-fence-dropped mutants of the weakening sw mutator; the
  hardest class, Sec. 5.2.2).
* ``BUG_ONLY`` — the behaviour is disallowed; only an implementation
  bug can produce it (all conformance tests).

The classification is *computed* from the formal model (is the target
allowed under SC? under the test's own model?) rather than tagged by
hand, so it automatically covers hand-written library tests too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from repro.errors import WitnessError
from repro.litmus.instructions import AtomicLoad
from repro.litmus.oracle import oracle_for
from repro.litmus.program import LitmusTest
from repro.memory_model.enumeration import enumerate_executions
from repro.memo import Memo
from repro.memory_model.models import SC


class Mechanism(enum.Enum):
    INTERLEAVING = "interleaving"
    WEAK_REORDER = "weak-reorder"
    PARTIAL_SYNC = "partial-sync"
    BUG_ONLY = "bug-only"


@dataclass(frozen=True)
class TestCharacteristics:
    """Everything the analytic model needs to know about one test."""

    name: str
    mechanism: Mechanism
    #: Relative rarity multiplier in (0, 1]; more constrained witnesses
    #: (extra reads / coherence edges) are harder to land on.
    difficulty: float
    #: The target is only countable when an observer thread catches a
    #: specific coherence window (all-writes tests).
    needs_observer_luck: bool
    #: Structural handles used by the bug channels:
    has_adjacent_same_location_loads: bool
    has_stale_read_pattern: bool
    uses_fences: bool


def _target_sc_allowed(test: LitmusTest) -> bool:
    """Does any SC execution realise the target behaviour?"""
    assert test.target is not None
    for execution in enumerate_executions(test.event_threads()):
        if test.target.matches(test, execution) and SC.allows(execution):
            return True
    return False


def _adjacent_same_location_loads(test: LitmusTest) -> bool:
    for thread in test.threads:
        for first, second in zip(thread, thread[1:]):
            if (
                isinstance(first, AtomicLoad)
                and isinstance(second, AtomicLoad)
                and first.location == second.location
            ):
                return True
    return False


def _stale_read_pattern(test: LitmusTest) -> bool:
    """Two reads of one location in a thread where the target makes the
    po-later read observe an older value — the coherence-violation
    shape a stale cache produces."""
    if test.target is None:
        return False
    reads = test.target.reads
    for thread in test.threads:
        seen = []  # (location, register) of loads in program order
        for instruction in thread:
            if isinstance(instruction, AtomicLoad):
                seen.append((instruction.location, instruction.register))
        for index, (location, register) in enumerate(seen):
            for later_location, later_register in seen[index + 1:]:
                if location != later_location:
                    continue
                early = reads.get(register)
                late = reads.get(later_register)
                if early is None or late is None:
                    continue
                # The target wants the later read to see an older value
                # (the initial value, or a smaller unique write value
                # while values increase in program order).
                if late < early:
                    return True
    return False


def _difficulty(test: LitmusTest) -> float:
    assert test.target is not None
    constraints = len(test.target.reads) + len(test.target.co)
    return 0.7 ** max(0, constraints - 2)


#: Keyed by the full program rendering, so two distinct tests that
#: happen to share a name cannot collide.
_CHARACTERISTICS_MEMO = Memo("characteristics", maxsize=16_384)


def characterize(test: LitmusTest) -> TestCharacteristics:
    """Compute (and memoise) the characteristics of a test.

    Raises:
        WitnessError: If the test has no target behaviour.
    """
    return _CHARACTERISTICS_MEMO.get_or_compute(
        test.pretty(), lambda: _characterize(test)
    )


def _characterize(test: LitmusTest) -> TestCharacteristics:
    if test.target is None:
        raise WitnessError(
            f"test {test.name!r} has no target behaviour to characterise"
        )
    if not oracle_for(test).target_allowed():
        mechanism = Mechanism.BUG_ONLY
    elif _target_sc_allowed(test):
        mechanism = Mechanism.INTERLEAVING
    elif test.uses_fences:
        mechanism = Mechanism.PARTIAL_SYNC
    else:
        mechanism = Mechanism.WEAK_REORDER
    return TestCharacteristics(
        name=test.name,
        mechanism=mechanism,
        difficulty=_difficulty(test),
        needs_observer_luck=bool(test.observer_threads),
        has_adjacent_same_location_loads=_adjacent_same_location_loads(test),
        has_stale_read_pattern=_stale_read_pattern(test),
        uses_fences=test.uses_fences,
    )
