"""Instantiating cycle templates into verified litmus tests.

This module turns an abstract cycle template plus a kind assignment
into a concrete, *machine-verified* :class:`~repro.litmus.program.LitmusTest`:

1. concretize events into instructions (unique increasing store
   values, registers in program order, optional RMW promotion);
2. derive the target :class:`~repro.litmus.program.BehaviorSpec`
   from the cycle's refined ``com`` edges;
3. add an observer thread when every testing event is a write
   (Sec. 3.1's "special case");
4. verify with the enumeration oracle that the target behaviour is
   disallowed (conformance test) or allowed (mutant), and that it has
   an unambiguous observable witness.

Verification means a generation bug cannot silently produce a test
that measures the wrong thing — the property the whole methodology
rests on (mutant behaviour must be exactly the *newly allowed* one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import MutationError
from repro.litmus.instructions import (
    AtomicExchange,
    AtomicLoad,
    AtomicStore,
    Fence,
    Instruction,
)
from repro.litmus.oracle import TestOracle, oracle_for
from repro.litmus.program import BehaviorSpec, LitmusTest
from repro.memory_model.events import Location
from repro.mutation.templates import (
    AccessKind,
    CycleTemplate,
    EdgeRefinement,
)

OBSERVER_REGISTERS = ("obs0", "obs1")


@dataclass(frozen=True)
class ConcreteEvent:
    """A template event with its concrete access decided."""

    name: str
    thread: int
    slot: int
    location: str
    base_kind: AccessKind
    promoted: bool  # True = RMW
    value: Optional[int]  # stored value (writes and RMWs)
    register: Optional[str]  # destination register (reads and RMWs)

    @property
    def writes(self) -> bool:
        return self.promoted or self.base_kind.writes

    @property
    def reads(self) -> bool:
        return self.promoted or self.base_kind.reads

    def kind_char(self) -> str:
        """``r``, ``w``, or ``u`` (RMW/update) for test naming."""
        return "u" if self.promoted else self.base_kind.value

    def to_instruction(self) -> Instruction:
        location = Location(self.location)
        if self.promoted:
            assert self.value is not None and self.register is not None
            return AtomicExchange(location, self.value, self.register)
        if self.base_kind.writes:
            assert self.value is not None
            return AtomicStore(location, self.value)
        assert self.register is not None
        return AtomicLoad(location, self.register)


def concretize(
    template: CycleTemplate,
    kinds: Dict[str, AccessKind],
    promotions: Set[str] = frozenset(),
) -> List[ConcreteEvent]:
    """Assign values, registers, and RMW promotion to template events.

    Values increase in program order starting from 1; registers are
    ``r0``, ``r1``, ... in program order, exactly as the paper's
    artifact concretizes tests.
    """
    events: List[ConcreteEvent] = []
    next_value = 1
    next_register = 0
    ordered = sorted(template.events, key=lambda e: (e.thread, e.slot))
    for abstract in ordered:
        kind = kinds[abstract.name]
        promoted = abstract.name in promotions
        value = None
        register = None
        if kind.writes or promoted:
            value = next_value
            next_value += 1
        if kind.reads or promoted:
            register = f"r{next_register}"
            next_register += 1
        events.append(
            ConcreteEvent(
                name=abstract.name,
                thread=abstract.thread,
                slot=abstract.slot,
                location=abstract.location,
                base_kind=kind,
                promoted=promoted,
                value=value,
                register=register,
            )
        )
    return events


def build_spec(
    template: CycleTemplate, events: Sequence[ConcreteEvent]
) -> BehaviorSpec:
    """Derive the target behaviour from the cycle's refined edges.

    ``rf`` edges pin read registers to the source's value; ``fr``
    edges pin the source's register to a coherence-earlier value (the
    initial value, unless an ``rf`` edge already fixed it, in which
    case a coherence constraint is emitted instead); ``co`` edges
    become coherence pairs directly.
    """
    by_name = {event.name: event for event in events}
    kinds = {event.name: event.base_kind for event in events}
    reads: Dict[str, int] = {}
    co: List[Tuple[int, int]] = []
    refined = [
        (template.com_edges[index], template.edge_refinement(index, kinds))
        for index in range(len(template.com_edges))
    ]
    for edge, refinement in refined:
        if refinement is EdgeRefinement.RF:
            source = by_name[edge.source]
            target = by_name[edge.target]
            assert source.value is not None and target.register is not None
            reads[target.register] = source.value
    for edge, refinement in refined:
        if refinement is EdgeRefinement.FR:
            source = by_name[edge.source]
            target = by_name[edge.target]
            assert source.register is not None and target.value is not None
            observed = reads.get(source.register)
            if observed is None:
                reads[source.register] = 0
            elif observed != 0:
                co.append((observed, target.value))
    for edge, refinement in refined:
        if refinement is EdgeRefinement.CO:
            source = by_name[edge.source]
            target = by_name[edge.target]
            assert source.value is not None and target.value is not None
            co.append((source.value, target.value))
    return BehaviorSpec(reads=reads, co=tuple(co))


def build_threads(
    template: CycleTemplate, events: Sequence[ConcreteEvent]
) -> List[List[Instruction]]:
    """Testing threads (no observer) with fences where the template says."""
    threads: List[List[Instruction]] = [
        [] for _ in range(template.thread_count)
    ]
    for thread_index in range(template.thread_count):
        thread_events = sorted(
            (e for e in events if e.thread == thread_index),
            key=lambda e: e.slot,
        )
        for position, event in enumerate(thread_events):
            if template.fenced and position > 0:
                threads[thread_index].append(Fence())
            threads[thread_index].append(event.to_instruction())
    return threads


def needs_observer(events: Sequence[ConcreteEvent]) -> bool:
    """The paper's special case: every memory event is a write.

    RMW-promoted events read (their old value lands in a register), so
    they provide a coherence witness of their own and do not trigger
    the observer.
    """
    return all(not event.reads for event in events)


def observer_location(events: Sequence[ConcreteEvent]) -> Location:
    """Observe the location with the most writes (the co chain)."""
    counts: Dict[str, int] = {}
    for event in events:
        if event.writes:
            counts[event.location] = counts.get(event.location, 0) + 1
    best = max(sorted(counts), key=lambda name: counts[name])
    return Location(best)


def assemble_test(
    template: CycleTemplate,
    kinds: Dict[str, AccessKind],
    promotions: Set[str],
    name: str,
    description: str = "",
) -> LitmusTest:
    """Build (but do not verify) a conformance test from a template."""
    events = concretize(template, kinds, promotions)
    threads = build_threads(template, events)
    observers: List[int] = []
    if needs_observer(events):
        location = observer_location(events)
        threads.append(
            [
                AtomicLoad(location, OBSERVER_REGISTERS[0]),
                AtomicLoad(location, OBSERVER_REGISTERS[1]),
            ]
        )
        observers.append(len(threads) - 1)
    return LitmusTest(
        name=name,
        threads=threads,
        model=template.model,
        target=build_spec(template, events),
        observer_threads=observers,
        description=description,
    )


def verify_test(test: LitmusTest, expect_allowed: bool) -> TestOracle:
    """Check a generated test against the enumeration oracle.

    Raises:
        MutationError: If the target behaviour's legality does not
            match expectations, or it lacks an observable witness.
    """
    oracle = oracle_for(test)
    if oracle.target_allowed() != expect_allowed:
        expectation = "allowed" if expect_allowed else "disallowed"
        raise MutationError(
            f"generated test {test.name!r}: target behaviour "
            f"{test.target.describe() if test.target else '<none>'} "
            f"should be {expectation} under {test.model} but is not"
        )
    return oracle


def kind_name(
    template: CycleTemplate,
    kinds: Dict[str, AccessKind],
    promotions: Set[str],
) -> str:
    """Deterministic test name, e.g. ``rev_poloc_ru_u`` for CoRR+RMW."""
    parts = []
    for thread in range(template.thread_count):
        chars = []
        for event in template.thread_events(thread):
            if event.name in promotions:
                chars.append("u")
            else:
                chars.append(kinds[event.name].value)
        parts.append("".join(chars))
    return f"{template.name}_{'_'.join(parts)}"
