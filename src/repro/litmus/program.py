"""Litmus-test programs: threads of instructions plus a target behaviour.

A :class:`LitmusTest` is the syntactic object the paper manipulates —
mutators rewrite its instructions, testing environments execute it, and
the oracle (built from exhaustive enumeration) classifies its outcomes.

Structural conventions, matching the paper:

* every store carries a *globally unique* non-zero value, so any
  observed value identifies the write that produced it;
* extra *observer* threads (used for the all-writes tests, Sec. 3.1)
  are ordinary threads flagged in :attr:`LitmusTest.observer_threads`;
* the intended (disallowed, or for mutants the closely-related allowed)
  behaviour is described by a :class:`BehaviorSpec` over registers and
  write values rather than raw events, so it survives mutation of the
  program text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import MalformedProgramError
from repro.litmus.instructions import Fence, Instruction
from repro.memory_model.events import Event, Location
from repro.memory_model.execution import Execution
from repro.memory_model.models import MemoryModel, SC_PER_LOCATION


@dataclass(frozen=True)
class BehaviorSpec:
    """A class of candidate executions, named by observables.

    Attributes:
        reads: Required observed value per register (0 = initial value).
        co: Required coherence edges as ``(earlier_value, later_value)``
            pairs of write values; both writes must target one location.

    The spec is syntax-independent: it refers to registers and stored
    values, which mutators preserve, rather than to instruction
    positions, which they rearrange.
    """

    reads: Mapping[str, int] = field(default_factory=dict)
    co: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", dict(self.reads))

    def matches(self, test: "LitmusTest", execution: Execution) -> bool:
        """True iff ``execution`` realises this behaviour for ``test``."""
        registers = test.register_events(execution)
        for register, expected in self.reads.items():
            event = registers.get(register)
            if event is None:
                raise MalformedProgramError(
                    f"behaviour references unknown register {register!r}"
                )
            if execution.observed_value(event) != expected:
                return False
        writes_by_value = {
            event.value: event
            for event in execution.memory_events
            if event.is_write
        }
        for earlier_value, later_value in self.co:
            earlier = writes_by_value.get(earlier_value)
            later = writes_by_value.get(later_value)
            if earlier is None or later is None:
                raise MalformedProgramError(
                    f"behaviour references unknown write value in "
                    f"co pair ({earlier_value}, {later_value})"
                )
            if (earlier, later) not in execution.co:
                return False
        return True

    def describe(self) -> str:
        parts = [f"{reg}=={val}" for reg, val in sorted(self.reads.items())]
        parts += [f"co:{u}<{v}" for u, v in self.co]
        return " && ".join(parts) if parts else "<any>"


@dataclass(frozen=True)
class LitmusTest:
    """An executable litmus test.

    Attributes:
        name: Unique identifier (e.g. ``"corr"`` or
            ``"mp_relacq_mutant_drop_both"``).
        threads: Instruction sequences, one per thread; observer threads
            come last.
        model: The memory model this test checks conformance against.
        target: The behaviour of interest — for conformance tests the
            disallowed behaviour, for mutants the newly-allowed one.
        observer_threads: Indices of threads that only observe (used by
            all-writes tests to witness coherence order).
        description: Human-readable summary for reports.
    """

    name: str
    threads: Tuple[Tuple[Instruction, ...], ...]
    model: MemoryModel = SC_PER_LOCATION
    target: Optional[BehaviorSpec] = None
    observer_threads: FrozenSet[int] = frozenset()
    description: str = ""

    def __init__(
        self,
        name: str,
        threads: Sequence[Sequence[Instruction]],
        model: MemoryModel = SC_PER_LOCATION,
        target: Optional[BehaviorSpec] = None,
        observer_threads: Sequence[int] = (),
        description: str = "",
    ) -> None:
        object.__setattr__(
            self, "threads", tuple(tuple(thread) for thread in threads)
        )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "target", target)
        object.__setattr__(
            self, "observer_threads", frozenset(observer_threads)
        )
        object.__setattr__(self, "description", description)
        self._validate()

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        if not self.threads:
            raise MalformedProgramError("a litmus test needs threads")
        values: Dict[int, str] = {}
        registers: List[str] = []
        for thread in self.threads:
            for instruction in thread:
                if instruction.writes:
                    value = instruction.value  # type: ignore[union-attr]
                    if value == 0:
                        raise MalformedProgramError(
                            "stored values must be non-zero (0 is the "
                            "initial value)"
                        )
                    if value in values:
                        raise MalformedProgramError(
                            f"duplicate stored value {value}"
                        )
                    values[value] = self.name
                if instruction.reads:
                    register = instruction.register  # type: ignore[union-attr]
                    if register in registers:
                        raise MalformedProgramError(
                            f"duplicate register {register!r}"
                        )
                    registers.append(register)
        for index in self.observer_threads:
            if not 0 <= index < len(self.threads):
                raise MalformedProgramError(
                    f"observer thread index {index} out of range"
                )
            for instruction in self.threads[index]:
                if instruction.writes:
                    raise MalformedProgramError(
                        "observer threads must not write"
                    )

    # -- structure ------------------------------------------------------

    @property
    def thread_count(self) -> int:
        return len(self.threads)

    @property
    def testing_threads(self) -> Tuple[int, ...]:
        """Indices of the non-observer threads."""
        return tuple(
            index
            for index in range(self.thread_count)
            if index not in self.observer_threads
        )

    @property
    def locations(self) -> Tuple[Location, ...]:
        seen: List[Location] = []
        for thread in self.threads:
            for instruction in thread:
                if instruction.is_memory_access:
                    location = instruction.location  # type: ignore[union-attr]
                    if location not in seen:
                        seen.append(location)
        return tuple(seen)

    @property
    def registers(self) -> Tuple[str, ...]:
        return tuple(
            instruction.register  # type: ignore[union-attr]
            for thread in self.threads
            for instruction in thread
            if instruction.reads
        )

    @property
    def uses_fences(self) -> bool:
        return any(
            isinstance(instruction, Fence)
            for thread in self.threads
            for instruction in thread
        )

    def instructions(self) -> Iterator[Tuple[int, int, Instruction]]:
        """Yield ``(thread, index, instruction)`` in program order."""
        for thread_index, thread in enumerate(self.threads):
            for index, instruction in enumerate(thread):
                yield thread_index, index, instruction

    # -- bridge to the formal model --------------------------------------

    def event_threads(self) -> List[List[Event]]:
        """Per-thread event skeletons with stable uids and labels.

        Event uid equals the instruction's global index in program
        order, so the instruction ↔ event correspondence is one-to-one
        and reproducible.
        """
        result: List[List[Event]] = []
        uid = 0
        label_index = 0
        for thread_index, thread in enumerate(self.threads):
            events: List[Event] = []
            for instruction in thread:
                label = chr(ord("a") + label_index % 26)
                events.append(instruction.to_event(uid, thread_index, label))
                uid += 1
                label_index += 1
            result.append(events)
        return result

    def register_events(self, execution: Execution) -> Dict[str, Event]:
        """Map each register to the reading event that defines it.

        Works for any execution over this test's event skeleton (events
        are matched by uid, i.e. instruction position).
        """
        by_uid = {event.uid: event for event in execution.events}
        result: Dict[str, Event] = {}
        uid = 0
        for thread in self.threads:
            for instruction in thread:
                if instruction.reads:
                    result[instruction.register] = by_uid[uid]  # type: ignore[union-attr]
                uid += 1
        return result

    # -- transformation helpers used by mutators --------------------------

    def with_threads(
        self, threads: Sequence[Sequence[Instruction]], name: str,
        description: str = "",
    ) -> "LitmusTest":
        """A copy with new instructions (same model/target/observers)."""
        return LitmusTest(
            name=name,
            threads=threads,
            model=self.model,
            target=self.target,
            observer_threads=sorted(self.observer_threads),
            description=description or self.description,
        )

    def with_target(self, target: BehaviorSpec) -> "LitmusTest":
        return LitmusTest(
            name=self.name,
            threads=self.threads,
            model=self.model,
            target=target,
            observer_threads=sorted(self.observer_threads),
            description=self.description,
        )

    # -- rendering --------------------------------------------------------

    def pretty(self) -> str:
        lines = [f"test {self.name} (model: {self.model})"]
        for index, thread in enumerate(self.threads):
            role = " (observer)" if index in self.observer_threads else ""
            lines.append(f"  thread {index}{role}:")
            for instruction in thread:
                lines.append(f"    {instruction.pretty()}")
        if self.target is not None:
            lines.append(f"  target: {self.target.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LitmusTest({self.name!r}, threads={self.thread_count})"


def structural_test_key(test: LitmusTest) -> str:
    """A stable structural hash of a test.

    Two structurally identical tests (same instructions, values,
    threads) share a key across processes and interpreter runs —
    unlike ``hash()``, which is randomised per process.
    """
    return hashlib.sha256(test.pretty().encode("utf-8")).hexdigest()
