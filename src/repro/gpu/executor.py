"""The operational interpreter: the simulated device's "real machine".

It compiles a litmus test to per-thread op streams, applies the
device's (possibly buggy) compile-time reordering, then interleaves the
threads over the store-buffer memory subsystem of
:mod:`repro.gpu.memory` and reports the observable
:class:`~repro.litmus.outcomes.Outcome`.  :func:`interleave` is the one
interleaving loop: the operational PTE iteration
(:mod:`repro.env.parallel_kernel`) and the workgroup-placed executor
(:mod:`repro.scopes.executor`) only build programs for it.

Without injected bugs, every outcome it can produce corresponds to a
candidate execution allowed by the test's memory model — a property the
test suite checks exhaustively against the enumeration oracle.  All the
*rates* (how often which allowed outcome appears) are controlled by the
:class:`~repro.gpu.profiles.ExecutionTuning` knobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import DeviceError, MalformedProgramError
from repro.gpu.bugs import BugSet, NO_BUGS
from repro.gpu.memory import CoherentMemory, StoreBuffer
from repro.gpu.profiles import ExecutionTuning
from repro.litmus.instructions import (
    AtomicExchange,
    AtomicLoad,
    AtomicStore,
    Fence,
)
from repro.litmus.outcomes import Outcome
from repro.litmus.program import LitmusTest
from repro.memory_model.events import Location


class OpKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    RMW = "rmw"
    FENCE = "fence"
    BARRIER = "barrier"  # workgroupBarrier(): a rendezvous of peers


@dataclass
class Op:
    """One compiled operation of a thread's instruction stream.

    Fences and barriers carry no location.
    """

    kind: OpKind
    location: Optional[Location] = None
    value: Optional[int] = None
    register: Optional[str] = None


def compile_test(test: LitmusTest, bugs: BugSet = NO_BUGS) -> List[List[Op]]:
    """Lower a litmus test to per-thread op streams.

    The AMD fence-dropping bug applies here: the miscompiled program
    simply has no plain fences, exactly like the drop-both-fences
    mutant.  Scoped control barriers (:mod:`repro.scopes`, a
    :class:`Fence` subclass with a ``scope``) are never dropped: a
    workgroup-scoped one becomes :attr:`OpKind.BARRIER`, a
    storage-scoped one a fence.
    """
    threads: List[List[Op]] = []
    for thread in test.threads:
        ops: List[Op] = []
        for instruction in thread:
            if isinstance(instruction, AtomicLoad):
                ops.append(
                    Op(OpKind.LOAD, instruction.location,
                       register=instruction.register)
                )
            elif isinstance(instruction, AtomicStore):
                ops.append(
                    Op(OpKind.STORE, instruction.location,
                       value=instruction.value)
                )
            elif isinstance(instruction, AtomicExchange):
                ops.append(
                    Op(OpKind.RMW, instruction.location,
                       value=instruction.value,
                       register=instruction.register)
                )
            elif isinstance(instruction, Fence):
                scope = getattr(instruction, "scope", None)
                if scope is None:
                    if not bugs.drops_fences:
                        ops.append(Op(OpKind.FENCE))
                elif scope.value == "workgroup":
                    ops.append(Op(OpKind.BARRIER))
                else:
                    ops.append(Op(OpKind.FENCE))
            else:
                raise DeviceError(
                    f"cannot compile instruction {instruction!r}"
                )
        threads.append(ops)
    return threads


def reorder_pass(
    threads: List[List[Op]],
    tuning: ExecutionTuning,
    rng: np.random.Generator,
    bugs: BugSet = NO_BUGS,
    passes: int = 2,
) -> List[List[Op]]:
    """Simulate issue-order relaxation within each thread.

    Adjacent operations swap with the tuning's reorder probability when
    the swap is architecturally legal: different locations, and no
    fence or barrier involved (they order everything on both sides).
    The Intel CoRR bug additionally permits swapping adjacent
    *same-location loads* — the coherence violation.
    """
    swap_same_loc_loads = bugs.load_load_swap_probability()
    result = [list(thread) for thread in threads]
    for ops in result:
        for _ in range(passes):
            index = 0
            while index + 1 < len(ops):
                first, second = ops[index], ops[index + 1]
                if first.location is None or second.location is None:
                    index += 1
                    continue
                if first.location != second.location:
                    if rng.random() < tuning.reorder_probability:
                        ops[index], ops[index + 1] = second, first
                        index += 2
                        continue
                elif (
                    first.kind is OpKind.LOAD
                    and second.kind is OpKind.LOAD
                    and rng.random() < swap_same_loc_loads
                ):
                    ops[index], ops[index + 1] = second, first
                    index += 2
                    continue
                index += 1
    return result


def _chunk_size(tuning: ExecutionTuning, rng: np.random.Generator) -> int:
    """Ops a scheduled thread runs before the next scheduling draw."""
    mean = tuning.chunk_mean
    if mean <= 1.0:
        return 1
    return int(rng.geometric(1.0 / mean))


def interleave(
    programs: Sequence[Sequence[Op]],
    tuning: ExecutionTuning,
    rng: np.random.Generator,
    bugs: BugSet = NO_BUGS,
    peers: Optional[Callable[[int], Sequence[int]]] = None,
) -> Tuple[CoherentMemory, Dict[str, int]]:
    """Interleave per-thread op streams over one store-buffer memory.

    Each step picks a runnable thread uniformly, runs a geometric chunk
    of its ops, then gives every buffered store one chance to commit;
    at the end the buffers drain in random order.  Returns the final
    memory and register file.

    ``peers(thread)`` names the threads of ``thread``'s workgroup
    (:meth:`repro.scopes.Placement.peers`, ``thread`` included) and is
    needed only for :attr:`OpKind.BARRIER`, the ``workgroupBarrier()``
    rendezvous: no thread passes it until every peer has arrived, and
    crossing it drains all the peers' store buffers.
    """
    memory = CoherentMemory()
    buffers = [StoreBuffer(thread) for thread in range(len(programs))]
    registers: Dict[str, int] = {}
    cursors = [0] * len(programs)
    remaining = [len(ops) for ops in programs]
    stale = bugs.stale_read_probability(tuning)
    # Threads stopped at a workgroup barrier.
    waiting: Set[int] = set()

    def settle(thread: int) -> None:
        if remaining[thread] and (
            programs[thread][cursors[thread]].kind is OpKind.BARRIER
        ):
            waiting.add(thread)
        else:
            waiting.discard(thread)

    def ready(thread: int) -> bool:
        if peers is None:
            raise DeviceError("a workgroup barrier needs a placement")
        return all(peer in waiting for peer in peers(thread))

    for thread in range(len(programs)):
        settle(thread)
    while any(remaining):
        if waiting:
            runnable = [
                index for index, left in enumerate(remaining)
                if left and (index not in waiting or ready(index))
            ]
            if not runnable:
                raise MalformedProgramError(
                    "workgroup barrier deadlock (non-uniform control flow)"
                )
        else:
            runnable = [
                index for index, left in enumerate(remaining) if left
            ]
        thread = int(rng.choice(runnable))
        ops, buffer = programs[thread], buffers[thread]
        for _ in range(min(_chunk_size(tuning, rng), remaining[thread])):
            op = ops[cursors[thread]]
            kind = op.kind
            if kind is OpKind.STORE:
                buffer.push(op.location, op.value)
            elif kind is OpKind.LOAD:
                # Store forwarding first; only the Kepler bug reads stale.
                value = buffer.newest_pending(op.location)
                if value is None:
                    if stale > 0.0 and rng.random() < stale:
                        value = memory.read_stale(
                            op.location, rng, bugs.stale_depth()
                        )
                    else:
                        value = memory.read_current(op.location)
                registers[op.register] = value
            elif kind is OpKind.FENCE:
                # Release half: later stores may not overtake the
                # barrier.  The acquire half is enforced by the reorder
                # pass, which hoists no load across a fence.
                buffer.push_barrier()
            elif kind is OpKind.RMW:
                # Atomic on global memory: earlier pending stores to the
                # location and any release barrier commit first.
                buffer.flush_for_rmw(op.location, memory)
                registers[op.register] = memory.read_current(op.location)
                memory.commit(op.location, op.value, thread)
            else:  # OpKind.BARRIER
                # Rendezvous: the peers cross together, draining their
                # buffers.  Arriving ends the slot either way.
                waiting.add(thread)
                if ready(thread):
                    for peer in peers(thread):
                        buffers[peer].flush_all(memory)
                        cursors[peer] += 1
                        remaining[peer] -= 1
                        settle(peer)
                break
            cursors[thread] += 1
            remaining[thread] -= 1
        settle(thread)
        for buffer in buffers:
            if not buffer.empty:
                buffer.flush_random(memory, rng, tuning.flush_probability)
    order = list(range(len(buffers)))
    rng.shuffle(order)
    for index in order:
        buffers[index].flush_all(memory)
    return memory, registers


def run_instance(
    test: LitmusTest,
    tuning: ExecutionTuning,
    rng: np.random.Generator,
    bugs: BugSet = NO_BUGS,
    peers: Optional[Callable[[int], Sequence[int]]] = None,
) -> Outcome:
    """Compile, reorder, interleave and observe one test instance.

    ``peers`` is the workgroup placement for tests with
    ``workgroupBarrier()``s (see :func:`interleave`).
    """
    threads = reorder_pass(compile_test(test, bugs), tuning, rng, bugs)
    memory, registers = interleave(threads, tuning, rng, bugs, peers)
    return Outcome(
        reads={
            register: registers.get(register, 0)
            for register in test.registers
        },
        finals={
            location: memory.read_current(location)
            for location in test.locations
        },
    )
