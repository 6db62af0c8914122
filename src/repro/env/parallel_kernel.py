"""An operational PTE iteration: Fig. 4 executed for real.

The analytic runner treats a PTE iteration statistically; this module
*executes* one, at reduced scale, with all of Sec. 4.1's machinery:

* one simulated thread per test instance;
* thread ``t`` runs role ``j`` of instance ``perm^j(t)`` where ``perm``
  is the co-prime permutation — so the two halves of an instance land
  on unrelated threads and every role of every instance is covered
  exactly once;
* each instance gets its own memory locations, with the non-primary
  locations spread across the arena by the second permutation;
* optional stress threads hammer a scratchpad, perturbing scheduling
  and flush timing for everyone;
* all threads interleave over one shared store-buffer memory system,
  so instances genuinely interact (the contention PTE relies on).

This module only *builds* the per-thread programs; they run through
the single-instance executor's own interleaving loop
(:func:`repro.gpu.executor.interleave`), so coherence and fence
ordering hold per instance by construction.  The test suite checks
every per-instance outcome against the enumeration oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.env.environment import TestingEnvironment
from repro.env.permutation import ParallelPermutation, coprime_to
from repro.errors import EnvironmentError_
from repro.gpu.bugs import BugSet, NO_BUGS
from repro.gpu.device import Device
from repro.gpu.executor import (
    Op,
    OpKind,
    compile_test,
    interleave,
    reorder_pass,
)
from repro.gpu.memory import CoherentMemory
from repro.gpu.profiles import ExecutionTuning
from repro.litmus.outcomes import Outcome
from repro.litmus.program import LitmusTest
from repro.memory_model.events import Location


def _instance_location(location: Location, instance: int) -> Location:
    return Location(f"{location.name}#{instance}")


def _instance_register(register: str, instance: int) -> str:
    return f"{register}@{instance}"


class ParallelIteration:
    """One PTE iteration executed operationally.

    Args:
        test: The litmus test (its thread count defines the roles).
        instance_count: Test instances (= simulated testing threads).
        tuning: Operational knobs, usually from
            ``device.tuning(environment.workload(...))``.
        instance_factor: The co-prime factor for thread→instance
            assignment (``permute_first``); snapped to co-primality.
        location_factor: The co-prime factor spreading non-primary
            locations (``permute_second``).
        stress_threads: Extra threads hammering the scratchpad.
        stress_ops: Scratchpad accesses per stress thread.
        bugs: Injected implementation bugs, as for the single-instance
            executor.
    """

    def __init__(
        self,
        test: LitmusTest,
        instance_count: int,
        tuning: ExecutionTuning,
        instance_factor: int = 419,
        location_factor: int = 1031,
        stress_threads: int = 0,
        stress_ops: int = 16,
        bugs: BugSet = NO_BUGS,
    ) -> None:
        if instance_count < 2:
            raise EnvironmentError_("need at least two instances")
        if stress_threads < 0 or stress_ops < 0:
            raise EnvironmentError_("stress settings must be >= 0")
        self.test = test
        self.instance_count = instance_count
        self.tuning = tuning
        self.bugs = bugs
        self.stress_threads = stress_threads
        self.stress_ops = stress_ops
        self._compiled = compile_test(test, bugs)
        self.instance_permutation = ParallelPermutation(
            instance_count, coprime_to(instance_count, instance_factor)
        )
        self.location_permutation = ParallelPermutation(
            instance_count, coprime_to(instance_count, location_factor)
        )

    # -- assignment ---------------------------------------------------------

    def role_count(self) -> int:
        return self.test.thread_count

    def assignments(self) -> List[Tuple[int, ...]]:
        """Per-thread instance tuple: entry ``j`` is the instance whose
        role ``j`` the thread runs."""
        result = []
        for thread in range(self.instance_count):
            roles = []
            value = thread
            for _ in range(self.role_count()):
                roles.append(value)
                value = self.instance_permutation(value)
            result.append(tuple(roles))
        return result

    def _locations_for(self, instance: int) -> Dict[Location, Location]:
        """The arena locations of one instance.

        The first (primary) location is tied to the instance; the
        others are spread by the second permutation, so neighbouring
        instances do not use neighbouring memory (Sec. 4.1).
        """
        mapping: Dict[Location, Location] = {}
        for index, location in enumerate(self.test.locations):
            if index == 0:
                slot = instance
            else:
                slot = self.location_permutation(
                    (instance + index - 1) % self.instance_count
                )
            mapping[location] = _instance_location(location, slot)
        return mapping

    # -- program construction --------------------------------------------------

    def _role_ops(
        self,
        role: int,
        instance: int,
        rng: np.random.Generator,
    ) -> List[Op]:
        reordered = reorder_pass(self._compiled, self.tuning, rng, self.bugs)
        locations = self._locations_for(instance)
        ops: List[Op] = []
        for op in reordered[role]:
            if op.location is None:  # a fence
                ops.append(op)
                continue
            register = (
                _instance_register(op.register, instance)
                if op.register is not None
                else None
            )
            ops.append(
                Op(
                    op.kind,
                    locations[op.location],
                    value=op.value,
                    register=register,
                )
            )
        return ops

    def _stress_program(
        self, thread: int, rng: np.random.Generator
    ) -> List[Op]:
        scratch_lines = max(1, self.instance_count // 16)
        ops: List[Op] = []
        for index in range(self.stress_ops):
            line = int(rng.integers(0, scratch_lines))
            location = Location(f"scratch#{line}")
            if (index + thread) % 2 == 0:
                ops.append(
                    Op(OpKind.STORE, location,
                       value=1_000_000 + thread * 10_000 + index)
                )
            else:
                ops.append(
                    Op(OpKind.LOAD, location,
                       register=f"stress{thread}_{index}")
                )
        return ops

    def build_programs(self, rng: np.random.Generator) -> List[List[Op]]:
        """One op stream per simulated thread: all its roles, in role
        order, then the stress threads."""
        programs: List[List[Op]] = []
        for roles in self.assignments():
            ops: List[Op] = []
            for role, instance in enumerate(roles):
                ops.extend(self._role_ops(role, instance, rng))
            programs.append(ops)
        base = len(programs)
        for stress_index in range(self.stress_threads):
            programs.append(
                self._stress_program(base + stress_index, rng)
            )
        return programs

    # -- execution -----------------------------------------------------------

    def run(self, rng: np.random.Generator) -> List[Outcome]:
        """Execute the iteration; one outcome per test instance."""
        programs = self.build_programs(rng)
        memory, registers = interleave(programs, self.tuning, rng, self.bugs)
        return self._collect(memory, registers)

    def _collect(
        self, memory: CoherentMemory, registers: Dict[str, int]
    ) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for instance in range(self.instance_count):
            locations = self._locations_for(instance)
            reads = {
                register: registers.get(
                    _instance_register(register, instance), 0
                )
                for register in self.test.registers
            }
            finals = {
                original: memory.read_current(arena)
                for original, arena in locations.items()
            }
            outcomes.append(Outcome(reads=reads, finals=finals))
        return outcomes


def run_parallel_iteration(
    device: Device,
    test: LitmusTest,
    environment: TestingEnvironment,
    rng: np.random.Generator,
    instance_count: Optional[int] = None,
    stress_threads: Optional[int] = None,
) -> List[Outcome]:
    """Convenience wrapper: one operational PTE iteration on a device.

    ``instance_count`` defaults to a Python-feasible 256 (a real PTE
    iteration would use the environment's full
    ``instances_per_iteration``); the environment's stress percentage
    decides the stress-thread count when not given.
    """
    count = instance_count if instance_count is not None else 256
    params = environment.parameters
    if stress_threads is None:
        stress_fraction = params.mem_stress_pct / 100.0
        stress_threads = int(
            stress_fraction
            * max(0, params.max_workgroups - params.testing_workgroups)
        )
    workload = environment.workload(device.profile, test)
    tuning = device.tuning(workload)
    iteration = ParallelIteration(
        test=test,
        instance_count=count,
        tuning=tuning,
        instance_factor=params.permute_first,
        location_factor=params.permute_second,
        stress_threads=min(stress_threads, count),
        bugs=device.bugs,
    )
    return iteration.run(rng)
