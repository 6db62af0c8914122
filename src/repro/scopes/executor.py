"""Operational execution with workgroup placement and control barriers.

Extends the single-instance executor with the execution-hierarchy
semantics the paper defers to future work:

* threads are placed into workgroups (:class:`Placement`);
* ``workgroupBarrier()`` is a *rendezvous*: no thread in a workgroup
  passes its k-th barrier until every peer has arrived at theirs, and
  crossing it drains the participants' store buffers (all pre-barrier
  writes become visible);
* storage-scope barriers keep their core semantics (release ordering
  in the store buffer, no rendezvous across workgroups).

Both run in the core interpreter (:func:`repro.gpu.executor.interleave`),
which compiles a workgroup barrier to its rendezvous op and takes the
placement's peers; this module only checks that the program and the
placement fit.

The implementation is deliberately *conservative*: a workgroup barrier
also makes the drained writes visible to other workgroups, which is
stronger than the scoped model requires.  That is sound (the test
suite checks every outcome against the scoped model's oracle) and
mirrors the real-world situation of Sec. 3.4 — implementations are
often stronger than their specification, which is exactly when mutant
pruning applies.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.errors import MalformedProgramError
from repro.gpu.bugs import BugSet, NO_BUGS
from repro.gpu.executor import run_instance
from repro.gpu.profiles import ExecutionTuning
from repro.litmus.outcomes import Outcome
from repro.litmus.program import LitmusTest
from repro.scopes.instructions import BarrierScope, ControlBarrier
from repro.scopes.placement import Placement


def _validate_uniform_barriers(
    test: LitmusTest, placement: Placement
) -> None:
    """Workgroup barriers must be uniform within each workgroup, or the
    rendezvous deadlocks (WGSL makes non-uniform barriers an error)."""
    counts: Dict[int, Set[int]] = {}
    for thread, instructions in enumerate(test.threads):
        barrier_count = sum(
            1
            for instruction in instructions
            if isinstance(instruction, ControlBarrier)
            and instruction.scope is BarrierScope.WORKGROUP
        )
        group = placement.workgroup_of(thread)
        counts.setdefault(group, set()).add(barrier_count)
    for group, observed in counts.items():
        if len(observed) > 1:
            raise MalformedProgramError(
                f"non-uniform workgroupBarrier count in workgroup "
                f"{group}: {sorted(observed)}"
            )


def run_scoped_instance(
    test: LitmusTest,
    placement: Placement,
    tuning: ExecutionTuning,
    rng: np.random.Generator,
    bugs: BugSet = NO_BUGS,
) -> Outcome:
    """One scoped instance under ``placement``, one outcome."""
    if placement.thread_count != test.thread_count:
        raise MalformedProgramError(
            f"placement covers {placement.thread_count} threads, "
            f"test has {test.thread_count}"
        )
    _validate_uniform_barriers(test, placement)
    return run_instance(test, tuning, rng, bugs, peers=placement.peers)
