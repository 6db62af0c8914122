"""Experimental: the GPU execution hierarchy (the paper's future work).

"MC Mutants applies generally to MCS testing, and we aim to apply it
to the more complete GPU execution hierarchy as the specification ...
continues to evolve" (Sec. 1.2).  This package takes the first step:

* :class:`Placement` — litmus threads placed into workgroups;
* :class:`ControlBarrier` — ``workgroupBarrier()`` /
  ``storageBarrier()`` with explicit scope;
* :class:`ScopedRelAcqSCPerLocation` — synchronization filtered by
  scope and placement (workgroup-scope barriers only synchronize
  threads that share a workgroup);
* :func:`run_scoped_instance` — operational execution with real
  rendezvous semantics for workgroup barriers, through the core
  interpreter (:func:`repro.gpu.executor.interleave`).

The enumeration oracle works unchanged on scoped tests (the model is
just another :class:`~repro.memory_model.models.MemoryModel`), so the
same verify-generate-measure pipeline extends to intra-workgroup
testing.
"""

from repro.scopes.executor import run_scoped_instance
from repro.scopes.instructions import (
    BarrierScope,
    ControlBarrier,
    scope_of,
)
from repro.scopes.model import (
    ScopedRelAcqSCPerLocation,
    scope_table,
    scoped_model,
    scoped_test,
)
from repro.scopes.mutator import SCOPE_DROPS, WeakeningScopeMutator
from repro.scopes.placement import Placement

__all__ = [
    "BarrierScope",
    "ControlBarrier",
    "Placement",
    "SCOPE_DROPS",
    "ScopedRelAcqSCPerLocation",
    "run_scoped_instance",
    "scope_of",
    "scope_table",
    "scoped_model",
    "scoped_test",
    "WeakeningScopeMutator",
]
