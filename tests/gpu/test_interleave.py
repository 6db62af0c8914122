"""The one interleaving loop's barrier rules: compilation, reordering and
the workgroup rendezvous."""

import numpy as np
import pytest

from repro.errors import DeviceError, MalformedProgramError
from repro.gpu import AMD_MP_RELACQ, BugSet, ExecutionTuning, run_instance
from repro.gpu.executor import (
    Op,
    OpKind,
    compile_test,
    interleave,
    reorder_pass,
)
from repro.litmus import AtomicLoad, AtomicStore
from repro.memory_model import X, Y
from repro.scopes import BarrierScope, ControlBarrier, Placement, scoped_test

ALWAYS_REORDER = ExecutionTuning(1.0, 0.5, 1.5, 0.5)


def _mp(barrier):
    threads = [
        [AtomicStore(X, 1), barrier, AtomicStore(Y, 2)],
        [AtomicLoad(Y, "r0"), barrier, AtomicLoad(X, "r1")],
    ]
    return scoped_test("mp_scoped", threads, Placement.all_together(2))


@pytest.mark.parametrize(
    "barrier, kind",
    [
        (ControlBarrier(BarrierScope.WORKGROUP), OpKind.BARRIER),
        (ControlBarrier(BarrierScope.STORAGE), OpKind.FENCE),
    ],
    ids=["workgroup", "storage"],
)
def test_fence_dropping_bug_keeps_control_barriers(barrier, kind):
    for thread in compile_test(_mp(barrier), BugSet([AMD_MP_RELACQ])):
        assert [op.kind for op in thread][1] is kind


def test_reorder_pass_never_moves_a_barrier():
    compiled = compile_test(_mp(ControlBarrier()))
    for seed in range(20):
        reordered = reorder_pass(
            compiled, ALWAYS_REORDER, np.random.default_rng(seed)
        )
        for thread in reordered:
            assert thread[1].kind is OpKind.BARRIER


def test_barrier_needs_a_placement():
    with pytest.raises(DeviceError, match="placement"):
        run_instance(
            _mp(ControlBarrier()), ALWAYS_REORDER, np.random.default_rng()
        )


def test_unmatched_barrier_deadlocks():
    programs = [[Op(OpKind.BARRIER)], [Op(OpKind.STORE, X, value=1)]]
    with pytest.raises(MalformedProgramError, match="deadlock"):
        interleave(
            programs,
            ALWAYS_REORDER,
            np.random.default_rng(),
            peers=lambda thread: (0, 1),
        )
