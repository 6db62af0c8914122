"""Pinned seeded outcomes of the operational interpreter.

Every operational entry point — the single-instance executor, the
operational PTE iteration and the scoped (workgroup-placed) executor —
is a deterministic function of its seed.  These sha256 digests pin the
outcomes a fixed corpus produces, so a refactor of the interleaving
loop that changes one random draw, one op's semantics or the order of
the drain fails here, not silently in a rate three layers up.  If a
change is *meant* to move outcomes, re-record the digests on purpose
and say why.
"""

import hashlib

import numpy as np
import pytest

from repro.env.parallel_kernel import ParallelIteration
from repro.gpu import ALL_BUGS, NO_BUGS, BugSet, ExecutionTuning, run_instance
from repro.litmus import AtomicLoad, AtomicStore, BehaviorSpec, library
from repro.memory_model import X, Y
from repro.scopes import (
    BarrierScope,
    ControlBarrier,
    Placement,
    run_scoped_instance,
    scoped_test,
)

TUNINGS = (
    ExecutionTuning(0.3, 0.4, 1.5, 0.8),
    ExecutionTuning(0.0, 1.0, 32.0, 0.0),
    ExecutionTuning(0.5, 0.2, 1.0, 0.9),
)
BUG_SETS = (NO_BUGS,) + tuple(BugSet([bug]) for bug in ALL_BUGS)

SINGLE_DIGEST = (
    "62162c11bbc9f515b0dcaa13cee304caa9674613fb5884293de3cb64a25c19f8"
)
PARALLEL_DIGEST = (
    "cbff0f7b572c4fe7ae8a4248d37878cb9c36fb1c0b5afc24521d510f1b35ffbf"
)
SCOPED_DIGEST = (
    "d2d2c24d2318fc4849f0e16554776572342ce3c34e0c5d84c13897f4e2f22cd0"
)


def _digest(outcomes):
    hasher = hashlib.sha256()
    for outcome in outcomes:
        hasher.update(repr(outcome.signature()).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _single_outcomes():
    for name in library.test_names():
        test = library.by_name(name)
        for tuning_index, tuning in enumerate(TUNINGS):
            for bug_index, bugs in enumerate(BUG_SETS):
                rng = np.random.default_rng(
                    [tuning_index, bug_index, len(name)]
                )
                for _ in range(40):
                    yield run_instance(test, tuning, rng, bugs)


def _parallel_outcomes():
    names = ("mp", "sb", "corr", "mp_relacq", "sb_relacq_rmw")
    for name in names:
        test = library.by_name(name)
        for stress in (0, 4):
            for bug_index, bugs in enumerate(BUG_SETS):
                iteration = ParallelIteration(
                    test=test,
                    instance_count=24,
                    tuning=TUNINGS[0],
                    stress_threads=stress,
                    bugs=bugs,
                )
                rng = np.random.default_rng([stress, bug_index, len(name)])
                yield from iteration.run(rng)


def _scoped_outcomes():
    target = BehaviorSpec(reads={"r0": 2, "r1": 0})
    for scope in (BarrierScope.WORKGROUP, BarrierScope.STORAGE):
        barrier = ControlBarrier(scope)
        threads = [
            [AtomicStore(X, 1), barrier, AtomicStore(Y, 2)],
            [AtomicLoad(Y, "r0"), barrier, AtomicLoad(X, "r1")],
        ]
        for placement in (
            Placement.all_together(2),
            Placement.all_separate(2),
        ):
            test = scoped_test("mp_scoped", threads, placement, target)
            for tuning_index, tuning in enumerate(TUNINGS):
                for bug_index, bugs in enumerate(BUG_SETS):
                    rng = np.random.default_rng([tuning_index, bug_index])
                    for _ in range(30):
                        yield run_scoped_instance(
                            test, placement, tuning, rng, bugs
                        )
    placement = Placement([0, 0, 0])
    threads = [
        [AtomicStore(X, 1), ControlBarrier()],
        [AtomicStore(Y, 2), ControlBarrier()],
        [ControlBarrier(), AtomicLoad(X, "r0"), AtomicLoad(Y, "r1")],
    ]
    test = scoped_test("rendezvous3", threads, placement)
    for tuning_index, tuning in enumerate(TUNINGS):
        rng = np.random.default_rng([tuning_index, 3])
        for _ in range(60):
            yield run_scoped_instance(test, placement, tuning, rng)


@pytest.mark.parametrize(
    "outcomes, expected",
    [
        (_single_outcomes, SINGLE_DIGEST),
        (_parallel_outcomes, PARALLEL_DIGEST),
        (_scoped_outcomes, SCOPED_DIGEST),
    ],
    ids=["single-instance", "parallel-iteration", "scoped"],
)
def test_seeded_outcomes_pinned(outcomes, expected):
    assert _digest(outcomes()) == expected
