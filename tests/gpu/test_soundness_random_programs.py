"""Property: the executor is sound on *arbitrary* small programs.

The suite-level soundness tests cover the 52 generated tests; this
file lets Hypothesis build random litmus programs (random mixes of
loads, stores, RMWs, and fences over up to three locations and three
threads) and checks that every operational outcome is explained by
some candidate execution the program's memory model allows.

This is the strongest statement the repository makes about the
simulated device: it conforms to the WebGPU MCS *by construction*, not
just on the shapes we happened to test.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu import ExecutionTuning, run_instance
from repro.litmus import (
    AtomicExchange,
    AtomicLoad,
    AtomicStore,
    Fence,
    LitmusTest,
    TestOracle,
)
from repro.memory_model import (
    REL_ACQ_SC_PER_LOCATION,
    SC_PER_LOCATION,
    Location,
)

LOCATIONS = [Location("x"), Location("y"), Location("z")]


@st.composite
def random_program(draw):
    """A random well-formed litmus test (2-3 threads, 1-3 ops each)."""
    thread_count = draw(st.integers(2, 3))
    value = iter(range(1, 100))
    register = iter(f"r{i}" for i in range(100))
    threads = []
    uses_fences = False
    for _ in range(thread_count):
        length = draw(st.integers(1, 3))
        thread = []
        for position in range(length):
            kind = draw(
                st.sampled_from(["load", "store", "rmw", "fence"])
            )
            location = draw(st.sampled_from(LOCATIONS))
            if kind == "load":
                thread.append(AtomicLoad(location, next(register)))
            elif kind == "store":
                thread.append(AtomicStore(location, next(value)))
            elif kind == "rmw":
                thread.append(
                    AtomicExchange(location, next(value), next(register))
                )
            else:
                uses_fences = True
                thread.append(Fence())
        threads.append(thread)
    model = REL_ACQ_SC_PER_LOCATION if uses_fences else SC_PER_LOCATION
    return LitmusTest(name="random", threads=threads, model=model)


@st.composite
def random_tuning(draw):
    return ExecutionTuning(
        reorder_probability=draw(st.floats(0.0, 1.0)),
        flush_probability=draw(st.floats(0.05, 1.0)),
        chunk_mean=draw(st.floats(1.0, 16.0)),
        contention=draw(st.floats(0.0, 1.0)),
    )


class TestRandomProgramSoundness:
    @given(program=random_program(), tuning=random_tuning(),
           seed=st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_outcome_is_allowed(self, program, tuning, seed):
        oracle = TestOracle(program)
        rng = np.random.default_rng(seed)
        for _ in range(8):
            outcome = run_instance(program, tuning, rng)
            assert not oracle.is_violation(outcome), (
                program.pretty() + "\n" + outcome.describe()
            )

    @given(program=random_program(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_outcome_structure_complete(self, program, seed):
        rng = np.random.default_rng(seed)
        tuning = ExecutionTuning(0.2, 0.5, 2.0, 0.5)
        outcome = run_instance(program, tuning, rng)
        assert set(outcome.reads) == set(program.registers)
        assert set(outcome.finals) == set(program.locations)
