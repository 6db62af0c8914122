"""Throughput of the two execution paths (substrate health check).

Not a paper figure, but the practical envelope of the reproduction:
how many operational instances per second the simulator executes, and
how fast the analytic path evaluates full iterations.  These bound the
scale every other benchmark can afford.
"""

import numpy as np

from repro.backends.analytic import run_cell
from repro.env import pte_baseline
from repro.gpu import ExecutionTuning, make_device, run_instance
from repro.litmus import library


def test_operational_executor_throughput(benchmark):
    test = library.mp_relacq()
    tuning = ExecutionTuning(0.1, 0.5, 2.0, 0.5)
    rng = np.random.default_rng(0)

    def run_batch():
        return [run_instance(test, tuning, rng) for _ in range(100)]

    outcomes = benchmark(run_batch)
    assert len(outcomes) == 100


def test_analytic_cell_throughput(benchmark):
    # The scalar cell, not Runner.run: the analytic backend would
    # answer every repeat of one unit from its kills cache.
    device = make_device("nvidia")
    test = library.mp()
    environment = pte_baseline()
    rng = np.random.default_rng(0)

    def run_once():
        return run_cell(
            device, test, environment, environment.iterations(), rng
        )

    run = benchmark(run_once)
    # One analytic run covers 100 iterations x 262144 instances.
    assert run.instances == 100 * 262_144
