"""The zero-cost-when-disabled guarantee, measured.

.. code-block:: bash

    python scripts/bench_obs_overhead.py [--envs N] [--trials K] [--ledger]

Instrumented call sites always dispatch to ``obs.recorder()`` — a
``NullRecorder`` when observability is off.  The guarantee is that
this disabled path adds **<2%** to a real workload.  Two measurements
establish it:

1. **Workload floor** — a real tuning grid (every environment kind,
   the study devices, the full mutant suite) through the analytic
   model's serial reference loop (``run_serial``, one scalar
   ``run_cell`` per unit) with obs disabled, best of ``--trials`` runs.
   The loop does real work on every unit; the analytic backend would
   answer warm repeats of a whole grid from its kills cache without
   any per-unit dispatch, so it is the wrong denominator for a
   per-unit bound.
2. **Dispatch ceiling** — a microbenchmark of the per-unit disabled
   dispatch pattern (one ``recorder()`` lookup + ``enabled`` check
   per unit, plus the per-grid null span and guard), deliberately
   over-counted at 4 dispatches per unit.

The asserted bound is ``dispatch_per_unit / unit_time < 2%``: even if
every unit paid the over-counted dispatch pattern on top of its
measured time, the overhead stays under the bar.  Exit 0 iff it holds.

With ``--ledger`` a third measurement joins: the full fsync'd ledger
append of a representative :class:`RunRecord` (per-unit detail for the
whole grid included), amortized over the workload.  The ledger writes
once per *run*, not per unit, so the combined bound is
``(dispatch * units + append) / workload < 2%``.
"""

import argparse
import shutil
import sys
import tempfile
import time

from repro import obs
from repro.backends.analytic import run_serial
from repro.env import EnvironmentKind, environments_for
from repro.gpu import study_devices
from repro.mutation import default_suite

OVERHEAD_BAR = 0.02
SEED = 42


def time_workload(envs, trials):
    """Best-of-``trials`` wall time of one full grid, obs disabled."""
    devices = study_devices()
    tests = default_suite().mutants
    grids = {
        kind: environments_for(kind, envs, SEED)
        for kind in EnvironmentKind
    }
    units = sum(
        len(environments) * len(devices) * len(tests)
        for environments in grids.values()
    )
    best = float("inf")
    for _ in range(trials):
        started = time.perf_counter()
        for environments in grids.values():
            run_serial(devices, tests, environments, seed=SEED)
        best = min(best, time.perf_counter() - started)
    return best, units


def time_dispatch(iterations=200_000):
    """Seconds per disabled-path dispatch pattern (best of 3).

    One pattern = what a unit costs when obs is off, over-counted:
    four ``recorder()`` lookups + ``enabled`` checks and one null-span
    enter/exit (the real per-unit cost is one lookup and a fraction of
    a per-grid span).
    """
    recorder = obs.recorder
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(iterations):
            rec = recorder()
            if rec.enabled:
                raise AssertionError("obs must be disabled")
            recorder().enabled
            recorder().enabled
            with recorder().span("bench", attr=1):
                pass
        best = min(best, time.perf_counter() - started)
    return best / iterations


def time_ledger_append(units, trials):
    """Best-of-``trials`` seconds for one fsync'd run-record append.

    The record carries per-unit ``[kills, instances]`` detail for
    every unit in the measured grid — the worst-case payload a real
    campaign of this size would ship.
    """
    from repro.obs.timeline import Ledger, RunRecord

    root = tempfile.mkdtemp(prefix="obs-overhead-ledger-")
    try:
        ledger = Ledger(root, create=True)
        best = float("inf")
        for trial in range(max(trials, 1)):
            record = RunRecord(
                kind="bench-overhead",
                name="obs-overhead",
                fingerprint="f" * 16,
                utc=float(trial),
                seed=SEED,
                backend="analytic",
                wall_seconds=1.0,
                units=units,
                kills=units,
                instances=units * 1000,
                killed_units=units,
                units_detail=[[1, 1000] for _ in range(units)],
            )
            started = time.perf_counter()
            ledger.append(record)
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="assert the disabled-obs dispatch overhead bar"
    )
    parser.add_argument(
        "--envs", type=int, default=8,
        help="environments per tuning family (default 8)",
    )
    parser.add_argument(
        "--trials", type=int, default=3,
        help="workload repetitions; best run counts (default 3)",
    )
    parser.add_argument(
        "--ledger", action="store_true",
        help="also charge one fsync'd run-ledger append per run "
             "and hold the combined cost under the same bar",
    )
    args = parser.parse_args(argv)

    obs.disable()
    assert not obs.is_enabled()

    workload_seconds, units = time_workload(args.envs, args.trials)
    unit_seconds = workload_seconds / units
    dispatch_seconds = time_dispatch()
    append_seconds = 0.0
    if args.ledger:
        append_seconds = time_ledger_append(units, args.trials)
    overhead = (
        dispatch_seconds * units + append_seconds
    ) / workload_seconds

    print(
        f"workload: {units} units in {workload_seconds:.3f}s "
        f"(best of {args.trials}; {unit_seconds * 1e6:.1f}us/unit, "
        f"obs disabled)"
    )
    print(
        f"disabled dispatch pattern: {dispatch_seconds * 1e9:.0f}ns "
        f"(over-counted at 4 dispatches + 1 null span per unit)"
    )
    if args.ledger:
        print(
            f"ledger append ({units}-unit record, fsync'd): "
            f"{append_seconds * 1e6:.0f}us once per run"
        )
    print(
        f"worst-case overhead: {overhead * 100:.3f}% "
        f"(bar: {OVERHEAD_BAR * 100:.0f}%)"
    )
    if overhead >= OVERHEAD_BAR:
        print(
            f"FAIL: disabled-path overhead {overhead * 100:.3f}% "
            f"breaches the {OVERHEAD_BAR * 100:.0f}% bar",
            file=sys.stderr,
        )
        return 1
    print("OK: zero-cost-when-disabled holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
