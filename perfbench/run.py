"""The repository benchmark: one workload, measured, checked, reported.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after the other.

The workloads are defined in ``workloads.py`` and declared, with the
metric names and units, in ``BENCHMARK.json`` at the root.  One run:

1. builds the workload's fixtures (``prepare``) from ``--seed``;
2. runs timed jobs back to back (one closed-loop caller) until
   ``--seconds`` are used up, three at least;
3. with ``--trace 1``, alternates untraced and traced jobs, then makes
   the traced-only probes, and reports the per-layer metrics; with
   ``--trace 0`` it reports the end-to-end metrics;
4. checks the outputs of every job and prints the result as one JSON
   object on the last line of standard output.

Timings are medians over the timed jobs.  The first job of a run is
the cold one, as every ``reproduce_all`` invocation is; the median
keeps one cold job from moving the figure.  Everything is written under
``.perfbench/`` in the checkout; the working directory is removed at
the end, the span trace of a traced run is kept under
``.perfbench/traces/``.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Timed jobs at least, whatever ``--seconds`` says.
MIN_JOBS = 3
#: Traced runs need untraced and traced jobs, two of each at least.
MIN_TRACED_JOBS = 4
#: Interpreter-and-import probes behind ``setup_s``.
IMPORT_PROBES = 3


def parse_args(workloads):
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads) + ["all"],
        help="one workload, or all of them in turn, each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_job(workload, tracer):
    """One job: set-up, the timed job, then disk accounting."""
    from repro import obs
    from repro.analysis import load_result

    if tracer.enabled:
        obs.enable()
    try:
        setup_s = workload.setup(tracer)
        result = workload.job(tracer)
        if tracer.enabled:
            with tracer.span("analysis.load"):
                for path in result.stats.values():
                    load_result(path)
    finally:
        obs.disable()
    workload.finish(result)
    return setup_s, result


def measure(workload, seconds, trace, tracer):
    """Timed jobs for ``seconds``; see the module docstring."""
    untraced = NullTracer()
    workload.prepare()
    jobs = []
    durations = []
    started = time.perf_counter()
    minimum = MIN_TRACED_JOBS if trace else MIN_JOBS
    while True:
        traced = trace and len(jobs) % 2 == 1
        job_started = time.perf_counter()
        setup_s, result = run_job(workload, tracer if traced else untraced)
        jobs.append((traced, setup_s, result))
        durations.append(time.perf_counter() - job_started)
        elapsed = time.perf_counter() - started
        if len(jobs) >= minimum and elapsed + median(durations) > seconds:
            break
    return jobs, elapsed


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its descendants'."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the workloads."""
    times = []
    for _ in range(IMPORT_PROBES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import workloads"], check=True
        )
        times.append(time.perf_counter() - started)
    return median(times)


def end_to_end(jobs, setup_imports, rss_mb):
    results = [result for _, _, result in jobs]
    return {
        "wall_s": median(r.wall_s for r in results),
        "setup_s": setup_imports + median(setup for _, setup, _ in jobs),
        "campaign_units_per_s": median(r.settled / r.campaign_s for r in results),
        "job_latency_p50_s": median(
            latency for r in results for latency in r.latencies
        ),
        "peak_rss_mb": rss_mb,
        "disk_mb": median(r.disk_bytes for r in results) / 1e6,
    }


def per_layer(declared, jobs, tracer):
    """Per-layer values: the workload's own, else span self times."""
    traced = [result for is_traced, _, result in jobs if is_traced]
    untraced = [result for is_traced, _, result in jobs if not is_traced]
    values = {}
    for name in declared:
        own = [r.layer[name] for r in traced if name in r.layer]
        spans = tracer.self_seconds(name[:-2]) if name.endswith("_s") else []
        if own:
            values[name] = median(own)
        elif spans:
            values[name] = median(spans)
    if values.get("backends.grid_probe_s"):
        values["campaign.grid_ratio"] = (
            values["campaign.run_s"] / values["backends.grid_probe_s"]
        )
    plain = median(r.wall_s for r in untraced)
    values["bench.trace_overhead_frac"] = (
        median(r.wall_s for r in traced) - plain
    ) / plain
    missing = sorted(set(declared) - set(values))
    # The contract wants every declared metric; one this workload has
    # no measurement for (a layer it never calls, a counter that lives
    # in another process) is reported as 0 and flagged in the text.
    values.update({name: 0.0 for name in missing})
    return values, missing


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)

    from workloads import WORKLOADS

    args = parse_args(WORKLOADS)
    if args.workload == "all":
        return max(
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}

    root = work / f"{args.workload}-{os.getpid()}"
    root.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, args.seed)
    tracer = Tracer()
    try:
        jobs, elapsed = measure(workload, args.seconds, args.trace, tracer)
        rss_mb = peak_rss_mb()
        if args.trace:
            workload.probe(tracer)
            values, unused = per_layer(units, jobs, tracer)
            tracer.write(work / "traces" / f"{args.workload}-seed{args.seed}.json")
        else:
            values = end_to_end(jobs, import_seconds(), rss_mb)
            unused = []
        everything = [result for _, _, result in jobs]
        checks = workload.checks(everything)
    finally:
        workload.close()
        shutil.rmtree(root, ignore_errors=True)

    attempted = sum(r.settled + r.service_jobs for r in everything) + len(checks)
    failed = sum(r.failed_units + r.service_jobs_failed for r in everything) + sum(
        not ok for _, ok in checks
    )
    report(args, jobs, elapsed, values, units, unused, checks, attempted, failed, tracer)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


def report(args, jobs, elapsed, values, units, unused, checks, attempted, failed, tracer):
    """The human-readable part of the output, before the JSON line."""
    traced = sum(is_traced for is_traced, _, _ in jobs)
    print(
        f"perfbench {args.workload} seed {args.seed}: {len(jobs)} timed "
        f"job(s), {traced} traced, in {elapsed:.1f} s"
    )
    for name, unit in units.items():
        note = "  (not measured on this workload)" if name in unused else ""
        print(f"  {name:34s} {values[name]:14.6g} {unit}{note}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if args.trace:
        print("self time by span, all traced jobs and probes:")
        for name, seconds in sorted(tracer.totals().items(), key=lambda kv: -kv[1]):
            print(f"  {name:34s} {seconds:14.4f} s")
    for description, ok in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {description}")


if __name__ == "__main__":
    sys.exit(main())
