"""The benchmark's four workloads.

Every workload is one closed-loop caller that runs the same timed job
over and over.  A workload object owns a working directory and gives
the harness in ``run.py`` these steps:

* ``prepare()``: one-time fixtures, outside every metric;
* ``setup(tracer)``: per-job set-up, counted in ``setup_s``;
* ``job(tracer)``: the timed job, returning a :class:`JobResult`;
* ``finish(result)``: after the clock stops, hash outputs, measure
  disk and clean up;
* ``probe(tracer)``: traced runs only, direct ``run_grid`` calls;
* ``checks(results)``: output checks, after all timing.

Spans (see ``tracer.py``) wrap each call into a ``repro`` layer.  The
per-layer counts come only from counters ``repro`` already exposes:
``CampaignMetrics``, ``outcome.health``, ``oracle_cache_stats()``,
``tensor_cache_stats()``, ``ResultStore.stats()`` and the service's
job records and metrics export.

Which end-to-end metric each layer metric should move, and where:

==================  ==========================  ===========================
layer metric        moves                       on
==================  ==========================  ===========================
mutation.*          wall_s                      paper-cold, store-delta
env.oracle_*        wall_s                      paper-cold
campaign.run_s,     campaign_units_per_s,       paper-cold, operational
unit_p50/p99_us,    wall_s, error rate
units_*, retries,
shards
campaign.journal_*  disk_mb                     paper-cold, store-delta
campaign.health_*   nothing (a calibration      paper-cold
                    count)
backends.*,         campaign_units_per_s        paper-cold (nearly nothing
campaign.grid_ratio                             on store-delta)
gpu.instances_per_s wall_s                      operational
store.*             wall_s, disk_mb, setup_s    store-delta
analysis.*          wall_s                      paper-cold, store-delta
service.*           setup_s, job_latency_p50_s, service-tenants
                    wall_s, error rate
bench.trace_*       nothing                     all
==================  ==========================  ===========================
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import (
    figure5,
    figure6,
    render_figure5_rates,
    render_figure5_scores,
    render_figure6,
    render_table2,
    render_table3,
    render_table4,
    save_result,
    table4,
)
from repro.backends import make_backend, tensor_cache_stats
from repro.backends.base import GRID_SECONDS_METRIC
from repro.campaign import CampaignSpec, ExecutorConfig, paper_spec, run_campaign
from repro.campaign.metrics import RETRIES_METRIC, UNIT_SECONDS_METRIC, UNITS_METRIC
from repro.env import EnvironmentKind, oracle_cache_stats, oracle_for
from repro.gpu import make_device
from repro.mutation import build_suite, default_suite
from repro.obs.registry import Histogram, MetricsRegistry, merge_snapshots
from repro.service import ServiceClient
from repro.service.jobstore import JOURNAL_FILENAME
from repro.service.runtime import SHARD_SECONDS_METRIC
from repro.service.server import endpoint_path
from repro.store import ResultStore
from tracer import NullTracer

#: Environments per random tuning family in the pipeline workloads:
#: 128 x (2 x 16 + 2) = 4,352 units; Figure 6 stays well above the
#: suite build, as at paper scale.
PIPELINE_ENVS = 16
#: Devices the store-delta snapshot is primed with: 3 of the 4.
PRIMED_DEVICES = ("NVIDIA", "AMD", "Intel")
#: The service burst, (tenant, devices) per job, in submit order.
#: Each job is 2 kinds x 2 devices x 32 mutants x 5 envs = 640 units.
SERVICE_JOBS = (
    ("alice", ("NVIDIA", "AMD")),
    ("bob", ("Intel", "M1")),
    ("carol", ("AMD", "Intel")),
    ("alice", ("M1", "NVIDIA")),
    ("bob", ("NVIDIA", "Intel")),
    ("carol", ("AMD", "M1")),
)
SERVICE_ENVS = 5
SERVICE_WORKERS = 2
#: The operational campaign: every 8th mutant on two devices at the
#: fixed PTE baseline, 8 units.
OPERATIONAL_DEVICES = ("AMD", "Intel")
OPERATIONAL_INSTANCES = 64
JOURNAL = "campaign.jsonl"


@dataclass
class JobResult:
    """What one timed job produced and measured."""

    wall_s: float
    #: The campaign phase: the ``run_campaign`` call, or for the
    #: service, first submit to last terminal event.
    campaign_s: float
    #: Units settled: executed plus reused from the store.
    settled: int
    failed_units: int
    #: Per-job latencies: one per service job, the job itself otherwise.
    latencies: List[float]
    #: Stats files by a name stable across jobs.
    stats: Dict[str, Path]
    #: Per-layer values measured by this job.
    layer: Dict[str, float]
    #: Facts the output checks inspect.
    facts: Dict[str, object] = field(default_factory=dict)
    service_jobs: int = 0
    service_jobs_failed: int = 0
    #: Filled in by ``finish``: sha256 of each stats file, disk use.
    outputs: Dict[str, str] = field(default_factory=dict)
    disk_bytes: int = 0


def tree_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, files in os.walk(path)
        for name in files
    )


def digests(stats: Dict[str, Path]) -> Dict[str, str]:
    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in stats.items()
    }


def merged_histogram(registry, family: str) -> Optional[Histogram]:
    """``family`` with every label set folded into one histogram."""
    folded = MetricsRegistry()
    folded.merge(
        {
            "histograms": [
                {**entry, "labels": {}}
                for entry in registry.snapshot()["histograms"]
                if entry["name"] == family
            ]
        }
    )
    histogram = folded.histogram(family)
    return histogram if histogram.count else None


def backend_seconds() -> float:
    """Per-unit backend time summed in the process obs registry.

    ``repro`` feeds that histogram only while ``repro.obs`` is enabled,
    which the harness does for traced jobs.
    """
    rec = obs.recorder()
    histogram = (
        merged_histogram(rec.registry, GRID_SECONDS_METRIC)
        if rec.enabled else None
    )
    return histogram.sum if histogram is not None else 0.0


def cache_counts() -> Dict[str, int]:
    oracle = oracle_cache_stats()
    tensor = tensor_cache_stats()
    return {
        "env.oracle_hits": oracle.hits,
        "env.oracle_misses": oracle.misses,
        "backends.tensor_cache_hits": (
            tensor.grid_hits + tensor.kills_hits + tensor.jitter_hits
        ),
        "backends.tensor_cache_misses": (
            tensor.grid_misses + tensor.kills_misses + tensor.jitter_misses
        ),
    }


def campaign_layer(registry) -> Dict[str, float]:
    """Campaign-layer values from a campaign metrics registry."""
    layer = {
        "campaign.units_executed": registry.family_total(UNITS_METRIC),
        "campaign.retries": registry.family_total(RETRIES_METRIC),
    }
    units = merged_histogram(registry, UNIT_SECONDS_METRIC)
    if units is not None:
        layer["campaign.unit_p50_us"] = 1e6 * units.quantile(0.5)
        layer["campaign.unit_p99_us"] = 1e6 * units.quantile(0.99)
    return layer


def timed_campaign(tracer, spec: CampaignSpec, out: Path):
    """``run_campaign`` under a span, with its per-layer values."""
    caches = cache_counts()
    backend_before = backend_seconds()
    with tracer.span("campaign.run"):
        started = time.perf_counter()
        outcome = run_campaign(
            spec, journal_path=out / JOURNAL, config=ExecutorConfig(workers=1)
        )
        campaign_s = time.perf_counter() - started
    metrics = outcome.metrics
    settled = metrics.units_done + metrics.store_units
    health = outcome.health or {}
    layer = campaign_layer(metrics.registry)
    layer.update(
        {name: value - caches[name] for name, value in cache_counts().items()}
    )
    layer.update(
        {
            "campaign.run_s": campaign_s,
            "campaign.journal_bytes_per_unit": (
                (out / JOURNAL).stat().st_size / settled
            ),
            "campaign.units_failed": metrics.units_failed,
            "campaign.shards": metrics.shards,
            "campaign.health_flags": (
                health.get("stragglers", 0) + int(bool(health.get("kill_drift")))
            ),
            "store.hits": metrics.store_hits,
            "store.misses": metrics.store_misses,
            "store.puts": metrics.store_writes,
            "store.reuse_frac": metrics.store_units / settled,
        }
    )
    if tracer.enabled:
        layer["backends.unit_s_sum"] = backend_seconds() - backend_before
    return outcome, campaign_s, settled, layer


def save_stats(tracer, results, out: Path, prefix: str = "") -> Dict[str, Path]:
    stats = {}
    with tracer.span("analysis.save"):
        for kind, result in results.items():
            name = f"{kind.name.lower()}.json"
            save_result(result, out / name)
            stats[prefix + name] = out / name
    return stats


def grid_probe(tracer, specs: Sequence[CampaignSpec], tests) -> None:
    """One direct ``run_grid`` per kind on each spec's grid."""
    with tracer.span("backends.grid_probe"):
        for spec in specs:
            backend = make_backend(
                spec.backend,
                max_operational_instances=spec.max_operational_instances,
            )
            devices = [make_device(name) for name in spec.device_names]
            chosen = [tests[name] for name in spec.test_names]
            for kind in spec.kind_members:
                backend.run_grid(
                    devices, chosen, spec.environments(kind), seed=spec.seed,
                    iterations_override=spec.iterations_override,
                )


def same_outputs(results: Sequence[JobResult]) -> Tuple[str, bool]:
    return (
        "stats identical across the run's jobs",
        all(result.outputs == results[0].outputs for result in results),
    )


class Workload:
    """Shared plumbing; see the module docstring for the steps."""

    name = ""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.out = root / "out"
        self.tests = {test.name: test for test in default_suite().mutants}

    def prepare(self) -> None:
        pass

    def setup(self, tracer) -> float:
        return 0.0

    def finish(self, result: JobResult) -> None:
        result.outputs = digests(result.stats)
        result.disk_bytes = tree_bytes(self.out)
        shutil.rmtree(self.out)

    def close(self) -> None:
        pass


class PaperCold(Workload):
    """``reproduce_all`` on the paper's grid shape, no store."""

    name = "paper-cold"
    store_path: Optional[Path] = None

    def spec(self, device_names=None) -> CampaignSpec:
        return paper_spec(
            tuple(self.tests),
            environment_count=PIPELINE_ENVS,
            seed=self.seed,
            backend="tensor",
            device_names=device_names,
            store_path=None if self.store_path is None else str(self.store_path),
            store_policy="off" if self.store_path is None else "reuse",
        )

    def job(self, tracer) -> JobResult:
        out = self.out
        out.mkdir(parents=True)
        started = time.perf_counter()
        with tracer.span("job"):
            with tracer.span("mutation.build_suite"):
                suite = build_suite()
            outcome, campaign_s, settled, layer = timed_campaign(
                tracer, self.spec(), out
            )
            results = outcome.results
            stats = save_stats(tracer, results, out)
            with tracer.span("analysis.figure5"):
                fig5 = figure5(results, suite)
            with tracer.span("analysis.figure6"):
                fig6 = figure6(
                    {
                        kind: results[kind]
                        for kind in (EnvironmentKind.PTE, EnvironmentKind.SITE)
                    }
                )
            with tracer.span("analysis.table4"):
                rows = table4(
                    environment_count=PIPELINE_ENVS, iterations=100,
                    seed=self.seed,
                )
            with tracer.span("analysis.render"):
                render(out, suite, fig5, fig6, rows)
        wall_s = time.perf_counter() - started
        return JobResult(
            wall_s=wall_s,
            campaign_s=campaign_s,
            settled=settled,
            failed_units=len(outcome.failed),
            latencies=[wall_s],
            stats=stats,
            layer=layer,
            facts={
                "table2": (len(suite.conformance_tests), len(suite.mutants)),
                "fig5": [
                    fig5.score(kind)
                    for kind in (
                        EnvironmentKind.SITE_BASELINE,
                        EnvironmentKind.SITE,
                        EnvironmentKind.PTE_BASELINE,
                        EnvironmentKind.PTE,
                    )
                ],
            },
        )

    def probe(self, tracer) -> None:
        grid_probe(tracer, [self.spec()], self.tests)

    def checks(self, results: Sequence[JobResult]) -> List[Tuple[str, bool]]:
        return [
            (
                "Table 2 has 20 conformance tests and 32 mutants",
                all(r.facts["table2"] == (20, 32) for r in results),
            ),
            (
                "Figure 5 scores keep SITE-baseline < SITE < PTE-baseline < PTE",
                all(
                    a < b
                    for r in results
                    for a, b in zip(r.facts["fig5"], r.facts["fig5"][1:])
                ),
            ),
            same_outputs(results),
        ]


def render(out: Path, suite, fig5, fig6, rows) -> None:
    """The text artefacts ``reproduce_all`` writes."""
    groups = ("combined", "reversing po-loc", "weakening po-loc", "weakening sw")
    (out / "table2.txt").write_text(render_table2(suite) + "\n")
    (out / "table3.txt").write_text(render_table3() + "\n")
    (out / "figure5_scores.txt").write_text(
        "\n\n".join(render_figure5_scores(fig5, g) for g in groups) + "\n"
    )
    (out / "figure5_rates.txt").write_text(
        "\n\n".join(render_figure5_rates(fig5, g) for g in groups) + "\n"
    )
    (out / "figure6.txt").write_text(render_figure6(fig6) + "\n")
    (out / "table4.txt").write_text(render_table4(rows) + "\n")


class StoreDelta(PaperCold):
    """The same pipeline against a store primed with 3 of 4 devices."""

    name = "store-delta"

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.snapshot = root / "snapshot"
        self.store_path = root / "store"

    def prepare(self) -> None:
        """Prime the snapshot once: the 3 devices' units, written through."""
        spec = replace(
            self.spec(device_names=PRIMED_DEVICES), store_path=str(self.snapshot)
        )
        run_campaign(spec, config=ExecutorConfig(workers=1))
        self.snapshot_bytes = tree_bytes(self.snapshot)

    def setup(self, tracer) -> float:
        """Restore the snapshot, so every job starts from the same store.

        Objects are hard-linked: the store replaces files atomically and
        never writes one in place, so the snapshot stays intact.
        """
        shutil.rmtree(self.store_path, ignore_errors=True)
        with tracer.span("store.restore"):
            started = time.perf_counter()
            shutil.copytree(self.snapshot, self.store_path, copy_function=os.link)
            return time.perf_counter() - started

    def finish(self, result: JobResult) -> None:
        stats = ResultStore(self.store_path).stats()
        result.layer["store.bytes_per_object"] = stats.bytes / stats.objects
        growth = tree_bytes(self.store_path) - self.snapshot_bytes
        super().finish(result)
        result.disk_bytes += growth

    def checks(self, results: Sequence[JobResult]) -> List[Tuple[str, bool]]:
        reference = self.root / "reference"
        reference.mkdir()
        spec = replace(self.spec(), store_path=None, store_policy="off")
        outcome = run_campaign(spec, config=ExecutorConfig(workers=1))
        expected = digests(save_stats(NullTracer(), outcome.results, reference))
        return [
            (
                "stats identical to a store-off run of the same spec",
                all(r.outputs == expected for r in results),
            ),
            (
                "3 of 4 devices' units reused from the store",
                all(r.layer["store.reuse_frac"] == 0.75 for r in results),
            ),
            same_outputs(results),
        ]


class ServiceTenants(Workload):
    """A burst of small tensor campaigns from 3 tenants to one daemon."""

    name = "service-tenants"

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.out = root / "service"
        self.daemon: Optional[subprocess.Popen] = None
        self.specs = [
            (
                tenant,
                CampaignSpec(
                    name=f"burst-{index}",
                    kinds=("SITE", "PTE"),
                    device_names=devices,
                    test_names=tuple(self.tests),
                    environment_count=SERVICE_ENVS,
                    seed=self.seed + index,
                    backend="tensor",
                ),
            )
            for index, (tenant, devices) in enumerate(SERVICE_JOBS)
        ]

    def setup(self, tracer) -> float:
        """Start a fresh daemon; return the seconds until /healthz answers."""
        self.out.mkdir(parents=True)
        with open(self.root / "daemon.log", "ab") as log, tracer.span(
            "service.start"
        ):
            started = time.perf_counter()
            self.daemon = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "service", "start",
                    "--root", str(self.out),
                    "--workers", str(SERVICE_WORKERS), "--pool", "process",
                ],
                stdout=log, stderr=subprocess.STDOUT,
                # Its own process group, so ``close`` can stop the pool
                # workers and resource tracker along with the daemon.
                start_new_session=True,
            )
            self.client = self._wait_healthy(started)
            return time.perf_counter() - started

    def _wait_healthy(self, started: float) -> ServiceClient:
        endpoint = endpoint_path(self.out)
        while time.perf_counter() - started < 60:
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"service daemon exited with {self.daemon.returncode}"
                )
            try:
                pid = json.loads(endpoint.read_text()).get("pid")
            except (OSError, json.JSONDecodeError):
                pid = None
            if pid == self.daemon.pid:
                client = ServiceClient(root=self.out, timeout=120)
                if client.health().get("ok"):
                    return client
            time.sleep(0.01)
        raise RuntimeError("service daemon did not answer /healthz in 60 s")

    def job(self, tracer) -> JobResult:
        """Submit the burst back to back, then watch each job to its end.

        One connection at a time.  A job's latency runs from its submit
        to its terminal event, as the daemon stamps it (``finished_utc``),
        so a job that ends while an earlier one is being watched is not
        charged the wait.
        """
        client = self.client
        submitted = []
        submit_ms = []
        started = time.perf_counter()
        with tracer.span("job"):
            for tenant, spec in self.specs:
                submit_utc = time.time()
                with tracer.span("service.submit"):
                    job_id = client.submit(spec.to_dict(), tenant=tenant)["job_id"]
                submit_ms.append(1000 * (time.time() - submit_utc))
                submitted.append((tenant, job_id, submit_utc))
            events = []
            for _, job_id, _ in submitted:
                with tracer.span("service.watch"):
                    events.append(list(client.watch(job_id)))
        wall_s = time.perf_counter() - started

        records = [client.job(job_id) for _, job_id, _ in submitted]
        submits = [submit_utc for _, _, submit_utc in submitted]
        finished = [record["finished_utc"] for record in records]
        tenant_finish: Dict[str, float] = {}
        for (tenant, _, _), end in zip(submitted, finished):
            tenant_finish[tenant] = max(tenant_finish.get(tenant, end), end)
        job_dirs = [self.out / "jobs" / job_id for _, job_id, _ in submitted]
        settled = sum(record["done"] for record in records)
        campaign_s = max(finished) - submits[0]
        jobs_failed = sum(record["state"] != "done" for record in records)
        layer = campaign_layer(
            merge_snapshots(
                [event["metrics"] for stream in events for event in stream
                 if event.get("metrics")]
            )
        )
        layer.update(
            {
                "campaign.run_s": campaign_s,
                "campaign.journal_bytes_per_unit": sum(
                    (directory / JOURNAL_FILENAME).stat().st_size
                    for directory in job_dirs
                ) / settled,
                "campaign.units_failed": sum(r["failed_units"] for r in records),
                "campaign.shards": shard_count(client),
                "campaign.health_flags": sum(
                    r["health"]["stragglers"] + int(bool(r["health"]["kill_drift"]))
                    for r in records
                ),
                "service.submit_p50_ms": median(submit_ms),
                "service.dispatch_wait_p50_s": median(
                    record["started_utc"] - submit_utc
                    for record, submit_utc in zip(records, submits)
                ),
                "service.sse_events": sum(len(stream) for stream in events),
                "service.jobs_done": len(records) - jobs_failed,
                "service.jobs_failed": jobs_failed,
                "service.tenant_finish_spread_s": (
                    max(tenant_finish.values()) - min(tenant_finish.values())
                ),
            }
        )
        return JobResult(
            wall_s=wall_s,
            campaign_s=campaign_s,
            settled=settled,
            failed_units=layer["campaign.units_failed"],
            latencies=[end - submit for end, submit in zip(finished, submits)],
            stats={
                f"{index}/{kind.lower()}.json":
                    directory / f"{kind.lower()}.json"
                for index, directory in enumerate(job_dirs)
                for kind in self.specs[index][1].kinds
            },
            layer=layer,
            service_jobs=len(records),
            service_jobs_failed=jobs_failed,
        )

    def finish(self, result: JobResult) -> None:
        try:
            self.client.shutdown()
            self.daemon.wait(timeout=30)
        finally:
            self.close()
        super().finish(result)

    def close(self) -> None:
        """Stop the daemon's whole process group, whatever state it is in."""
        if self.daemon is None:
            return
        for signal_number in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.daemon.pid, signal_number)
            except ProcessLookupError:
                break
            try:
                self.daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                continue
        self.daemon.wait(timeout=30)
        self.daemon = None

    def probe(self, tracer) -> None:
        grid_probe(tracer, [spec for _, spec in self.specs], self.tests)

    def checks(self, results: Sequence[JobResult]) -> List[Tuple[str, bool]]:
        expected = {}
        for index, (_, spec) in enumerate(self.specs):
            directory = self.root / "reference" / str(index)
            directory.mkdir(parents=True)
            outcome = run_campaign(spec, config=ExecutorConfig(workers=1))
            expected.update(
                digests(
                    save_stats(
                        NullTracer(), outcome.results, directory, f"{index}/"
                    )
                )
            )
        return [
            (
                "every job's stats identical to an in-process run_campaign",
                all(r.outputs == expected for r in results),
            ),
            ("every job ends done", all(r.service_jobs_failed == 0 for r in results)),
        ]


def shard_count(client: ServiceClient) -> int:
    """Shards the daemon ran, from its ``/metrics.jsonl`` export."""
    return sum(
        record["count"]
        for record in map(json.loads, client.metrics_jsonl_text().splitlines())
        if record.get("name") == SHARD_SECONDS_METRIC
    )


class Operational(Workload):
    """A small campaign on the operational (simulating) backend."""

    name = "operational"

    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="operational",
            kinds=("PTE_BASELINE",),
            device_names=OPERATIONAL_DEVICES,
            test_names=tuple(self.tests)[::8],
            environment_count=1,
            seed=self.seed,
            backend="operational",
            max_operational_instances=OPERATIONAL_INSTANCES,
        )

    def job(self, tracer) -> JobResult:
        out = self.out
        out.mkdir(parents=True)
        started = time.perf_counter()
        with tracer.span("job"):
            outcome, campaign_s, settled, layer = timed_campaign(
                tracer, self.spec(), out
            )
            stats = save_stats(tracer, outcome.results, out)
        wall_s = time.perf_counter() - started
        layer["gpu.instances_per_s"] = settled * OPERATIONAL_INSTANCES / campaign_s
        return JobResult(
            wall_s=wall_s,
            campaign_s=campaign_s,
            settled=settled,
            failed_units=len(outcome.failed),
            latencies=[wall_s],
            stats=stats,
            layer=layer,
            facts={
                "runs": [run for r in outcome.results.values() for run in r.runs]
            },
        )

    def probe(self, tracer) -> None:
        grid_probe(tracer, [self.spec()], self.tests)

    def checks(self, results: Sequence[JobResult]) -> List[Tuple[str, bool]]:
        return [
            (
                "operational kills agree directionally with the analytic model",
                all(
                    directional_agreement(r.facts["runs"], self.tests)
                    for r in results
                ),
            ),
            same_outputs(results),
        ]


def directional_agreement(runs, tests) -> bool:
    """The rule of ``repro.backends.validate_directional_agreement``,
    applied to a campaign's own operational outputs: a unit that the
    analytic model gives zero probability and the memory model forbids
    is never killed, and ranking the units by analytic probability and
    by operational kills does not anti-correlate."""
    pairs = []
    for run in runs:
        device = make_device(run.device_name)
        test = tests[run.test_name]
        probability = device.instance_probability(
            test,
            run.environment.workload(device.profile, test),
            env_key=run.environment.env_key,
        )
        if (
            probability == 0.0 and run.kills > 0
            and not oracle_for(test).target_allowed()
        ):
            return False
        pairs.append((probability, run.kills))
    concordant = discordant = 0
    for i, (p_i, k_i) in enumerate(pairs):
        for p_j, k_j in pairs[i + 1:]:
            sign = (p_i - p_j) * (k_i - k_j)
            concordant += sign > 0
            discordant += sign < 0
    return concordant >= discordant


WORKLOADS = {
    workload.name: workload
    for workload in (PaperCold, StoreDelta, ServiceTenants, Operational)
}
