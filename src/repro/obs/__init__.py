"""repro.obs — unified tracing, metrics, and profiling.

One dependency-free subsystem answers "what did the pipeline spend its
time on, and did the caches earn their keep" for every layer above the
formal model:

* :mod:`repro.obs.registry` — process-local counters/gauges/histograms
  whose snapshots merge associatively across worker processes;
* :mod:`repro.obs.tracer` — nested wall/CPU-time spans with
  deterministic sampling and a bounded, deterministically-dropping
  buffer, rendered as a "top spans / hot path" profile;
* :mod:`repro.obs.events` — structured lifecycle events (unit retried,
  deadline hit, serial fallback, candidate dropped);
* :mod:`repro.obs.recorder` — the facade call sites dispatch to; a
  no-op by default so disabled instrumentation costs one dynamic
  dispatch and nothing else;
* :mod:`repro.obs.export` — JSONL and Prometheus-text artifacts;
* :mod:`repro.obs.caches` — delta publication of every registered
  :class:`repro.memo.Memo`'s counters;
* :mod:`repro.obs.bench` — the shared ``BENCH_obs.json`` perf artifact.

Typical use (the CLI's ``--metrics-out``/``--trace`` flags do this):

>>> from repro import obs
>>> rec = obs.enable(trace=True)
>>> with obs.recorder().span("my_phase", detail="x"):
...     obs.recorder().counter_inc("my_things_total")
>>> # ... run the workload ...
>>> # obs.write_artifacts("out/obs", rec)   # doctest: +SKIP
"""

from repro.obs.bench import (
    bench_obs_path,
    emit,
    env_fingerprint,
    histogram_summary,
    update_bench_obs,
)
from repro.obs.caches import publish_cache_metrics, reset_publisher
from repro.obs.drift import (
    DriftReport,
    Finding,
    binomial_two_sided_p,
    binomial_z,
    check_run,
    compare,
    diff_runs,
)
from repro.obs.health import (
    HealthConfig,
    HealthMonitor,
    expected_rate_from_baseline,
    expected_units_from_baseline,
)
from repro.obs.events import EventLog
from repro.obs.export import (
    METRICS_FILENAME,
    PROM_FILENAME,
    TRACE_FILENAME,
    load_metrics_jsonl,
    load_trace_jsonl,
    metrics_jsonl_lines,
    prom_text,
    trace_jsonl_lines,
    write_artifacts,
)
from repro.obs.recorder import (
    NullRecorder,
    Recorder,
    configure,
    disable,
    enable,
    is_enabled,
    recorder,
    set_recorder,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    RATE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsError,
    merge_snapshots,
)
from repro.obs.report import (
    render_events,
    render_metrics,
    render_profile,
    render_report,
)
from repro.obs.timeline import (
    Ledger,
    RunRecord,
    TimelineError,
    record_from_bench,
    record_from_outcome,
    record_from_results,
    resolve_ledger,
)
from repro.obs.tracer import Tracer, aggregate_spans, hot_path

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "DriftReport",
    "EventLog",
    "Finding",
    "Gauge",
    "HealthConfig",
    "HealthMonitor",
    "Histogram",
    "Ledger",
    "METRICS_FILENAME",
    "MetricsRegistry",
    "NullRecorder",
    "ObsError",
    "PROM_FILENAME",
    "RATE_BUCKETS",
    "Recorder",
    "RunRecord",
    "TRACE_FILENAME",
    "TimelineError",
    "Tracer",
    "aggregate_spans",
    "bench_obs_path",
    "binomial_two_sided_p",
    "binomial_z",
    "check_run",
    "compare",
    "configure",
    "diff_runs",
    "disable",
    "emit",
    "enable",
    "env_fingerprint",
    "expected_rate_from_baseline",
    "expected_units_from_baseline",
    "histogram_summary",
    "hot_path",
    "is_enabled",
    "load_metrics_jsonl",
    "load_trace_jsonl",
    "merge_snapshots",
    "metrics_jsonl_lines",
    "prom_text",
    "publish_cache_metrics",
    "record_from_bench",
    "record_from_outcome",
    "record_from_results",
    "recorder",
    "render_events",
    "render_metrics",
    "render_profile",
    "render_report",
    "reset_publisher",
    "resolve_ledger",
    "set_recorder",
    "trace_jsonl_lines",
    "update_bench_obs",
    "write_artifacts",
]
