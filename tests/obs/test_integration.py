"""End-to-end obs tests: campaigns, synthesis, and the CLI surface.

The contract under test: enabling observability never changes results
(it rides alongside the determinism contract), worker telemetry merges
to the same totals as a serial run, and the exported artifacts carry
the per-backend grid-time histograms and cache-effectiveness counters
the acceptance criteria name.
"""

import time

import pytest

from repro import obs
from repro.backends.base import GRID_SECONDS_METRIC, GRID_UNITS_METRIC
from repro.campaign import CampaignSpec, ExecutorConfig, run_campaign
from repro.campaign.metrics import UNIT_SECONDS_METRIC, UNITS_METRIC
from repro.cli import main
from repro.mutation import default_suite
from repro.obs.caches import CACHE_EVENTS_METRIC
from repro.synthesis import SynthesisConfig, synthesize
from repro.synthesis.engine import (
    CANDIDATES_METRIC,
    PHASE_SECONDS_METRIC,
)

NAMES = tuple(mutant.name for mutant in default_suite().mutants)


def _spec(**overrides):
    kwargs = dict(
        name="obs-test",
        kinds=("PTE", "SITE_BASELINE"),
        device_names=("AMD", "Intel"),
        test_names=NAMES[:3],
        environment_count=3,
        seed=9,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCampaignTelemetry:
    def test_serial_run_populates_registry(self):
        spec = _spec()
        rec = obs.enable()
        try:
            outcome = run_campaign(
                spec, config=ExecutorConfig(workers=1, retry_backoff=0.0)
            )
            registry = rec.registry
        finally:
            obs.disable()
        units = spec.unit_count()
        assert outcome.metrics.units_done == units
        assert registry.family_total(UNITS_METRIC) == units
        # The campaign is one shard, and each of its (kind, env)
        # blocks holds whole devices: one rectangle, so one grid pass
        # on the backend, per block.
        assert units <= ExecutorConfig().shard_size
        blocks = sum(
            len(spec.environments(kind)) for kind in spec.kind_members
        )
        grid_count = sum(
            histogram.count
            for name, _, histogram in registry.iter_histograms()
            if name == GRID_SECONDS_METRIC
        )
        assert grid_count == blocks
        assert registry.family_total(GRID_UNITS_METRIC) == units
        # Cache-effectiveness counters are always materialised (the
        # analytic backend makes zero oracle lookups, and the artifact
        # says so explicitly rather than omitting the family).
        cache_counters = {
            dict(labels)["cache"]
            for name, labels, _ in registry.iter_counters()
            if name == CACHE_EVENTS_METRIC
        }
        assert {"oracle", "tensor_grid", "tensor_kills"} <= cache_counters

    def test_worker_totals_merge_to_serial_totals(self):
        """Per-worker snapshots merged at the scheduler equal the
        serial run's totals — the registry's whole reason to exist."""
        spec = _spec()
        rec = obs.enable()
        try:
            run_campaign(
                spec, config=ExecutorConfig(workers=1, retry_backoff=0.0)
            )
            serial_units = rec.registry.family_total(UNITS_METRIC)
            serial_seconds_count = sum(
                histogram.count
                for name, _, histogram in rec.registry.iter_histograms()
                if name == UNIT_SECONDS_METRIC
            )
        finally:
            obs.disable()

        rec = obs.enable()
        try:
            run_campaign(
                spec,
                config=ExecutorConfig(
                    workers=2, shard_size=4, retry_backoff=0.0
                ),
            )
            pooled_units = rec.registry.family_total(UNITS_METRIC)
            pooled_seconds_count = sum(
                histogram.count
                for name, _, histogram in rec.registry.iter_histograms()
                if name == UNIT_SECONDS_METRIC
            )
        finally:
            obs.disable()
        assert pooled_units == serial_units == spec.unit_count()
        assert pooled_seconds_count == serial_seconds_count

    def test_disabled_obs_changes_nothing(self):
        spec = _spec()
        outcome = run_campaign(
            spec, config=ExecutorConfig(workers=1, retry_backoff=0.0)
        )
        # The always-on campaign telemetry still works...
        assert outcome.metrics.units_done == spec.unit_count()
        assert outcome.metrics.sim_seconds > 0
        assert outcome.metrics.units_per_second > 0
        # ...while the global recorder stayed the inert null.
        assert not obs.is_enabled()

    def test_trace_spans_cover_the_hot_path(self):
        spec = _spec(environment_count=2)
        rec = obs.enable(trace=True)
        try:
            run_campaign(
                spec, config=ExecutorConfig(workers=1, retry_backoff=0.0)
            )
            paths = {span["path"] for span in rec.tracer}
        finally:
            obs.disable()
        assert (
            "campaign.run/campaign.rectangle/backend.run_grid" in paths
        )

    def test_metrics_report_has_absolute_utc(self):
        spec = _spec(environment_count=2)
        before = time.time()
        outcome = run_campaign(
            spec, config=ExecutorConfig(workers=1, retry_backoff=0.0)
        )
        after = time.time()
        assert before <= outcome.metrics.started_at_utc <= after
        assert outcome.metrics.finished_at_utc is not None
        assert outcome.metrics.finished_at_utc >= outcome.metrics.started_at_utc
        # The report renders it as an absolute ISO timestamp.
        assert "started 20" in outcome.metrics.report()


class TestSynthesisTelemetry:
    def test_phase_and_candidate_counters(self):
        config = SynthesisConfig(edges=["com", "po-loc"], max_pairs=2)
        rec = obs.enable()
        try:
            suite = synthesize(config)
            registry = rec.registry
        finally:
            obs.disable()
        phases = {
            labels[0][1]
            for name, labels, _ in registry.iter_counters()
            if name == PHASE_SECONDS_METRIC
        }
        assert {"enumerate", "canonicalize", "mutate", "verify",
                "dedupe"} <= phases
        assert registry.family_total(CANDIDATES_METRIC) == (
            suite.stats.candidates_tried
        )
        assert registry.counter_value(
            CANDIDATES_METRIC, {"outcome": "admitted"}
        ) == len(suite.pairs) == 2

    def test_deadline_hits_surface_as_events(self):
        """A candidate deadline is a counted, named event, not a
        silent drop (forced by an unmeetable timeout)."""
        signal = pytest.importorskip("signal")
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        config = SynthesisConfig(
            edges=["com", "po-loc"], candidate_timeout=1e-9, max_pairs=1
        )
        rec = obs.enable()
        try:
            suite = synthesize(config)
            registry = rec.registry
        finally:
            obs.disable()
        assert suite.stats.candidates_timed_out > 0
        assert registry.counter_value(
            CANDIDATES_METRIC, {"outcome": "timed_out"}
        ) == suite.stats.candidates_timed_out
        assert registry.counter_value(
            "repro_events_total",
            {"event": "synthesis.candidate_deadline"},
        ) == suite.stats.candidates_timed_out


class TestCliSurface:
    def test_campaign_metrics_out_then_report_and_export(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "camp"
        obs_dir = tmp_path / "obs"
        assert main(
            [
                "campaign", "run",
                "--out", str(out_dir),
                "--smoke", "--serial",
                "--trace", "--metrics-out", str(obs_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "observability artifacts" in out
        metrics = obs_dir / "metrics.jsonl"
        assert metrics.exists()
        assert (obs_dir / "trace.jsonl").exists()
        prom = (obs_dir / "metrics.prom").read_text()
        assert "# TYPE repro_backend_grid_seconds histogram" in prom
        assert "repro_campaign_units_total" in prom
        assert "repro_cache_events_total" in prom

        assert main(
            [
                "obs", "report",
                "--metrics", str(metrics),
                "--trace", str(obs_dir / "trace.jsonl"),
            ]
        ) == 0
        report = capsys.readouterr().out
        assert "histograms" in report
        assert "hot path:" in report

        assert main(
            ["obs", "export", "--metrics", str(metrics),
             "--format", "prom"]
        ) == 0
        assert "repro_campaign_units_total" in capsys.readouterr().out

    def test_obs_report_missing_artifact(self, tmp_path, capsys):
        assert main(
            ["obs", "report", "--metrics", str(tmp_path / "nope.jsonl")]
        ) == 1
        assert "no metrics artifact" in capsys.readouterr().err
