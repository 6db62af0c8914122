"""Tests for statistical regression detection (repro.obs.drift).

Two contracts matter here:

* **zero false positives on bit-identical re-runs** — for backends
  with the ``bitwise`` equivalence contract, a seeded re-run produces
  exactly the baseline's counts, so the binomial residual is exactly
  zero and no check may fire, whatever the data looks like (a
  Hypothesis property, not an example);
* **the tensor backend's statistical contract maps onto the same
  ±6σ band** the detector uses, so its runs pass the check too.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, ExecutorConfig, run_campaign
from repro.mutation import default_suite
from repro.obs.drift import (
    binomial_two_sided_p,
    binomial_z,
    check_run,
    compare,
    diff_runs,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import (
    Ledger,
    RunRecord,
    TimelineError,
    record_from_outcome,
)

SUITE = default_suite()
NAMES = tuple(mutant.name for mutant in SUITE.mutants)

FP = "c" * 16


def record(utc=1.0, kills=50, instances=10_000, killed_units=3,
           units=4, metrics=None, bench=None, units_detail=None):
    per_kind = {"pte": {"units": units, "kills": kills,
                        "instances": instances,
                        "killed_units": killed_units}}
    return RunRecord(
        kind="campaign", name="drift-test", fingerprint=FP, utc=utc,
        units=units, kills=kills, instances=instances,
        killed_units=killed_units, kinds=per_kind,
        units_detail=units_detail, metrics=metrics, bench=bench,
    )


def unit_seconds_snapshot(value, count=10):
    registry = MetricsRegistry()
    for _ in range(count):
        registry.histogram(
            "repro_campaign_unit_seconds", None, None
        ).observe(value)
    return registry.snapshot()


def cache_snapshot(hits, misses):
    registry = MetricsRegistry()
    registry.counter(
        "repro_cache_events_total", {"event": "hit"}
    ).inc(hits)
    registry.counter(
        "repro_cache_events_total", {"event": "miss"}
    ).inc(misses)
    return registry.snapshot()


class TestBinomialMachinery:
    def test_z_is_zero_at_the_mean(self):
        assert binomial_z(50, 1000, 0.05) == 0.0
        assert binomial_z(0, 0, 0.5) == 0.0

    def test_z_matches_the_formula(self):
        z = binomial_z(70, 1000, 0.05)
        assert z == pytest.approx(
            (70 - 50) / math.sqrt(1000 * 0.05 * 0.95)
        )

    def test_degenerate_rates(self):
        assert binomial_z(0, 100, 0.0) == 0.0
        assert binomial_z(1, 100, 0.0) == math.inf
        assert binomial_z(100, 100, 1.0) == 0.0

    def test_exact_p_value_sums_the_tails(self):
        # Bin(10, 0.5): P(k=0 or 10) = 2/1024.
        assert binomial_two_sided_p(0, 10, 0.5) == pytest.approx(
            2 / 1024
        )
        assert binomial_two_sided_p(5, 10, 0.5) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_large_n_normal_approximation(self):
        # Well inside the bulk: p-value near 1; far out: near 0.
        n, p = 1_000_000, 0.01
        assert binomial_two_sided_p(10_000, n, p) > 0.9
        assert binomial_two_sided_p(12_000, n, p) < 1e-12

    @given(
        n=st.integers(1, 500),
        k=st.integers(0, 500),
        p=st.floats(0.01, 0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_p_value_is_a_probability(self, n, k, p):
        k = min(k, n)
        value = binomial_two_sided_p(k, n, p)
        assert 0.0 <= value <= 1.0


class TestCompare:
    def test_no_baseline_is_a_note_not_a_finding(self):
        report = compare(record(), [])
        assert report.ok
        assert any("no baseline" in note for note in report.notes)

    def test_fingerprint_mismatch_raises(self):
        alien = record()
        alien.fingerprint = "d" * 16
        with pytest.raises(TimelineError):
            compare(record(), [alien])

    def test_identical_reruns_are_clean(self):
        baselines = [record(utc=float(i)) for i in range(5)]
        report = compare(record(utc=9.0), baselines)
        assert report.ok
        assert report.baseline_runs == 5

    def test_kill_rate_drift_flagged_with_evidence(self):
        report = compare(
            record(utc=9.0, kills=200), [record(utc=1.0)]
        )
        checks = [f.check for f in report.findings]
        assert "kill_rate" in checks
        finding = next(
            f for f in report.findings if f.check == "kill_rate"
        )
        assert abs(finding.z) > 6
        assert finding.p_value < 1e-9
        # Per-kind breakdown fires too (all kills are in 'pte').
        assert any(
            f.details.get("environment_kind") == "pte"
            for f in report.findings
        )

    def test_killed_units_drift_flagged(self):
        baselines = [
            record(utc=float(i), units=1000, killed_units=100)
            for i in range(3)
        ]
        report = compare(
            record(utc=9.0, units=1000, killed_units=300), baselines
        )
        assert any(
            f.check == "killed_units" for f in report.findings
        )

    def test_latency_needs_two_of_three(self):
        baselines = [
            record(utc=1.0, metrics=unit_seconds_snapshot(0.01))
        ]
        slow = compare(
            record(utc=9.0, metrics=unit_seconds_snapshot(0.1)),
            baselines,
        )
        finding = next(
            f for f in slow.findings if f.check == "latency"
        )
        assert len(finding.details["regressed"]) >= 2
        same = compare(
            record(utc=9.0, metrics=unit_seconds_snapshot(0.01)),
            baselines,
        )
        assert not any(
            f.check == "latency" for f in same.findings
        )

    def test_latency_needs_enough_observations(self):
        baselines = [
            record(utc=1.0, metrics=unit_seconds_snapshot(0.01,
                                                          count=3))
        ]
        report = compare(
            record(utc=9.0,
                   metrics=unit_seconds_snapshot(0.1, count=3)),
            baselines,
        )
        assert not any(
            f.check == "latency" for f in report.findings
        )

    def test_cache_hit_rate_drop(self):
        baselines = [record(utc=1.0, metrics=cache_snapshot(90, 10))]
        dropped = compare(
            record(utc=9.0, metrics=cache_snapshot(50, 50)),
            baselines,
        )
        assert any(
            f.check == "cache_hit_rate" for f in dropped.findings
        )
        steady = compare(
            record(utc=9.0, metrics=cache_snapshot(88, 12)),
            baselines,
        )
        assert not any(
            f.check == "cache_hit_rate" for f in steady.findings
        )

    def test_missing_metrics_is_a_note(self):
        report = compare(record(utc=9.0), [record(utc=1.0)])
        assert any(
            "no metrics snapshot" in note for note in report.notes
        )

    def test_bench_stage_changepoint(self):
        def bench(median):
            return {"warm": {"count": 20, "median": median,
                             "p90": median * 1.2,
                             "mean": median * 1.05,
                             "sum": median * 20}}

        report = compare(
            record(utc=9.0, bench=bench(0.3)),
            [record(utc=float(i), bench=bench(0.1))
             for i in range(3)],
        )
        finding = next(
            f for f in report.findings if f.check == "bench_latency"
        )
        assert finding.details["stage"] == "warm"

    def test_report_serialization(self):
        report = compare(
            record(utc=9.0, kills=200), [record(utc=1.0)]
        )
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["findings"]
        text = report.describe()
        assert "REGRESSION" in text
        clean = compare(record(utc=9.0), [record(utc=1.0)])
        assert "OK — no drift detected" in clean.describe()


class TestCheckRun:
    def test_empty_ledger_raises(self, tmp_path):
        with pytest.raises(TimelineError):
            check_run(Ledger(tmp_path))

    def test_picks_the_newest_run_across_fingerprints(self, tmp_path):
        ledger = Ledger(tmp_path)
        other = record(utc=1.0)
        other.fingerprint = "e" * 16
        ledger.append(other)
        ledger.append(record(utc=2.0))
        ledger.append(record(utc=3.0, kills=200))
        report = check_run(ledger)
        assert report.fingerprint == FP
        assert not report.ok

    def test_clean_rerun_passes(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.append(record(utc=1.0))
        ledger.append(record(utc=2.0))
        assert check_run(ledger).ok


class TestDiffRuns:
    def test_deltas(self):
        payload = diff_runs(
            record(utc=9.0, kills=60), record(utc=1.0, kills=50)
        )
        assert payload["kill_rate"]["delta"] == pytest.approx(
            10 / 10_000
        )
        assert payload["runs"] == {"observed": 9.0, "baseline": 1.0}


# -- the equivalence-contract properties (satellite 6) ----------------------

unit_counts = st.lists(
    st.tuples(st.integers(0, 50), st.integers(100, 5000)),
    min_size=1,
    max_size=32,
)


class TestContractProperties:
    @given(units=unit_counts, copies=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_reruns_never_flag(self, units, copies):
        """Whatever a deterministic grid produced, replaying the very
        same counts against any window of identical baselines is
        clean: the binomial residual is exactly zero by construction."""
        kills = sum(min(k, n) for k, n in units)
        instances = sum(n for _, n in units)
        killed = sum(1 for k, n in units if min(k, n) > 0)
        detail = [[min(k, n), n] for k, n in units]

        def make(utc):
            return record(
                utc=utc, kills=kills, instances=instances,
                killed_units=killed, units=len(units),
                units_detail=detail,
            )

        report = compare(
            make(100.0), [make(float(i)) for i in range(copies)]
        )
        assert report.ok, report.describe()

    @given(
        n=st.integers(10_000, 1_000_000),
        p=st.floats(0.001, 0.2),
        offset=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_statistical_contract_maps_onto_the_sigma_band(
        self, n, p, offset
    ):
        """A 'statistical' backend may deviate from the baseline by
        up to the contract's ±6σ; any such run must pass, and any run
        beyond the band must flag."""
        def make(utc, kills):
            return RunRecord(
                kind="campaign", name="stat", fingerprint=FP,
                utc=utc, units=1, kills=kills, instances=n,
            )

        base_k = int(n * p)
        # The detector's expectation is the *pooled baseline* rate, so
        # measure deviations in its units, not the generator's.
        base_p = base_k / n
        sd = math.sqrt(n * base_p * (1 - base_p))
        inside = int(base_k + offset * 5.5 * sd)
        inside = min(max(inside, 0), n)
        report = compare(make(9.0, inside), [make(1.0, base_k)])
        assert not any(
            f.check == "kill_rate" for f in report.findings
        ), report.describe()
        outside = int(base_k + math.copysign(8.0 * sd + 1, offset or 1))
        outside = min(max(outside, 0), n)
        if abs(binomial_z(outside, n, base_k / n)) > 6:
            flagged = compare(
                make(9.0, outside), [make(1.0, base_k)]
            )
            assert any(
                f.check == "kill_rate" for f in flagged.findings
            )


class TestSeededBackendReruns:
    """End-to-end: real campaigns, real backends, real records."""

    def outcome(self, backend, seed):
        spec = CampaignSpec(
            name="contract",
            kinds=("PTE",),
            device_names=("AMD",),
            test_names=NAMES[:2],
            environment_count=2,
            seed=seed,
            backend=backend,
        )
        return run_campaign(
            spec, config=ExecutorConfig(workers=1, retry_backoff=0.0)
        )

    @pytest.mark.parametrize("backend", ["analytic", "vectorized"])
    def test_bitwise_backends_rerun_clean(self, backend):
        first = record_from_outcome(self.outcome(backend, seed=13))
        again = record_from_outcome(self.outcome(backend, seed=13))
        assert first.kills == again.kills
        assert first.units_detail == again.units_detail
        report = compare(again, [first])
        assert report.ok, report.describe()

    def test_retired_vectorized_name_records_analytic_units(self):
        # ``vectorized`` resolves to the analytic backend: the same
        # units and kills (the fingerprints differ only because the
        # recorded backend name is part of the grid identity).
        analytic = record_from_outcome(self.outcome("analytic", seed=13))
        retired = record_from_outcome(self.outcome("vectorized", seed=13))
        assert retired.units_detail == analytic.units_detail
        assert retired.kills == analytic.kills

    def test_tensor_backend_stays_inside_the_band(self):
        first = record_from_outcome(self.outcome("tensor", seed=13))
        again = record_from_outcome(self.outcome("tensor", seed=13))
        report = compare(again, [first])
        assert not any(
            f.check in ("kill_rate", "killed_units")
            for f in report.findings
        ), report.describe()
