"""Tests for the sharded executor: parity, crash/resume, retry.

The determinism contract under test: results depend only on (campaign
seed, unit key) — not on worker count, shard boundaries, completion
order, or whether the campaign was interrupted and resumed.
"""

import json

import pytest

from repro.analysis.serialize import result_to_dict
from repro.campaign import (
    CampaignFailure,
    CampaignJournal,
    CampaignSpec,
    ExecutorConfig,
    FaultPlan,
    campaign_status,
    resume_campaign,
    run_campaign,
    verify_order_independence,
)
from repro.env import EnvironmentKind, tuning_run
from repro.gpu import study_devices
from repro.mutation import default_suite

SUITE = default_suite()
NAMES = tuple(mutant.name for mutant in SUITE.mutants)


def spec(**overrides):
    kwargs = dict(
        name="sched-test",
        kinds=("PTE", "SITE_BASELINE"),
        device_names=("AMD", "Intel"),
        test_names=NAMES[:3],
        environment_count=3,
        seed=9,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def serial_config(**overrides):
    kwargs = dict(workers=1, retry_backoff=0.0)
    kwargs.update(overrides)
    return ExecutorConfig(**kwargs)


def stats_bytes(outcome):
    """The serialized per-kind results, as stable bytes."""
    return {
        kind.name: json.dumps(result_to_dict(result), sort_keys=True)
        for kind, result in outcome.results.items()
    }


class TestParity:
    def test_matches_serial_tuning_path(self):
        """Campaign output == Runner.run_matrix, run for run."""
        outcome = run_campaign(spec(), config=serial_config())
        devices = [
            device
            for device in study_devices()
            if device.name in ("AMD", "Intel")
        ]
        tests = [SUITE.find(name) for name in NAMES[:3]]
        expected = tuning_run(
            EnvironmentKind.PTE, devices, tests,
            environment_count=3, seed=9,
        )
        assert outcome.results[EnvironmentKind.PTE].runs == expected.runs

    def test_pool_matches_serial(self):
        serial = run_campaign(spec(), config=serial_config())
        pooled = run_campaign(
            spec(),
            config=ExecutorConfig(workers=2, shard_size=4),
        )
        assert stats_bytes(serial) == stats_bytes(pooled)

    def test_verify_order_independence(self):
        verify_order_independence(spec(), workers=2)

    def test_forced_serial_fallback_matches(self):
        serial = run_campaign(spec(), config=serial_config())
        fallback = run_campaign(
            spec(), config=ExecutorConfig(force_serial=True)
        )
        assert fallback.metrics.serial_fallback
        assert stats_bytes(serial) == stats_bytes(fallback)

    def test_tuning_run_workers_delegates_identically(self):
        devices = [
            device
            for device in study_devices()
            if device.name in ("AMD", "Intel")
        ]
        tests = [SUITE.find(name) for name in NAMES[:3]]
        serial = tuning_run(
            EnvironmentKind.PTE, devices, tests,
            environment_count=3, seed=9,
        )
        parallel = tuning_run(
            EnvironmentKind.PTE, devices, tests,
            environment_count=3, seed=9, workers=2,
        )
        assert serial.runs == parallel.runs


class TestCheckpointResume:
    def test_crash_and_resume_is_exact(self, tmp_path):
        """Kill after K records; resume; outputs identical."""
        uninterrupted = run_campaign(
            spec(),
            journal_path=tmp_path / "clean.jsonl",
            config=serial_config(),
        )

        crashed = tmp_path / "crashed.jsonl"
        run_campaign(
            spec(), journal_path=crashed, config=serial_config()
        )
        # Simulate a kill after K=5 journal records (+ header), with
        # a torn partial write of the 6th.
        lines = crashed.read_text().splitlines()
        kept, torn = lines[:6], lines[6]
        crashed.write_text(
            "\n".join(kept) + "\n" + torn[: len(torn) // 2]
        )
        assert not campaign_status(crashed).complete

        resumed = resume_campaign(crashed, config=serial_config())
        assert resumed.metrics.resumed_units == 5
        assert resumed.metrics.units_done == len(spec().units()) - 5
        assert stats_bytes(resumed) == stats_bytes(uninterrupted)

        # The journals record identical work (modulo wall-clock).
        def payloads(path):
            records = CampaignJournal(path).load_records()
            return sorted(
                (record.key, record.run) for record in records
            )

        assert payloads(crashed) == payloads(
            tmp_path / "clean.jsonl"
        )

    def test_vectorized_crash_and_resume_is_exact(self, tmp_path):
        """The resumed backend comes from the journal, and a resumed
        campaign under the retired ``vectorized`` name (an alias of
        ``analytic``) matches the analytic campaign."""
        vec_spec = spec(backend="vectorized")
        uninterrupted = run_campaign(
            vec_spec,
            journal_path=tmp_path / "clean.jsonl",
            config=serial_config(),
        )

        crashed = tmp_path / "crashed.jsonl"
        run_campaign(
            vec_spec, journal_path=crashed, config=serial_config()
        )
        lines = crashed.read_text().splitlines()
        kept, torn = lines[:6], lines[6]
        crashed.write_text(
            "\n".join(kept) + "\n" + torn[: len(torn) // 2]
        )
        assert not campaign_status(crashed).complete

        resumed = resume_campaign(crashed, config=serial_config())
        assert resumed.metrics.resumed_units == 5
        assert stats_bytes(resumed) == stats_bytes(uninterrupted)

        # Bit identity carries through the whole campaign machinery:
        # the run records match the analytic campaign exactly (stats
        # files differ only in the recorded backend name).
        analytic = run_campaign(spec(), config=serial_config())
        for kind, result in resumed.results.items():
            assert result.backend == "vectorized"
            assert result.runs == analytic.results[kind].runs
        assert analytic.results[EnvironmentKind.PTE].backend == "analytic"

    def test_finished_campaign_reruns_as_noop(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = run_campaign(
            spec(), journal_path=path, config=serial_config()
        )
        again = run_campaign(
            spec(), journal_path=path, config=serial_config()
        )
        assert again.metrics.units_done == 0
        assert again.metrics.resumed_units == len(spec().units())
        assert stats_bytes(first) == stats_bytes(again)

    def test_status_reports_progress(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        run_campaign(spec(), journal_path=path, config=serial_config())
        status = campaign_status(path)
        assert status.complete
        assert status.per_kind["PTE"] == (18, 18)
        assert "complete" in status.describe()


class TestRetry:
    def test_flaky_unit_retries_and_succeeds(self, tmp_path):
        plan = FaultPlan(
            unit_indices=(2, 7),
            failures=2,
            marker_dir=str(tmp_path),
        )
        clean = run_campaign(spec(), config=serial_config())
        flaky = run_campaign(
            spec(),
            config=serial_config(max_retries=2, fault_plan=plan),
        )
        assert flaky.metrics.retries == 4
        assert stats_bytes(flaky) == stats_bytes(clean)

    def test_exhausted_retries_fail_but_keep_successes(self, tmp_path):
        plan = FaultPlan(
            unit_indices=(4,),
            failures=99,
            marker_dir=str(tmp_path / "markers"),
        )
        (tmp_path / "markers").mkdir()
        path = tmp_path / "journal.jsonl"
        with pytest.raises(CampaignFailure, match="resume"):
            run_campaign(
                spec(),
                journal_path=path,
                config=serial_config(max_retries=1, fault_plan=plan),
            )
        # Every other unit is journaled; a fault-free resume finishes.
        assert len(CampaignJournal(path).completed_keys()) == (
            len(spec().units()) - 1
        )
        resumed = resume_campaign(path, config=serial_config())
        clean = run_campaign(spec(), config=serial_config())
        assert stats_bytes(resumed) == stats_bytes(clean)

    def test_flaky_units_retry_in_pool_mode(self, tmp_path):
        plan = FaultPlan(
            unit_indices=(1,),
            failures=1,
            marker_dir=str(tmp_path),
        )
        clean = run_campaign(spec(), config=serial_config())
        flaky = run_campaign(
            spec(),
            config=ExecutorConfig(
                workers=2,
                shard_size=4,
                retry_backoff=0.0,
                fault_plan=plan,
            ),
        )
        assert flaky.metrics.retries == 1
        assert stats_bytes(flaky) == stats_bytes(clean)


class TestTimeouts:
    def test_deadline_raises_unit_timeout(self):
        import time

        from repro.campaign.worker import UnitTimeout, _deadline

        with pytest.raises(UnitTimeout):
            with _deadline(0.05):
                time.sleep(1.0)

    def test_no_deadline_is_a_noop(self):
        from repro.campaign.worker import _deadline

        with _deadline(None):
            pass
        with _deadline(0):
            pass


class TestConfig:
    def test_invalid_worker_count(self):
        with pytest.raises(Exception, match="workers"):
            ExecutorConfig(workers=0).effective_workers()

    def test_default_workers_positive(self):
        assert ExecutorConfig().effective_workers() >= 1
