"""Tests for the JSONL checkpoint journal."""

import json

import pytest

from repro.campaign import (
    CampaignError,
    CampaignJournal,
    CampaignSpec,
    ExecutorConfig,
    run_campaign,
)
from repro.mutation import default_suite

SUITE = default_suite()
NAMES = tuple(mutant.name for mutant in SUITE.mutants)


def spec(**overrides):
    kwargs = dict(
        name="journal-test",
        kinds=("PTE",),
        device_names=("AMD",),
        test_names=NAMES[:2],
        environment_count=2,
        seed=3,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


@pytest.fixture
def finished(tmp_path):
    """A completed journaled campaign (serial, deterministic)."""
    path = tmp_path / "journal.jsonl"
    outcome = run_campaign(
        spec(), journal_path=path, config=ExecutorConfig(workers=1)
    )
    return path, outcome


class TestHeader:
    def test_create_writes_header(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CampaignJournal.create(path, spec())
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "header"
        assert first["fingerprint"] == spec().fingerprint()

    def test_create_adopts_matching_journal(self, finished):
        path, _ = finished
        before = path.read_text()
        CampaignJournal.create(path, spec())
        assert path.read_text() == before

    def test_create_rejects_mismatched_spec(self, finished):
        path, _ = finished
        with pytest.raises(CampaignError, match="refusing"):
            CampaignJournal.create(path, spec(seed=4))

    def test_load_spec_round_trips(self, finished):
        path, _ = finished
        assert CampaignJournal(path).load_spec() == spec()


class TestRecords:
    def test_records_cover_every_unit(self, finished):
        path, _ = finished
        journal = CampaignJournal(path)
        keys = journal.completed_keys()
        assert keys == {unit.key for unit in spec().units()}

    def test_runs_round_trip(self, finished):
        path, outcome = finished
        records = CampaignJournal(path).load_records()
        by_index = {record.index: record.run for record in records}
        for kind, result in outcome.results.items():
            for run in result.runs:
                assert run in by_index.values()

    def test_torn_tail_line_is_ignored(self, finished):
        path, _ = finished
        whole = path.read_text()
        torn = whole.rstrip("\n")[:-17]  # cut into the final record
        path.write_text(torn)
        journal = CampaignJournal(path)
        records = journal.load_records()
        assert len(records) == len(spec().units()) - 1

    def test_corrupt_middle_line_is_an_error(self, finished):
        path, _ = finished
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(Exception, match="line 2"):
            CampaignJournal(path).load_records()

    def test_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(CampaignError, match="no journal"):
            CampaignJournal(tmp_path / "nope.jsonl").load_records()


class TestBackendIdentity:
    """The journal pins the execution backend, not just the grid."""

    def test_header_serializes_backend(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CampaignJournal.create(path, spec(backend="vectorized"))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["spec"]["backend"] == "vectorized"

    def test_resume_under_different_backend_rejected(self, tmp_path):
        # A journal pinning the retired "vectorized" name must not be
        # continued under "analytic" (or vice versa), even though both
        # resolve to the analytic backend: the recorded backend name is
        # part of the spec fingerprint.
        path = tmp_path / "journal.jsonl"
        run_campaign(
            spec(backend="vectorized"),
            journal_path=path,
            config=ExecutorConfig(workers=1),
        )
        with pytest.raises(CampaignError, match="refusing"):
            CampaignJournal.create(path, spec(backend="analytic"))

    def test_loaded_spec_restores_backend(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CampaignJournal.create(path, spec(backend="vectorized"))
        assert CampaignJournal(path).load_spec().backend == "vectorized"

    def test_version1_payload_still_loads(self):
        # Journals written before the backend layer say "mode".
        payload = spec().to_dict()
        payload["version"] = 1
        del payload["backend"]
        payload["mode"] = "operational"
        payload["max_operational_instances"] = 16
        loaded = CampaignSpec.from_dict(payload)
        assert loaded.backend == "operational"
        assert loaded.max_operational_instances == 16

    def test_version1_analytic_drops_ignored_cap(self):
        # v1 always wrote the cap; only the operational mode read it.
        payload = spec().to_dict()
        payload["version"] = 1
        del payload["backend"]
        payload["mode"] = "analytic"
        payload["max_operational_instances"] = 64
        loaded = CampaignSpec.from_dict(payload)
        assert loaded.backend == "analytic"
        assert loaded.max_operational_instances is None
