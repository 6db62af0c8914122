"""Journals pinning the retired ``vectorized`` backend still resume.

``vectorized`` was the analytic model's batched grid pass before it
folded into the ``analytic`` backend; the registry keeps the name as
an alias.  The golden journals under ``fixtures/`` were written by the
last release that shipped the standalone backend: an 18-unit campaign
interrupted after 7 units.  ``vectorized-v5.jsonl`` is that journal
as written (spec v5, recorded ``bitwise`` contract);
``vectorized-v2.jsonl`` carries the same units under the header a
spec-v2 build wrote (no equivalence, suite or store fields, and the
fingerprint v2 computed over that payload).
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.backends import AnalyticBackend, resolve
from repro.campaign import (
    CampaignJournal,
    ExecutorConfig,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaign.spec import payload_fingerprint

FIXTURES = Path(__file__).parent / "fixtures"
JOURNALS = ["vectorized-v2.jsonl", "vectorized-v5.jsonl"]
RECORDED_UNITS = 7
#: The fingerprint the spec-v5 build recorded for this campaign.
V5_FINGERPRINT = "6d41e958441debe9"


@pytest.fixture(params=JOURNALS)
def journal(request, tmp_path):
    path = tmp_path / "journal.jsonl"
    shutil.copy(FIXTURES / request.param, path)
    return path


def header(path):
    return json.loads(path.read_text().splitlines()[0])


def serial():
    return ExecutorConfig(workers=1, retry_backoff=0.0)


class TestRetiredVectorizedJournals:
    def test_resolves_to_analytic(self):
        assert resolve("vectorized") is AnalyticBackend

    def test_loads_with_recorded_name_and_fingerprint(self, journal):
        recorded = header(journal)
        spec = CampaignJournal(journal).load_spec()
        assert spec.backend == "vectorized"
        assert recorded["fingerprint"] == payload_fingerprint(
            recorded["spec"]
        )
        # Today's serialization of the loaded spec still hashes to what
        # the old build recorded, so re-running the campaign adopts the
        # journal instead of refusing it.
        assert spec.fingerprint() == V5_FINGERPRINT
        CampaignJournal.create(journal, spec)
        # v5 records a contract; loading checked it against the alias.
        if recorded["spec"]["version"] >= 5:
            assert recorded["spec"]["equivalence"] == "bitwise"
            assert spec.equivalence() == "bitwise"
        status = campaign_status(journal)
        assert status.done_units == RECORDED_UNITS
        assert status.total_units == 18

    def test_resumes_to_the_analytic_campaign(self, journal):
        header_line = journal.read_text().splitlines()[0]
        resumed = resume_campaign(journal, config=serial())
        assert resumed.metrics.resumed_units == RECORDED_UNITS
        assert campaign_status(journal).complete
        # Resume appends units; the recorded header stays byte-equal.
        assert journal.read_text().splitlines()[0] == header_line

        analytic = run_campaign(
            dataclasses.replace(resumed.spec, backend="analytic"),
            config=serial(),
        )
        assert resumed.results.keys() == analytic.results.keys()
        for kind, result in resumed.results.items():
            assert result.backend == "vectorized"
            assert result.runs == analytic.results[kind].runs
