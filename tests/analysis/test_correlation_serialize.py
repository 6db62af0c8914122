"""Tests for the Table 4 study and JSON persistence."""

import pytest

from repro.analysis import (
    BugCase,
    TABLE4_CASES,
    correlation_row,
    load_result,
    render_table4,
    result_from_dict,
    result_to_dict,
    save_result,
    table4,
)
from repro.env import EnvironmentKind, tuning_run
from repro.errors import AnalysisError
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()


class TestCorrelationStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        # Reduced scale keeps the test fast; the benchmark runs the
        # paper-scale version (150 environments).
        return table4(environment_count=40, iterations=100, seed=0)

    def test_three_cases(self, rows):
        assert [row.vendor for row in rows] == ["Intel", "AMD", "NVIDIA"]

    def test_all_very_strong(self, rows):
        """Table 4's finding: every PCC is very strong (> .8)."""
        for row in rows:
            assert row.correlation.very_strong, row.vendor

    def test_significance(self, rows):
        for row in rows:
            assert row.correlation.p_value < 1e-6

    def test_best_mutant_belongs_to_pair(self, rows):
        for row in rows:
            pair = SUITE.pair_of_mutant(row.best_mutant)
            assert pair.mutator.value.lower().startswith(
                row.mutant_type.split()[0].lower()
            )

    def test_amd_failed_test_renamed(self, rows):
        assert rows[1].failed_test == "MP-relacq"

    def test_render(self, rows):
        text = render_table4(rows)
        assert "PCC" in text
        assert "Intel" in text

    def test_clean_device_rejected(self):
        # The M1 has no historical bug; correlating requires one.
        case = BugCase("Apple", "m1", "CoRR", "Reversing po-loc")
        with pytest.raises(AnalysisError, match="never observed"):
            correlation_row(case, environment_count=5, iterations=10)

    def test_environment_count_validated(self):
        with pytest.raises(AnalysisError, match="three"):
            correlation_row(TABLE4_CASES[0], environment_count=2)


class TestSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        return tuning_run(
            EnvironmentKind.PTE,
            [make_device("amd")],
            SUITE.mutants[:3],
            environment_count=3,
            seed=5,
        )

    def test_roundtrip_dict(self, result):
        payload = result_to_dict(result)
        restored = result_from_dict(payload)
        assert restored.kind is result.kind
        assert len(restored.runs) == len(result.runs)
        for original, loaded in zip(result.runs, restored.runs):
            assert original.kills == loaded.kills
            assert original.rate == pytest.approx(loaded.rate)
            assert (
                original.environment.parameters
                == loaded.environment.parameters
            )

    def test_roundtrip_file(self, result, tmp_path):
        path = tmp_path / "amd.json"
        save_result(result, path)
        restored = load_result(path)
        assert restored.test_names == result.test_names

    def test_backend_round_trips(self, result):
        assert result.backend == "analytic"
        payload = result_to_dict(result)
        assert payload["backend"] == "analytic"
        assert result_from_dict(payload).backend == "analytic"

    def test_backendless_payload_still_loads(self, result):
        # Stats archives from before backend recording have no
        # "backend" key; they must load with backend=None unchanged.
        payload = result_to_dict(result)
        del payload["backend"]
        restored = result_from_dict(payload)
        assert restored.backend is None
        assert len(restored.runs) == len(result.runs)

    def test_version_checked(self, result):
        payload = result_to_dict(result)
        payload["version"] = 99
        with pytest.raises(AnalysisError, match="version"):
            result_from_dict(payload)

    def test_malformed_run_rejected(self, result):
        payload = result_to_dict(result)
        del payload["runs"][0]["kills"]
        with pytest.raises(AnalysisError, match="malformed"):
            result_from_dict(payload)

    def test_malformed_environment_rejected(self, result):
        payload = result_to_dict(result)
        payload["runs"][0]["environment"]["parameters"]["shuffle_pct"] = 999
        with pytest.raises(AnalysisError, match="malformed"):
            result_from_dict(payload)

    def test_edited_payload_leaves_later_payloads_alone(self, result):
        # Parameters dicts are built once per environment; each payload
        # must still own its copy.
        edited = result_to_dict(result)
        edited["runs"][0]["environment"]["parameters"]["shuffle_pct"] = 999
        fresh = result_to_dict(result)
        assert fresh["runs"][0]["environment"]["parameters"][
            "shuffle_pct"
        ] == result.runs[0].environment.parameters.shuffle_pct

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError, match="invalid JSON"):
            load_result(path)
