"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def stats_dir(tmp_path_factory):
    """A stats directory with small PTE and SITE tuning results."""
    directory = tmp_path_factory.mktemp("stats")
    for kind in ("PTE", "SITE"):
        code = main(
            [
                "tune",
                "--kind", kind,
                "--envs", "5",
                "--seed", "1",
                "--out", str(directory / f"{kind.lower()}.json"),
            ]
        )
        assert code == 0
    return directory


class TestBasicCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GeForce RTX 2080" in out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "Combined" in out
        assert "20" in out

    def test_suite_list(self, capsys):
        assert main(["suite", "--list"]) == 0
        out = capsys.readouterr().out
        assert "rev_poloc_rr_w_mut" in out
        assert "CoRR" in out

    def test_show_by_suite_name(self, capsys):
        assert main(["show", "rev_poloc_rr_w"]) == 0
        assert "atomicLoad(x)" in capsys.readouterr().out

    def test_show_by_alias(self, capsys):
        assert main(["show", "MP"]) == 0
        assert "storageBarrier" in capsys.readouterr().out

    def test_show_library_test(self, capsys):
        assert main(["show", "mp_relacq"]) == 0
        assert "rel-acq" in capsys.readouterr().out

    def test_show_extended_test(self, capsys):
        assert main(["show", "iriw"]) == 0
        assert "thread 3" in capsys.readouterr().out

    def test_show_wgsl(self, capsys):
        assert main(["show", "corr", "--wgsl"]) == 0
        assert "@compute" in capsys.readouterr().out

    def test_show_unknown(self, capsys):
        assert main(["show", "not_a_test"]) == 1
        assert "error" in capsys.readouterr().err


class TestTuneAndAnalyze:
    def test_tune_writes_json(self, stats_dir):
        payload = json.loads((stats_dir / "pte.json").read_text())
        assert payload["kind"] == "PTE"
        assert payload["runs"]

    def test_mutation_score_action(self, stats_dir, capsys):
        assert main(
            [
                "analyze",
                "--action", "mutation-score",
                "--stats-path", str(stats_dir / "pte.json"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "combined" in out
        assert "reversing po-loc" in out

    def test_merge_action(self, stats_dir, capsys):
        assert main(
            [
                "analyze",
                "--action", "merge",
                "--stats-path", str(stats_dir / "pte.json"),
                "--rep", "95",
                "--budget", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "reproducible" in out

    def test_merge_requires_stats(self, capsys):
        assert main(["analyze", "--action", "merge"]) == 1
        assert "stats-path" in capsys.readouterr().err

    def test_invalid_rep(self, stats_dir, capsys):
        assert main(
            [
                "analyze",
                "--action", "merge",
                "--stats-path", str(stats_dir / "pte.json"),
                "--rep", "150",
            ]
        ) == 1
        assert "percentage" in capsys.readouterr().err

    def test_correlation_action(self, capsys):
        assert main(
            ["analyze", "--action", "correlation", "--envs", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "PCC" in out
        assert "Intel" in out

    def test_missing_stats_file(self, capsys):
        assert main(
            [
                "analyze",
                "--action", "mutation-score",
                "--stats-path", "/nonexistent/never.json",
            ]
        ) == 1


class TestFiguresAndCts:
    def test_figures(self, stats_dir, capsys):
        assert main(["figures", "--stats-dir", str(stats_dir)]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Figure 6" in out

    def test_figures_empty_dir(self, tmp_path, capsys):
        assert main(["figures", "--stats-dir", str(tmp_path)]) == 1
        assert "no <kind>.json" in capsys.readouterr().err

    def test_cts(self, stats_dir, capsys):
        assert main(
            [
                "cts",
                "--stats-path", str(stats_dir / "pte.json"),
                "--rep", "99.999",
                "--budget", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "CTS plan" in out
        assert "total reproducibility" in out


class TestRunAndLitmusCommands:
    def test_show_litmus_format(self, capsys):
        assert main(["show", "mp_relacq", "--litmus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("WGSL mp_relacq")
        assert "exists (r0 == 2 /\\ r1 == 0)" in out

    def test_run_clean_device_no_violations(self, capsys):
        assert main(
            ["run", "corr", "--device", "intel", "--instances", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "MCS violations: 0" in out

    def test_run_buggy_device_shows_violations(self, capsys):
        assert main(
            [
                "run", "mp_relacq",
                "--device", "amd",
                "--buggy", "--stress",
                "--instances", "500",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "amd-mp-relacq" in out
        violations = int(out.rsplit("MCS violations:", 1)[1])
        assert violations > 0

    def test_run_histogram_printed(self, capsys):
        assert main(
            ["run", "sb", "--device", "amd", "--stress",
             "--instances", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "r0=" in out

    def test_run_unknown_device(self, capsys):
        assert main(["run", "corr", "--device", "voodoo"]) == 1
        assert "unknown device" in capsys.readouterr().err


class TestCampaignCommands:
    def test_smoke_campaign_run_resume_status(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        assert main(
            [
                "campaign", "run",
                "--out", str(out_dir),
                "--smoke", "--serial",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "per-worker telemetry" in out
        assert (out_dir / "journal.jsonl").exists()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "pte.json").exists()
        assert (out_dir / "site_baseline.json").exists()

        assert main(["campaign", "status", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

        # Resuming a finished campaign is a no-op.
        assert main(
            ["campaign", "resume", "--out", str(out_dir), "--serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out

    def test_smoke_stats_are_analyzable(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        assert main(
            ["campaign", "run", "--out", str(out_dir),
             "--smoke", "--serial"]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "analyze",
                "--action", "mutation-score",
                "--stats-path", str(out_dir / "pte.json"),
            ]
        ) == 0
        assert "combined" in capsys.readouterr().out

    def test_resume_retired_vectorized_journal(self, tmp_path, capsys):
        # A journal pinning the retired "vectorized" backend name
        # resumes end to end through the CLI.
        out_dir = tmp_path / "camp"
        out_dir.mkdir()
        fixture = (
            Path(__file__).parent / "campaign" / "fixtures"
            / "vectorized-v5.jsonl"
        )
        (out_dir / "journal.jsonl").write_text(fixture.read_text())
        assert main(
            ["campaign", "resume", "--out", str(out_dir), "--serial"]
        ) == 0
        assert "11 executed" in capsys.readouterr().out
        assert main(["campaign", "status", "--out", str(out_dir)]) == 0
        assert "18/18 units done" in capsys.readouterr().out

    def test_backend_flag_offers_only_live_backends(self, capsys):
        for argv in (
            ["tune", "--backend", "vectorized", "--out", "x.json"],
            ["tune", "--mode", "analytic", "--out", "x.json"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
        assert "choose from 'analytic', 'operational', 'tensor'" in (
            capsys.readouterr().err
        )

    def test_status_without_journal_errors(self, tmp_path, capsys):
        assert main(
            ["campaign", "status", "--out", str(tmp_path / "none")]
        ) == 1
        assert "no journal" in capsys.readouterr().err


class TestTimelineCommands:
    """The run ledger surface: --ledger, obs history/diff/check."""

    def test_ledger_lifecycle_and_regression_check(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        ledger = str(tmp_path / "ledger")

        # Two identical seeded smoke runs, both recorded.
        for i in (1, 2):
            assert main(
                ["campaign", "run",
                 "--out", str(tmp_path / f"run{i}"),
                 "--smoke", "--serial", "--ledger", ledger]
            ) == 0
            out = capsys.readouterr().out
            assert "ledger: recorded run of" in out

        assert main(["obs", "history", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert out.count("campaign:smoke") == 2

        assert main(
            ["obs", "history", "--ledger", ledger, "--json",
             "--limit", "1"]
        ) == 0
        runs = json.loads(capsys.readouterr().out)
        assert len(runs) == 1
        assert runs[0]["kind"] == "campaign"
        assert runs[0]["units_detail"]

        assert main(["obs", "diff", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "kill_rate" in out
        assert "delta" in out

        # Identical re-run: the drift check passes.  Real wall times
        # on a loaded test machine can jitter past the default 20%
        # changepoint, so give the clean pass a 100% latency budget —
        # the injected 1.5x sleep below slows units ~2.5x and still
        # clears that bar by a wide margin.
        assert main(
            ["obs", "check", "--ledger", ledger,
             "--latency-threshold", "1.0"]
        ) == 0
        assert "OK — no drift detected" in capsys.readouterr().out

        # Third run with an injected warm-path slowdown: the check
        # must fail on a latency changepoint.
        monkeypatch.setenv("REPRO_FAULT_UNIT_SLEEP_FACTOR", "1.5")
        assert main(
            ["campaign", "run", "--out", str(tmp_path / "run3"),
             "--smoke", "--serial", "--ledger", ledger]
        ) == 0
        monkeypatch.delenv("REPRO_FAULT_UNIT_SLEEP_FACTOR")
        capsys.readouterr()
        assert main(
            ["obs", "check", "--ledger", ledger, "--json",
             "--latency-threshold", "1.0"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(
            finding["check"] == "latency"
            for finding in report["findings"]
        )
        # The injected sleep must not look like kill drift.
        assert not any(
            finding["check"] == "kill_rate"
            for finding in report["findings"]
        )

    def test_ledger_errors(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        # No ledger configured at all.
        assert main(["obs", "history"]) == 1
        assert "no run ledger configured" in capsys.readouterr().err
        # Empty ledger has nothing to diff or check.
        empty = str(tmp_path / "empty")
        assert main(["obs", "diff", "--ledger", empty]) == 1
        assert "ledger is empty" in capsys.readouterr().err
        assert main(["obs", "check", "--ledger", empty]) == 1
        assert "no runs" in capsys.readouterr().err

    def test_ambient_ledger_env(self, tmp_path, capsys, monkeypatch):
        """REPRO_LEDGER makes emission ambient: no flag needed."""
        ledger_dir = tmp_path / "ambient"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger_dir))
        assert main(
            ["campaign", "run", "--out", str(tmp_path / "camp"),
             "--smoke", "--serial"]
        ) == 0
        assert "ledger: recorded run" in capsys.readouterr().out
        assert main(["obs", "history"]) == 0
        assert "campaign:smoke" in capsys.readouterr().out


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    """A small synthesized suite (unfenced 3-event family)."""
    path = tmp_path_factory.mktemp("synth") / "suite.json"
    code = main(
        [
            "synthesize",
            "--max-events", "3",
            "--edges", "com", "po-loc",
            "--quiet",
            "--out", str(path),
        ]
    )
    assert code == 0
    return str(path)


class TestSynthesisCommands:
    def test_synthesize_writes_suite(self, synth_path):
        payload = json.loads(Path(synth_path).read_text())
        assert payload["format"] == "repro-synthesized-suite"
        assert payload["pairs"]

    def test_synthesize_progress_and_summary(self, tmp_path, capsys):
        assert main(
            [
                "synthesize",
                "--max-events", "3",
                "--edges", "com", "po-loc",
                "--max-pairs", "2",
                "--out", str(tmp_path / "s.json"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "synthesizing:" in out
        assert "Table 2 overlap" in out
        assert "saved" in out

    def test_synthesize_rejects_bad_alphabet(self, tmp_path, capsys):
        assert main(
            [
                "synthesize",
                "--edges", "com", "po",
                "--out", str(tmp_path / "s.json"),
            ]
        ) == 1
        assert "no cycle family" in capsys.readouterr().err

    def test_suite_reads_synthesized_file(self, synth_path, capsys):
        assert main(["suite", "--suite", synth_path]) == 0
        out = capsys.readouterr().out
        assert "synthesized suite:" in out
        assert "Table 2 overlap" in out

    def test_suite_list_shows_roles_and_templates(
        self, synth_path, capsys
    ):
        assert main(["suite", "--suite", synth_path, "--list"]) == 0
        out = capsys.readouterr().out
        assert "conformance" in out
        assert "mutant" in out
        assert "syn" in out

    def test_suite_list_prune_column(self, capsys):
        assert main(["suite", "--list", "--prune-devices"]) == 0
        out = capsys.readouterr().out
        assert "Pruned on" in out
        # The M1 profile prunes the single-fence sw mutants.
        assert "M1" in out

    def test_suite_missing_file_errors(self, capsys):
        assert main(["suite", "--suite", "/no/such/file.json"]) == 1
        assert "no suite file" in capsys.readouterr().err

    def test_campaign_over_synthesized_suite(
        self, synth_path, tmp_path, capsys
    ):
        out_dir = tmp_path / "camp"
        assert main(
            [
                "campaign", "run",
                "--out", str(out_dir),
                "--smoke", "--serial",
                "--suite", synth_path,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "analyze",
                "--action", "mutation-score",
                "--stats-path", str(out_dir / "pte.json"),
                "--suite", synth_path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "combined" in out
