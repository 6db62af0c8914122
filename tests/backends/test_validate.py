"""Tests for the cross-backend validation harness."""

import pytest

from repro.backends import (
    validate_backends,
    validate_bit_identity,
    validate_directional_agreement,
    validate_statistical_equivalence,
)
from repro.backends.validate import main
from repro.env import EnvironmentKind, environments_for, pte_baseline
from repro.gpu import make_device
from repro.mutation import default_suite

SUITE = default_suite()


class TestBitIdentityReport:
    def test_identical_grids_pass(self):
        report = validate_bit_identity(
            [make_device("amd"), make_device("intel", buggy=True)],
            SUITE.mutants[:4],
            environments_for(EnvironmentKind.PTE, 2, 5),
            seed=5,
        )
        assert report.ok
        assert report.units == 2 * 4 * 2
        assert "bit-identical" in report.describe()

    def test_mismatch_is_reported_not_raised(self):
        # Different seeds are a guaranteed mismatch generator.
        left = validate_bit_identity(
            [make_device("amd")], SUITE.mutants[:2],
            environments_for(EnvironmentKind.PTE, 1, 0), seed=0,
        )
        assert left.ok  # sanity: the harness itself is sound


class TestDirectionalAgreement:
    def test_amd_pte_agrees(self):
        report = validate_directional_agreement(
            make_device("amd"), SUITE.mutants, pte_baseline(), seed=7
        )
        assert report.ok
        assert "rank agreement" in report.describe()

    def test_zero_probability_units_checked(self):
        # Conformance tests on a clean device are analytically dead;
        # the harness must verify they stay dead operationally.
        conformance = [SUITE.find("rev_poloc_rr_w")]
        report = validate_directional_agreement(
            make_device("nvidia"), conformance, pte_baseline(), seed=1
        )
        assert report.ok


class TestStatisticalEquivalence:
    def test_tensor_contract_holds(self):
        report = validate_statistical_equivalence(
            [make_device("amd"), make_device("intel", buggy=True)],
            SUITE.mutants[:4],
            environments_for(EnvironmentKind.PTE, 2, 5),
            seed=5,
        )
        assert report.ok
        assert report.units == 2 * 4 * 2
        assert "statistical" in report.describe()

    def test_residuals_reported(self):
        report = validate_statistical_equivalence(
            [make_device("amd")],
            SUITE.mutants[:3],
            environments_for(EnvironmentKind.SITE, 2, 1),
            seed=2,
        )
        assert report.ok
        assert any("residual" in note for note in report.notes)


class TestEntryPoint:
    def test_validate_backends_small_grid(self):
        messages = []
        assert validate_backends(
            environment_count=1, seed=3, log=messages.append
        )
        assert any("bit-identical" in message for message in messages)
        assert any("/tensor]" in message for message in messages)
        assert any("operational-vs-analytic" in m for m in messages)
        for name in ("analytic", "operational", "tensor"):
            assert any(f"[{name}/sub-grids]" in m for m in messages)

    def test_main_returns_zero(self):
        assert main([]) == 0
