"""Tests for campaign specs and work-unit seed derivation."""

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    paper_spec,
    smoke_spec,
)
from repro.env import EnvironmentKind, unit_rng
from repro.mutation import default_suite

SUITE = default_suite()
NAMES = tuple(mutant.name for mutant in SUITE.mutants)


def small_spec(**overrides):
    kwargs = dict(
        name="small",
        kinds=("PTE", "SITE_BASELINE"),
        device_names=("AMD", "Intel"),
        test_names=NAMES[:3],
        environment_count=4,
        seed=11,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestGrid:
    def test_unit_count_matches_units(self):
        spec = small_spec()
        assert spec.unit_count() == len(spec.units())
        # PTE: 4 envs, SITE_BASELINE: 1 fixed env; x 2 devices x 3 tests
        assert spec.unit_count() == (4 + 1) * 2 * 3

    def test_canonical_order_matches_run_matrix(self):
        """Environments outermost, then devices, then tests."""
        units = small_spec().units()
        first_block = units[: 2 * 3]
        assert {unit.env_key for unit in first_block} == {0}
        assert [unit.device_name for unit in first_block] == (
            ["AMD"] * 3 + ["Intel"] * 3
        )
        assert units[0].index == 0
        assert [unit.index for unit in units] == list(range(len(units)))

    def test_unit_keys_unique(self):
        units = small_spec().units()
        assert len({unit.key for unit in units}) == len(units)

    def test_environments_regenerate_deterministically(self):
        spec = small_spec()
        first = spec.environments(EnvironmentKind.PTE)
        second = spec.environments(EnvironmentKind.PTE)
        assert first == second


class TestSeeding:
    def test_streams_independent_of_unit_order(self):
        spec = small_spec()
        units = spec.units()

        def draw(unit):
            return unit_rng(
                spec.seed, unit.env_key, unit.device_name, unit.test_name
            ).integers(0, 2**32)

        draws = {unit.key: draw(unit) for unit in reversed(units)}
        for unit in units:
            assert draws[unit.key] == draw(unit)


class TestIdentity:
    def test_round_trip(self):
        spec = small_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_fingerprint_stable_and_distinct(self):
        assert small_spec().fingerprint() == small_spec().fingerprint()
        assert (
            small_spec(seed=12).fingerprint()
            != small_spec().fingerprint()
        )

    def test_from_dict_rejects_bad_version(self):
        payload = small_spec().to_dict()
        payload["version"] = 99
        with pytest.raises(CampaignError, match="version"):
            CampaignSpec.from_dict(payload)


class TestValidation:
    def test_needs_tests(self):
        with pytest.raises(CampaignError, match="test"):
            small_spec(test_names=())

    def test_rejects_unknown_kind(self):
        with pytest.raises(CampaignError, match="kind"):
            small_spec(kinds=("WARP",))

    def test_rejects_bad_backend(self):
        with pytest.raises(CampaignError, match="backend"):
            small_spec(backend="quantum")

    def test_rejects_option_backend_ignores(self):
        with pytest.raises(CampaignError, match="does not accept"):
            small_spec(backend="analytic", max_operational_instances=8)


class TestPresets:
    def test_paper_spec_is_full_grid(self):
        spec = paper_spec(NAMES, environment_count=150)
        # 3 stressed/random-count kinds would be wrong: 2 stressed
        # kinds at 150 envs + 2 baselines at 1 env, x 4 devices x 32.
        assert spec.unit_count() == (150 + 150 + 1 + 1) * 4 * 32

    def test_smoke_spec_is_small(self):
        spec = smoke_spec(NAMES)
        assert spec.unit_count() <= 64
