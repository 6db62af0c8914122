"""Grid-native shards: every shard runs as exact rectangles.

The worker splits a shard into (kind, env) × devices × tests
rectangles and runs each as one ``Backend.run_grid`` call.  Under test:
no cell outside the shard is computed (the operational backend pays
~0.6 s a cell), a failing rectangle fails only its own units, and the
outcomes equal the per-cell values ``Runner.run`` gives each unit.
"""

import time

import pytest

from repro.backends import AnalyticBackend, Backend
from repro.campaign import (
    CampaignSpec,
    ExecutorConfig,
    resume_campaign,
    run_campaign,
)
from repro.campaign.journal import CampaignJournal
from repro.campaign.worker import rectangles, run_shard, state_for
from repro.env.runner import Runner
from repro.gpu import make_device
from repro.mutation import default_suite

NAMES = tuple(mutant.name for mutant in default_suite().mutants)


def spec(**overrides):
    kwargs = dict(
        name="worker-test",
        kinds=("PTE",),
        device_names=("AMD", "Intel", "M1"),
        test_names=NAMES[:4],
        environment_count=2,
        seed=5,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class SpyBackend(AnalyticBackend):
    """The analytic model through the per-cell serial loop, recording
    every cell it computes and every grid it is handed."""

    run_matrix = Backend.run_matrix

    def __init__(self, fail_env_key=None, sleep_env_key=None):
        self.cells = []
        self.grids = []
        self.fail_env_key = fail_env_key
        self.sleep_env_key = sleep_env_key

    def run(self, device, test, environment, iterations, rng):
        self.cells.append((environment.env_key, device.name, test.name))
        return super().run(device, test, environment, iterations, rng)

    def run_grid(self, devices, tests, environments, **kwargs):
        env_keys = [environment.env_key for environment in environments]
        self.grids.append((env_keys, len(devices), len(tests)))
        if self.fail_env_key in env_keys:
            raise RuntimeError("injected grid failure")
        if self.sleep_env_key in env_keys:
            time.sleep(1.0)
        return super().run_grid(devices, tests, environments, **kwargs)


@pytest.fixture
def spy(monkeypatch):
    """Install a spy backend into a campaign's cached worker state."""

    def install(campaign, **options):
        backend = SpyBackend(**options)
        state = state_for(campaign.to_dict())
        monkeypatch.setattr(state, "backend", backend)
        return backend

    return install


def cells_of(campaign, indices):
    units = campaign.units()
    return sorted(
        (units[i].env_key, units[i].device_name, units[i].test_name)
        for i in indices
    )


def env_keys_of(campaign):
    (kind,) = campaign.kind_members
    return [env.env_key for env in campaign.environments(kind)]


class TestExactCells:
    def test_shard_starting_mid_device(self, spy):
        campaign = spec()
        backend = spy(campaign)
        # Starts at test 2 of env 0's first device, ends at test 1 of
        # env 1's second device.
        indices = list(range(2, 18))
        result = run_shard(campaign.to_dict(), indices)
        assert [o.index for o in result.outcomes] == indices
        assert all(outcome.ok for outcome in result.outcomes)
        assert sorted(backend.cells) == cells_of(campaign, indices)
        # env 0: first device's tail + two whole devices; env 1: one
        # whole device + the next device's head.
        assert [grid[1:] for grid in backend.grids] == [
            (1, 2), (2, 4), (1, 4), (1, 2),
        ]

    def test_retry_set_with_gaps(self, spy):
        campaign = spec()
        backend = spy(campaign)
        indices = [1, 2, 6, 9, 10, 11, 13, 14, 20]
        result = run_shard(campaign.to_dict(), indices)
        assert [o.index for o in result.outcomes] == indices
        assert all(outcome.ok for outcome in result.outcomes)
        assert sorted(backend.cells) == cells_of(campaign, indices)

    def test_resume_remainder(self, spy, tmp_path):
        campaign = spec()
        path = tmp_path / "journal.jsonl"
        run_campaign(
            campaign,
            journal_path=path,
            config=ExecutorConfig(workers=1, retry_backoff=0.0),
        )
        # Keep the header and the first seven unit records.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:8]))
        done = len(CampaignJournal(path).completed_keys())
        assert done == 7
        backend = spy(campaign)
        resume_campaign(
            path, config=ExecutorConfig(workers=1, retry_backoff=0.0)
        )
        remainder = range(done, campaign.unit_count())
        assert sorted(backend.cells) == cells_of(campaign, remainder)

    def test_contiguous_shards_need_at_most_three_rectangles(self):
        campaign = spec(kinds=("PTE", "SITE_BASELINE"))
        units = campaign.units()
        for start in range(len(units)):
            for size in (1, 5, 7, 13, 64):
                shard = range(start, min(start + size, len(units)))
                blocks = rectangles(units, shard)
                covered = [i for block in blocks for i in block.indices]
                assert sorted(covered) == list(shard)
                per_env = {}
                for block in blocks:
                    key = (block.kind, block.env_key)
                    per_env[key] = per_env.get(key, 0) + 1
                    assert len(block.indices) == len(
                        block.device_names
                    ) * len(block.test_names)
                assert max(per_env.values()) <= 3


class TestFailureScope:
    def test_raising_rectangle_fails_only_its_units(self, spy):
        campaign = spec()
        env_keys = env_keys_of(campaign)
        backend = spy(campaign, fail_env_key=env_keys[0])
        indices = list(range(campaign.unit_count()))
        result = run_shard(campaign.to_dict(), indices)
        per_env = len(campaign.device_names) * len(campaign.test_names)
        failed = [o for o in result.outcomes if not o.ok]
        assert [o.index for o in failed] == indices[:per_env]
        assert all(
            o.error == "RuntimeError: injected grid failure"
            and not o.timed_out
            for o in failed
        )
        assert all(o.ok for o in result.outcomes[per_env:])
        assert len(backend.cells) == per_env

    def test_timed_out_rectangle_fails_only_its_units(self, spy):
        campaign = spec()
        env_keys = env_keys_of(campaign)
        spy(campaign, sleep_env_key=env_keys[1])
        indices = list(range(campaign.unit_count()))
        result = run_shard(campaign.to_dict(), indices, timeout=0.02)
        per_env = len(campaign.device_names) * len(campaign.test_names)
        assert all(o.ok for o in result.outcomes[:per_env])
        assert all(o.timed_out for o in result.outcomes[per_env:])


class TestPerCellValues:
    @pytest.mark.parametrize(
        "backend, options",
        [
            ("analytic", {}),
            ("tensor", {}),
            ("operational", {"max_operational_instances": 4}),
        ],
    )
    def test_outcomes_equal_per_cell_runs(self, backend, options):
        campaign = spec(
            kinds=("PTE", "SITE_BASELINE"),
            device_names=("AMD", "Intel"),
            test_names=NAMES[:2],
            environment_count=1,
            backend=backend,
            iterations_override=2,
            **options,
        )
        runner = Runner(
            backend=backend,
            iterations_override=2,
            **options,
        )
        state = state_for(campaign.to_dict())
        units = campaign.units()
        # A shard that starts mid-device, so rectangles are uneven.
        indices = list(range(1, len(units)))
        result = run_shard(campaign.to_dict(), indices)
        for outcome in result.outcomes:
            unit = units[outcome.index]
            expected = runner.run(
                make_device(unit.device_name),
                state.tests[unit.test_name],
                state.environments[(unit.kind.name, unit.env_key)],
                unit.rng(campaign.seed),
            )
            assert outcome.run == expected
