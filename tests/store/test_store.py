"""The content-addressed store itself: layout, integrity, maintenance."""

import json

import numpy as np
import pytest

from repro.env import EnvironmentKind
from repro.env.environment import random_environment
from repro.gpu import make_device
from repro.litmus import library
from repro.store import (
    STORE_FORMAT,
    ResultStore,
    StoreError,
    open_store,
)


def make_run(seed=0):
    """One real (kind, TestRun) pair to store."""
    from repro.env.runner import Runner

    device = make_device("AMD")
    environment = random_environment(
        EnvironmentKind.PTE, np.random.default_rng(seed), env_key=seed
    )
    runner = Runner(backend="analytic")
    run = runner.run(device, library.by_name("corr"), environment, seed=seed)
    return EnvironmentKind.PTE, run


DIGEST = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        assert store.put(DIGEST, kind, run, "analytic", 1) is True
        got = store.get(DIGEST)
        assert got is not None
        got_kind, got_run = got
        assert got_kind is kind
        assert got_run == run
        assert store.events == {
            ("put", "write"): 1,
            ("get", "hit"): 1,
        }

    def test_contains(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        assert not store.contains(DIGEST)
        store.put(DIGEST, kind, run, "analytic", 1)
        assert store.contains(DIGEST)
        assert not store.contains(OTHER)

    def test_put_existing_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        assert store.put(DIGEST, kind, run, "analytic", 1) is True
        assert store.put(DIGEST, kind, run, "analytic", 1) is False
        assert store.events[("put", "skip")] == 1

    def test_objects_are_sharded_by_prefix(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        assert (
            store.objects_dir / DIGEST[:2] / f"{DIGEST}.json"
        ).exists()

    def test_miss_is_counted_not_raised(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get(DIGEST) is None
        assert store.events == {("get", "miss"): 1}

    def test_drain_events_resets(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.get(DIGEST)
        assert store.drain_events() == {("get", "miss"): 1}
        assert store.events == {}

    def test_open_store_helper(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert isinstance(store, ResultStore)
        assert store.manifest_path.exists()


class TestIntegrity:
    def test_corrupted_object_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        store._object_path(DIGEST).write_text("{ not json")
        assert store.get(DIGEST) is None
        assert store.events[("get", "corrupt")] == 1

    def test_tampered_run_payload_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        path = store._object_path(DIGEST)
        payload = json.loads(path.read_text())
        payload["run"]["kills"] = 999999
        path.write_text(json.dumps(payload))
        assert store.get(DIGEST) is None
        assert store.events[("get", "corrupt")] == 1

    def test_misfiled_object_is_corrupt(self, tmp_path):
        # An object whose embedded digest disagrees with its address
        # must never be served for that address.
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        source = store._object_path(DIGEST)
        target = store._object_path(OTHER)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text())
        assert store.get(OTHER) is None
        assert store.events[("get", "corrupt")] == 1

    def test_verify_clean_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        store.put(OTHER, kind, run, "analytic", 1)
        checked, bad = store.verify()
        assert checked == 2
        assert bad == []

    def test_verify_detects_tampering(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        store.put(OTHER, kind, run, "analytic", 1)
        path = store._object_path(OTHER)
        payload = json.loads(path.read_text())
        payload["run"]["kills"] = 999999
        path.write_text(json.dumps(payload))
        checked, bad = store.verify()
        assert checked == 2
        assert bad == [str(path)]

    def test_wrong_format_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest = json.loads(store.manifest_path.read_text())
        manifest["format"] = STORE_FORMAT + 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format"):
            ResultStore(tmp_path / "store")

    def test_wrong_key_schema_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest = json.loads(store.manifest_path.read_text())
        manifest["key_schema"] = 999
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="key schema"):
            ResultStore(tmp_path / "store")


class TestMaintenance:
    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        stats = store.stats()
        assert stats.objects == 1
        assert stats.bytes > 0
        assert stats.format == STORE_FORMAT
        assert "1 object(s)" in stats.describe()
        assert stats.to_dict()["objects"] == 1

    def test_gc_drops_invalid_first(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        store.put(OTHER, kind, run, "analytic", 1)
        store._object_path(OTHER).write_text("{ garbage")
        assert store.gc() == 1
        assert store.contains(DIGEST)
        assert not store.contains(OTHER)

    def test_gc_max_objects_evicts_oldest(self, tmp_path):
        import os

        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        store.put(OTHER, kind, run, "analytic", 1)
        old = store._object_path(DIGEST)
        os.utime(old, (1, 1))  # make DIGEST the oldest
        assert store.gc(max_objects=1) == 1
        assert not store.contains(DIGEST)
        assert store.contains(OTHER)

    def test_gc_max_age(self, tmp_path):
        import os

        store = ResultStore(tmp_path / "store")
        kind, run = make_run()
        store.put(DIGEST, kind, run, "analytic", 1)
        store.put(OTHER, kind, run, "analytic", 1)
        os.utime(store._object_path(DIGEST), (1, 1))
        assert store.gc(max_age_seconds=3600.0) == 1
        assert not store.contains(DIGEST)
        assert store.contains(OTHER)
