"""Memo counters reach the metrics registry exactly once."""

from repro import obs
from repro.env import oracle_for, reset_oracle_cache
from repro.litmus import library
from repro.obs.caches import CACHE_EVENTS_METRIC


def oracle_events(registry, event):
    return registry.counter(
        CACHE_EVENTS_METRIC, {"cache": "oracle", "event": event}
    ).value


class TestPublishAcrossClear:
    def teardown_method(self):
        reset_oracle_cache()

    def test_clear_between_publishes_loses_nothing(self):
        """Publish at 10 hits, clear, 25 more hits, publish: the
        counter must read 35 — a clear is not a counter going down."""
        reset_oracle_cache()
        rec = obs.enable()
        try:
            test = library.sb()
            for _ in range(11):
                oracle_for(test)
            obs.publish_cache_metrics()
            assert oracle_events(rec.registry, "hit") == 10
            reset_oracle_cache()
            for _ in range(26):
                oracle_for(test)
            obs.publish_cache_metrics()
            assert oracle_events(rec.registry, "hit") == 35
            assert oracle_events(rec.registry, "miss") == 2
            # Nothing new since: a further publish adds nothing.
            obs.publish_cache_metrics()
            assert oracle_events(rec.registry, "hit") == 35
        finally:
            obs.disable()

    def test_lookups_while_disabled_wait_for_next_publish(self):
        reset_oracle_cache()
        oracle_for(library.sb())
        oracle_for(library.sb())
        rec = obs.enable()
        try:
            obs.publish_cache_metrics()
            assert oracle_events(rec.registry, "miss") == 1
            assert oracle_events(rec.registry, "hit") == 1
        finally:
            obs.disable()


class TestWorkerStateMemo:
    def test_state_for_publishes_under_its_own_label(self):
        """Worker states are a memo like any other: the first shard of
        a spec misses, later shards of the same spec hit."""
        from repro.campaign import smoke_spec
        from repro.campaign.worker import state_for
        from repro.mutation import default_suite

        names = [mutant.name for mutant in default_suite().mutants]
        # A seed no other test uses, so the first lookup is a miss.
        payload = smoke_spec(names, seed=918273).to_dict()
        rec = obs.enable()
        try:
            first = state_for(payload)
            assert state_for(payload) is first
            assert state_for(dict(payload)) is first
            obs.publish_cache_metrics()
            events = {
                event: rec.registry.counter(
                    CACHE_EVENTS_METRIC,
                    {"cache": "worker_state", "event": event},
                ).value
                for event in ("hit", "miss")
            }
            assert events == {"hit": 2, "miss": 1}
        finally:
            obs.disable()
