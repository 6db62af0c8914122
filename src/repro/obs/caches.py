"""Publishing memo counters into the metrics registry.

Every memo in the package is a :class:`repro.memo.Memo` that keeps
its own hit/miss/eviction counters — cheap, always on, and untouched
by this layer.  What the obs layer adds is *publication*: at natural
flush points (end of a grid, end of a shard) each registered memo's
counts since the previous publish are folded into the registry as
``repro_cache_events_total{cache=...,event=...}`` counters, plus a
``repro_cache_hit_rate`` histogram observation per memo per publish,
so campaign artifacts carry memoization effectiveness per worker
without a single extra dispatch on the per-lookup hot path.

The memo itself tracks what it has already handed over
(:meth:`~repro.memo.Memo.take_unpublished`), so each event is
incremented exactly once no matter how often snapshots ship — and a
memo cleared between two publishes still reports the events from
before the clear.
"""

from __future__ import annotations

from repro.memo import registered_memos
from repro.obs.recorder import recorder
from repro.obs.registry import RATE_BUCKETS

CACHE_EVENTS_METRIC = "repro_cache_events_total"
CACHE_HIT_RATE_METRIC = "repro_cache_hit_rate"
CACHE_SIZE_METRIC = "repro_cache_size"


def publish_cache_metrics() -> None:
    """Fold every registered memo's new counts into the recorder.

    A no-op (beyond one ``enabled`` check) when obs is disabled; the
    counts then wait in the memo for the next enabled publish.
    """
    rec = recorder()
    if not rec.enabled:
        return
    for memo in registered_memos().values():
        labels = {"cache": memo.name}
        hits, misses, evictions = memo.take_unpublished()
        # Zero deltas still materialise the counters: an exported
        # artifact should show "oracle cache: 0 lookups" explicitly,
        # not omit the family (a pre-declared zero counter is
        # Prometheus idiom).
        for event, count in (
            ("hit", hits), ("miss", misses), ("eviction", evictions),
        ):
            rec.counter_inc(
                CACHE_EVENTS_METRIC, count, {**labels, "event": event}
            )
        if hits + misses:
            rec.observe(
                CACHE_HIT_RATE_METRIC,
                hits / (hits + misses),
                labels,
                buckets=RATE_BUCKETS,
            )
        rec.gauge_set(CACHE_SIZE_METRIC, len(memo), labels)


def reset_publisher() -> None:
    """Mark every memo's counts so far as published (tests use this
    so one test's lookups never land in the next test's recorder)."""
    for memo in registered_memos().values():
        memo.take_unpublished()
