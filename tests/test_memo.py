"""Tests for the one memo implementation behind every cache."""

import pytest

from repro import memo as memo_module
from repro.memo import Memo, registered_memos


@pytest.fixture
def memo():
    yield Memo("test-memo", maxsize=2)
    # Keep the process-wide registry (and so every later publish) to
    # the package's own memos.
    memo_module._REGISTRY.pop("test-memo")


class TestMemo:
    def test_hit_miss_and_lru_eviction(self, memo):
        calls = []

        def compute(key):
            return lambda: calls.append(key) or key * 10

        assert memo.get_or_compute(1, compute(1)) == 10
        assert memo.get_or_compute(2, compute(2)) == 20
        assert memo.get_or_compute(1, compute(1)) == 10  # 1 now newest
        memo.get_or_compute(3, compute(3))  # evicts 2, not 1
        memo.get_or_compute(1, compute(1))
        assert calls == [1, 2, 3]
        stats = memo.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (2, 3, 1)
        assert stats.size == len(memo) == 2
        assert stats.maxsize == 2
        assert stats.hit_rate == pytest.approx(0.4)

    def test_failed_compute_caches_nothing(self, memo):
        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            memo.get_or_compute("k", boom)
        assert len(memo) == 0
        assert memo.get_or_compute("k", lambda: 1) == 1

    def test_registered_by_name(self, memo):
        assert registered_memos()["test-memo"] is memo
        # The shipped memos all register on import.
        import repro.backends  # noqa: F401

        assert {
            "oracle", "characteristics",
            "tensor_grid", "tensor_kills", "tensor_jitter",
        } <= set(registered_memos())
        # The per-unit analytic memos are gone: one grid-level layer.
        assert not {"probability", "jitter", "run"} & set(
            registered_memos()
        )


class TestUnpublishedCounts:
    def test_take_returns_counts_since_previous_take(self, memo):
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("a", lambda: 1)
        assert memo.take_unpublished() == (1, 1, 0)
        memo.get_or_compute("a", lambda: 1)
        assert memo.take_unpublished() == (1, 0, 0)
        assert memo.take_unpublished() == (0, 0, 0)

    def test_clear_zeroes_stats_but_keeps_unpublished(self, memo):
        for key in "abc":
            memo.get_or_compute(key, lambda: 1)
        memo.get_or_compute("c", lambda: 1)
        assert memo.take_unpublished() == (1, 3, 1)
        memo.get_or_compute("c", lambda: 1)
        memo.clear()
        stats = memo.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        memo.get_or_compute("c", lambda: 1)
        # One hit from before the clear, one miss after it.
        assert memo.take_unpublished() == (1, 1, 0)
