"""The one memo discipline: bounded LRU caches with published counters.

Every in-process memo in the package — the oracle memo, the
characteristics memo, and the grid-program caches that the analytic
and tensor backends share — is a :class:`Memo`.  A memo is
bounded (least recently used entries are evicted past ``maxsize``),
counts hits, misses and evictions, and registers itself by name (a
later memo of the same name replaces the earlier one) so
:func:`repro.obs.publish_cache_metrics` can fold every memo's counters
into ``repro_cache_events_total{cache=<name>}`` without knowing which
layers own memos.

This module imports nothing from the package, so any layer (litmus,
gpu, env, backends) can own a memo without an import cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

#: (hits, misses, evictions)
Counts = Tuple[int, ...]

_REGISTRY: "Dict[str, Memo]" = {}


@dataclass(frozen=True)
class MemoStats:
    """A snapshot of one memo's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Memo:
    """A bounded LRU memo with hit/miss/eviction counters.

    ``clear()`` empties the memo and zeroes the visible counters, but
    the counts not yet taken by the metrics publisher
    (:meth:`take_unpublished`) survive it, so a reset between two
    publishes never loses events.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        self.name = name
        self.maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Counters at the previous publish, shifted down by every clear
        #: since, so ``counters - _published`` is always the unpublished
        #: count.
        self._published: Counts = (0, 0, 0)
        _REGISTRY[name] = self

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            pass
        else:
            self.hits += 1
            self._entries.move_to_end(key)
            return value
        self.misses += 1
        value = compute()
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> MemoStats:
        return MemoStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def _counts(self) -> Counts:
        return (self.hits, self.misses, self.evictions)

    def take_unpublished(self) -> Counts:
        """Counts since the previous take, including any from before a
        :meth:`clear`; the publisher's only read."""
        counts = self._counts()
        delta = tuple(c - p for c, p in zip(counts, self._published))
        self._published = counts
        return delta

    def clear(self) -> None:
        """Drop every entry and zero the visible counters."""
        self._published = tuple(
            p - c for p, c in zip(self._published, self._counts())
        )
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


def registered_memos() -> Dict[str, Memo]:
    """Every memo created in this process by name, in creation order."""
    return dict(_REGISTRY)
