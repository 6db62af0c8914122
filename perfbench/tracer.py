"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around each call it
makes into a layer of ``repro``; nothing inside ``src/`` is traced.
Every span keeps its name, start, end, parent and trace (the id of its
root span), stays in memory while the run goes on, and is written out
once at the end.

A layer's *self time* is its span's duration minus the time its child
spans cover.  The tracer is single-threaded, so children of one span
never overlap and their durations simply add up.
"""

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class NullTracer:
    """The tracer of untraced jobs: every span is a no-op."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records nested spans; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent: Optional[int] = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        record: Dict[str, object] = {
            "id": span_id,
            "name": name,
            "parent": parent,
            "trace": (
                self.spans[parent]["trace"] if parent is not None
                else span_id
            ),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_seconds(self, name: str) -> List[float]:
        """Self times of all spans called ``name``, in start order."""
        own = self.self_times()
        return [
            own[span["id"]] for span in self.spans if span["name"] == name
        ]

    def totals(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self.self_times()):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        path.write_text(
            json.dumps(
                {
                    "spans": [
                        dict(span, self_s=own[span["id"]])
                        for span in self.spans
                    ],
                    "self_s_by_name": self.totals(),
                },
                indent=1,
            )
        )
