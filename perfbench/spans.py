"""In-memory span recording for the traced benchmark run.

A span is one timed call into an engine layer, recorded from the
benchmark's own code: its name, start and end (``time.perf_counter``
seconds), the span that encloses it and the operation it belongs to.
Nothing is written until the run ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        #: The operation id stamped on every span opened from now on.
        self.op: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        """Seconds spent in every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span never overlap (the benchmark is one thread),
        so the covered time is the sum of the children's durations.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total and self time in milliseconds."""
        own = self.self_times()
        out: Dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (s["end"] - s["start"]) * 1000
            entry["self_ms"] += own[s["id"]] * 1000
        return out

    def write(self, path, header: dict) -> None:
        """Write every span (times relative to the first, plus self time)
        and the per-name summary as one JSON document."""
        own = self.self_times()
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = []
        for s in self.spans:
            row = dict(s)
            row["start"] = s["start"] - origin
            row["end"] = s["end"] - origin
            row["self"] = own[s["id"]]
            spans.append(row)
        doc = dict(header, summary=self.summary(), spans=spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
