"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start, end, parent and op id; spans of one op share
the op id.  Spans live in memory and are written out once, when the run
ends.  A disabled tracer records nothing and costs one branch per call.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op=None):
        """Time the enclosed block as a child of the innermost open span.

        Single-threaded use only; threads record finished spans with
        :meth:`add`.
        """
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None or parent is None else parent["op"],
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op=None, parent=None):
        """Record an already finished span (thread-safe); returns its id."""
        if not self.enabled:
            return None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "parent": parent,
                    "op": op,
                    "start": start,
                    "end": end,
                }
            )
        return span_id

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` (from index ``since``)."""
        return sum(
            s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name
        )

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        covered: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for s in self.spans:
            busy = 0.0
            last = s["start"]
            for start, end in sorted(covered.get(s["id"], ())):
                start, end = max(start, last), min(end, s["end"])
                if end > start:
                    busy += end - start
                    last = end
            own = (s["end"] - s["start"]) - busy
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        doc = {"spans": self.spans, "self_time_s": self.self_times()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
