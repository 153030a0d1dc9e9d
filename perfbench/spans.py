"""In-memory spans around the program's layer entry points.

Only the traced run records spans.  :class:`SpanRecorder` wraps a
callable so that each call records ``(span_id, parent_id, trace_id,
name, start, end)``; parents come from a call stack, so the recorder
must only wrap calls made on one thread.  Span names read
``"<layer>:<operation>"``.  At the end of a run the spans are written in
the Chrome trace-event format (the layout
``repro.telemetry.chrome_trace`` writes) and folded into a per-layer
table of count, busy, self and wait time.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def new_trace(self) -> int:
        """Start a new trace id (one per pass, scenario or trial)."""
        self.trace_id += 1
        return self.trace_id

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self.trace_id, name, start, end))

    @contextmanager
    def span(self, name: str):
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (a module's function, or a method
        a class defines, which then traces every instance) by a traced
        wrapper until :meth:`restore`."""
        original = vars(owner)[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[tuple[float, float]]:
        """``(start, end)`` of every span called ``name``, in start order."""
        return sorted((s[4], s[5]) for s in self.spans if s[3] == name)

    def busy(self, name: str) -> float:
        return sum(end - start for start, end in self.named(name))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _tid, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        return {
            sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _parent, _tid, _name, start, end in self.spans
        }

    def self_time(self, name: str) -> float:
        selfs = self.self_times()
        return sum(selfs[s[0]] for s in self.spans if s[3] == name)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, busy time (sum of span durations),
        self time (busy minus time in child spans) and wait time (time
        in child spans, i.e. spent waiting on the layers it called)."""
        selfs = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for sid, _parent, _tid, name, start, end in self.spans:
            layer = name.split(":", 1)[0]
            row = table.setdefault(
                layer, {"count": 0, "busy_s": 0.0, "self_s": 0.0, "wait_s": 0.0}
            )
            row["count"] += 1
            row["busy_s"] += end - start
            row["self_s"] += selfs[sid]
            row["wait_s"] += (end - start) - selfs[sid]
        return dict(sorted(table.items()))

    def write(self, directory: pathlib.Path, stem: str, metadata: dict) -> list[pathlib.Path]:
        """Write ``<stem>-trace.json`` (Chrome trace events) and
        ``<stem>-layers.json`` (the layer table); returns both paths."""
        directory.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "perfbench"},
            }
        ]
        for sid, parent, tid, name, start, end in sorted(self.spans, key=lambda s: s[4]):
            events.append(
                {
                    "name": name,
                    "cat": name.split(":", 1)[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"span_id": sid, "parent_id": parent, "trace_id": tid},
                }
            )
        trace_path = directory / f"{stem}-trace.json"
        trace_path.write_text(
            json.dumps(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ns",
                    "otherData": {"source": "perfbench", **metadata},
                }
            )
        )
        layers_path = directory / f"{stem}-layers.json"
        layers_path.write_text(json.dumps(self.layer_table(), indent=2) + "\n")
        return [trace_path, layers_path]


def write_trace(out, recorder: SpanRecorder, directory: pathlib.Path, workload: str, seed: int) -> None:
    """Write the traced run's files and print its layer table."""
    stem = f"{workload}-seed{seed}"
    for path in recorder.write(directory, stem, {"workload": workload, "seed": seed}):
        out.note(f"wrote {path}")
    out.note("layer table (spans, busy s, self s, wait s):")
    for layer, row in recorder.layer_table().items():
        out.note(
            f"  {layer:<18} {row['count']:>8} {row['busy_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['wait_s']:>10.4f}"
        )
