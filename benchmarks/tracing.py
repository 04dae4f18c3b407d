"""In-memory spans around the benchmark's own calls into ``threeway``.

A span records name, start, end, parent span, op id, whether it is a probe,
and counts measured at that boundary.  Spans stay in memory until the run
ends; :func:`span_table` derives self time (duration minus the time covered by
child spans) and :func:`layer_medians` the per-layer medians.

Untraced runs use :data:`OFF`, whose spans cost one call and record nothing,
so the op code is the same in both modes.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None  # op id stamped on new spans
        self.probe = None  # None, "in-op" or "off-path"

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time the enclosed block; the yielded dict takes counts as keys."""
        record = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "probe": self.probe or ("in-op" if probe else None),
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float, **counts) -> None:
        """Record a measurement taken elsewhere (e.g. inside a child process) as a span."""
        end = perf_counter()
        self.spans.append({
            "name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
            "probe": self.probe, "counts": counts, "start": end - seconds, "end": end,
        })


class _Off:
    enabled = False
    op = None
    probe = None

    @contextmanager
    def span(self, name: str, probe: bool = False):
        yield {}

    def add(self, name: str, seconds: float, **counts) -> None:
        pass


OFF = _Off()


def span_table(spans: list[dict], factor) -> list[dict]:
    """Spans with duration, self time and drift factor; times relative to the first span.

    ``factor(t)`` is the drift correction at perf_counter time t (see drift.py).
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    origin = spans[0]["start"] if spans else 0.0
    return [
        {
            "id": i, "name": r["name"], "op": r["op"], "parent": r["parent"], "probe": r["probe"],
            "start": r["start"] - origin, "end": r["end"] - origin,
            "seconds": r["end"] - r["start"],
            "self_seconds": r["end"] - r["start"] - child_time[i],
            "factor": factor(r["start"]),
            "counts": r["counts"],
        }
        for i, r in enumerate(spans)
    ]


def layer_medians(table: list[dict]) -> dict[str, dict]:
    """Per span name: calls, median seconds per call, median self seconds, median counts.

    Seconds are drift-corrected with each span's factor.

    Spans from the workload itself win; names seen only in off-path probes
    fall back to those and are marked ``off_path``.
    """
    groups: dict[str, list[dict]] = {}
    for row in table:
        groups.setdefault(row["name"], []).append(row)
    layers = {}
    for name, rows in sorted(groups.items()):
        on_path = [r for r in rows if r["probe"] != "off-path"]
        use = on_path or rows
        counts = {}
        for key in sorted({k for r in use for k in r["counts"]}):
            counts[key] = statistics.median(r["counts"][key] for r in use if key in r["counts"])
        layers[name] = {
            "calls": len(use),
            "median_s": statistics.median(r["seconds"] * r["factor"] for r in use),
            "median_self_s": statistics.median(r["self_seconds"] * r["factor"] for r in use),
            "total_self_s": sum(r["self_seconds"] * r["factor"] for r in use),
            "probe": use[0]["probe"],
            "off_path": not on_path,
            "counts": counts,
        }
    return layers
