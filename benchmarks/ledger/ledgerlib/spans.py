"""In-memory spans recorded by the harness around calls into each layer.

A span is (name, start, end, parent span, request id). Spans are kept
in a list and written out as JSON lines when the run ends. A span's
*self time* is its duration minus the part of that interval its child
spans cover (children of one parent may overlap — the cluster router
fans out to shards concurrently — so the covered part is the union of
their intervals, not their sum).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id: object = None

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; nests under the innermost open span by default.

        Pass ``parent`` explicitly from concurrent tasks, where "the
        innermost open span" is not well defined.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.request_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.remove(index)

    @contextmanager
    def op(self, request_id: object):
        """The root span of one traced op."""
        self.request_id = request_id
        with self.span(ROOT) as index:
            yield index

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result

    def summary(self) -> dict:
        """Self time per span name, op wall, and the attributed share.

        ``coverage`` is the share of the op wall that lies inside at
        least one named layer span: one minus the root spans' own self
        time (harness glue between calls) over the op wall. Concurrent
        children are not counted twice, though their self times are.
        """
        self_times = self.self_times()
        by_name: dict[str, float] = {}
        wall = glue = 0.0
        n_ops = 0
        for (name, start, end, _, _), own in zip(self.spans, self_times, strict=True):
            if name == ROOT:
                wall += end - start
                glue += own
                n_ops += 1
            else:
                by_name[name] = by_name.get(name, 0.0) + own
        return {
            "ops": n_ops,
            "spans": len(self.spans),
            "op_wall_s": wall,
            "self_s": dict(sorted(by_name.items())),
            "coverage": 1.0 - glue / wall if wall else 0.0,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
