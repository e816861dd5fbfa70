"""In-memory spans recorded around the benchmark's calls into ratekit.

A span records its name, start, end, parent span, pipeline-iteration id and
whether the call raised. Spans stay in memory while the workload runs and are
written out once, when it ends. With tracing off, ``span`` records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, iteration: int):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "iteration": iteration,
            "start": time.perf_counter(),
            "end": None,
            "raised": False,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        except BaseException:
            record["raised"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"clock": "time.perf_counter", "spans": self.spans}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the given intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [
            (max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in inside if iv[0] < iv[1]])
    return out


def under(spans: list[dict], root_name: str) -> list[dict]:
    """The spans named ``root_name`` and all their descendants."""
    keep: set[int] = set()
    for s in spans:  # parents are recorded before their children
        if s["name"] == root_name or s["parent"] in keep:
            keep.add(s["id"])
    return [s for s in spans if s["id"] in keep]
