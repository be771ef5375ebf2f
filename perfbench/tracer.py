"""In-memory spans for the traced run.

A span records its name, start, end, parent span and the op id that
every span of one op shares.  Spans are plain lists appended to one
in-memory list and written out once, when the run ends.  A layer's
self time is its span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: the root span of every op; its self time is the facade glue no
#: layer span covers
OP = "op"

# span tuple slots
NAME, START, END, PARENT, OP_ID = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        #: layer counters summed over all traced ops
        self.counters: Dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one op; every span opened inside it
        carries ``op_id``."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        try:
            with self.span(OP):
                yield
        finally:
            self._op = None

    def add(self, name: str, start: float, end: float,
            op_id: Optional[int]) -> None:
        """Record a span timed elsewhere (a request timed at the
        client, on another thread)."""
        self.spans.append([name, start, end, None, op_id])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- aggregation ----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name, over all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span[NAME]] += span[END] - span[START] - child_time[index]
        return dict(out)

    def totals(self) -> Dict[str, float]:
        """Seconds of total (inclusive) time per span name."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[NAME]] += span[END] - span[START]
        return dict(out)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[NAME]] += 1
        return dict(out)

    def coverages(self) -> List[float]:
        """Per op, the share of its wall time its layer spans cover,
        in ascending order."""
        wall: Dict[int, float] = {}
        covered: Dict[int, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span[NAME] == OP:
                wall[index] = span[END] - span[START]
        for span in self.spans:
            if span[PARENT] in wall:
                covered[span[PARENT]] += span[END] - span[START]
        return sorted(covered[i] / w for i, w in wall.items() if w > 0)

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [{"name": s[NAME], "start_us": round((s[START] - origin)
                                                     * 1e6, 1),
                 "end_us": round((s[END] - origin) * 1e6, 1),
                 "parent": s[PARENT], "op": s[OP_ID]}
                for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "counters": dict(self.counters)},
                      handle)
