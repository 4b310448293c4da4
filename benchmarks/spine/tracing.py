"""In-memory span recorder for the traced pass.

One span per call into a layer: name, start, end, the span that caused it
and the picture it belongs to.  Spans stay in memory while the benchmark
measures and are written out when it ends (:meth:`SpanRecorder.dump`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List


class _Span:
    __slots__ = ("rec", "row")

    def __init__(self, rec: "SpanRecorder", name: str, picture: int):
        stack = rec._stack()
        parent = stack[-1] if stack else -1
        self.rec = rec
        # [name, start, end, parent, picture]
        self.row = [name, 0.0, 0.0, parent, picture]

    def __enter__(self) -> "_Span":
        rec = self.rec
        rec._stack().append(len(rec.spans))
        rec.spans.append(self.row)
        self.row[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.row[2] = time.perf_counter()
        self.rec._stack().pop()


class SpanRecorder:
    """Nested spans; each thread nests independently."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, picture: int = -1) -> _Span:
        return _Span(self, name, picture)

    # ------------------------------ analysis ------------------------------ #

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def per_picture(self, name: str) -> Dict[int, List[float]]:
        """Durations of ``name`` grouped by picture id, in call order."""
        out: Dict[int, List[float]] = defaultdict(list)
        for s in self.spans:
            if s[0] == name:
                out[s[4]].append(s[2] - s[1])
        return out

    def self_times(self) -> Dict[str, float]:
        """Per name: span durations minus the part their children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, float] = defaultdict(float)
        for s, covered in zip(self.spans, child):
            out[s[0]] += (s[2] - s[1]) - covered
        return dict(out)

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "picture")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
