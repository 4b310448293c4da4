"""Cross-process execution tracing for the multi-process cluster runtime.

Every cluster process appends :class:`TraceEvent` lines to its own JSONL
file; the supervisor merges them into one wall-clock timeline after the
run.  Timestamps are ``time.time()`` — all processes share one host, so
the wall clock is the only cross-process-comparable time source.

Every worker imports this module before it knows its role, so it stays on
the standard library plus :mod:`repro.perf.metrics`.  (Trace-*driven
workloads* — a real stream replayed through the timed simulator, which
needs the splitter, the cost model and the stream table — are
:mod:`repro.perf.trace_workload`.)
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.perf.metrics import StageTimes

TRACE_SUFFIX = ".trace.jsonl"


@dataclass
class TraceEvent:
    """One timestamped event from one cluster process."""

    ts: float
    proc: str
    event: str
    picture: int = -1
    data: Dict = field(default_factory=dict)

    def to_json(self) -> str:
        rec = {"ts": self.ts, "proc": self.proc, "event": self.event}
        if self.picture >= 0:
            rec["picture"] = self.picture
        if self.data:
            rec["data"] = self.data
        return json.dumps(rec, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        rec = json.loads(line)
        return cls(
            ts=rec["ts"],
            proc=rec["proc"],
            event=rec["event"],
            picture=rec.get("picture", -1),
            data=rec.get("data", {}),
        )


class Span:
    """One begin/end interval in a process's trace stream.

    Enter emits a ``ph="B"`` event immediately (so a crash mid-span leaves
    the begin visible to the post-mortem), exit emits ``ph="E"`` carrying
    ``dur_s`` measured with the monotonic clock.  ``with``-able and
    re-entrant-safe per instance only once.
    """

    __slots__ = ("writer", "event", "picture", "data", "_wall0", "_t0")

    def __init__(self, writer: "TraceWriter", event: str, picture: int, data: Dict):
        self.writer = writer
        self.event = event
        self.picture = picture
        self.data = data

    def __enter__(self) -> "Span":
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        self.writer.emit(
            self.event, picture=self.picture, ts=self._wall0, ph="B", **self.data
        )
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0
        self.writer.emit(
            self.event,
            picture=self.picture,
            ts=self._wall0 + dt,
            ph="E",
            dur_s=round(dt, 9),
        )


class _NullSpan:
    """Span stand-in when span emission is disabled: zero work."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceWriter:
    """Append-only JSONL event stream for one process.

    Each ``emit`` is written and flushed immediately so a crashed process
    still leaves a usable partial trace for the post-mortem merge.  Emits
    are thread-safe (role main loops, pump threads and heartbeats share
    one writer); events from non-main threads carry a ``tid`` so the
    timeline export can give each thread its own track.  ``spans=False``
    keeps the coarse event stream but turns :meth:`span` into a no-op —
    the telemetry kill-switch for overhead measurements.

    ``with``-able: closing in a ``finally``/``with`` guarantees the last
    buffered line reaches the file even when the role body raises.
    """

    def __init__(self, path: Union[str, Path], proc: str, spans: bool = True):
        self.path = Path(path)
        self.proc = proc
        self.spans = spans
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def emit(
        self,
        event: str,
        picture: int = -1,
        ts: Optional[float] = None,
        **data,
    ) -> TraceEvent:
        thread = threading.current_thread()
        if thread is not threading.main_thread():
            data.setdefault("tid", thread.name)
        ev = TraceEvent(
            ts=time.time() if ts is None else ts,
            proc=self.proc,
            event=event,
            picture=picture,
            data=data,
        )
        line = ev.to_json() + "\n"
        with self._lock:
            if not self._fh.closed:
                self._fh.write(line)
                self._fh.flush()
        return ev

    def span(self, event: str, picture: int = -1, **data):
        """Begin/end interval: ``with tracer.span("parse", picture=3): ...``"""
        if not self.spans:
            return _NULL_SPAN
        return Span(self, event, picture, data)

    def flush(self) -> None:
        """Empty the file buffer (before a ``fork()``: a child would write
        its copy of a buffered line a second time)."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace_file(
    path: Union[str, Path], strict: bool = True
) -> List[TraceEvent]:
    """Parse one JSONL trace.  ``strict=False`` skips unparsable lines
    (e.g. the torn final write of a SIGKILLed worker) instead of raising.
    """
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TraceEvent.from_json(line))
        except (ValueError, KeyError):
            if strict:
                raise
    return events


def merge_traces(
    trace_dir: Union[str, Path],
    output: Optional[Union[str, Path]] = None,
    strict: bool = True,
    recursive: bool = False,
) -> List[TraceEvent]:
    """Collate every per-process trace in ``trace_dir`` into one timeline.

    Events are sorted by wall-clock timestamp (process name breaks ties so
    the merge is deterministic).  When ``output`` is given the merged
    timeline is also written as JSONL.  ``strict=False`` tolerates torn
    lines from crashed workers (the supervisor's failure path).

    ``recursive=True`` also descends into subdirectories — the fleet
    layout, where the gateway's trace sits at the top of the run
    directory and each daemon traces into its own subdirectory.
    """
    pattern = f"**/*{TRACE_SUFFIX}" if recursive else f"*{TRACE_SUFFIX}"
    events: List[TraceEvent] = []
    for path in sorted(Path(trace_dir).glob(pattern)):
        if Path(path).name == "merged" + TRACE_SUFFIX:
            continue  # never fold a previous merge back into itself
        events.extend(read_trace_file(path, strict=strict))
    events.sort(key=lambda e: (e.ts, e.proc))
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            for ev in events:
                fh.write(ev.to_json() + "\n")
    return events


def load_stage_times(trace_dir: Union[str, Path]) -> Dict[str, StageTimes]:
    """Per-process :class:`~repro.perf.metrics.StageTimes` from a run's traces.

    The single loader behind the supervisor's harvest and the cluster
    benchmark's per-stage attribution: reads every ``*.trace.jsonl`` in
    ``trace_dir``, folds each process's ``stage_times`` events (a process
    may emit several — they accumulate), and returns ``{proc: StageTimes}``
    for every process that emitted any.
    """
    by_proc: Dict[str, StageTimes] = {}
    for ev in merge_traces(trace_dir):
        if ev.event != "stage_times":
            continue
        st = by_proc.setdefault(ev.proc, StageTimes())
        st.merge(StageTimes.from_dict(ev.data))
    return by_proc
