"""Process-local metrics registry and span helpers for the trace stream.

Two observability primitives live here:

- a lightweight **metrics registry** — :class:`Counter`, :class:`Gauge`
  and fixed-bucket :class:`Histogram` (p50/p95/p99) keyed by name — whose
  JSON-safe snapshots are emitted into the per-process trace stream as
  periodic ``stats`` events (:func:`maybe_emit_stats`), alongside the live
  per-channel byte/frame/blocked-time counters of every registered
  :class:`~repro.net.channel.Channel`;
- **stage-span emission** helpers that keep the span timeline and the
  :class:`~repro.perf.metrics.StageTimes` accounting in exact agreement:
  :func:`traced_stage` measures a contiguous stage region once and feeds
  both, and :func:`stage_span_block` lays synthesized parse/plan/execute
  child spans (from stage-delta attribution) inside a real parent span,
  so interleaved per-record work still renders as a clean timeline.

Everything here is stdlib-only, so low-level modules (the socket
transport) may import it without dragging in the decoder stack.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------- #
# metrics primitives
# --------------------------------------------------------------------- #


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, credits available, ...)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, v: float) -> None:
        self._value = v

    @property
    def value(self) -> float:
        return self._value


#: Default histogram bounds: geometric in seconds, 10 µs .. 10 s — wide
#: enough for both codec calls and barrier waits.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    1e-5 * (10 ** (i / 3)) for i in range(19)
)


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    Buckets are ``(-inf, b0], (b0, b1], ..., (bn, +inf)``.  Percentiles
    interpolate linearly inside the bucket that crosses the target rank;
    the open-ended tails clamp to the observed min/max, so estimates never
    leave the observed range.

    The last bucket is the explicit **overflow** bucket: values past the
    final edge land there, and percentile math interpolates between the
    smallest overflowing value and the observed max instead of pretending
    the bucket starts at the last edge — without that, one giant outlier
    dragged every quantile that crosses into the overflow bucket down
    toward the last bound.  :meth:`buckets` exposes the cumulative
    Prometheus view, overflow included under the ``+Inf`` edge.
    """

    __slots__ = (
        "_lock", "bounds", "counts", "count", "sum", "min", "max",
        "overflow_min",
    )

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.overflow_min = float("inf")

    def observe(self, v: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, v)] += 1
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            if v > self.bounds[-1] and v < self.overflow_min:
                self.overflow_min = v

    @property
    def overflow(self) -> int:
        """How many observations landed beyond the last bucket edge."""
        return self.counts[-1]

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0..100)."""
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                if i < len(self.bounds):
                    lo = self.bounds[i - 1] if i > 0 else self.min
                    hi = self.bounds[i]
                else:
                    # the +Inf bucket: interpolate over what actually
                    # landed there, not from the last finite edge
                    lo = self.overflow_min
                    hi = self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (rank - seen) / c
                return lo + frac * (hi - lo)
            seen += c
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_edge, count_le)`` pairs, Prometheus-style.

        The final pair's edge is ``+Inf`` and its count equals ``count``,
        so the overflow bucket is visible to any downstream quantile math
        instead of being silently folded away.
        """
        out: List[Tuple[float, int]] = []
        cum = 0
        with self._lock:
            for edge, c in zip(self.bounds, self.counts):
                cum += c
                out.append((edge, cum))
            out.append((float("inf"), self.count))
        return out

    def to_dict(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        d = {
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "mean": round(self.mean, 6),
            "p50": round(self.percentile(50), 6),
            "p95": round(self.percentile(95), 6),
            "p99": round(self.percentile(99), 6),
        }
        if self.counts[-1]:
            d["overflow"] = self.counts[-1]
        return d


class MetricsRegistry:
    """Create-or-get store of named metrics, snapshotted as one dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(bounds)
            return h

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-safe dump of every metric (for ``stats`` trace events)."""
        with self._lock:
            return {
                "counters": {
                    k: round(c.value, 6) for k, c in self._counters.items()
                },
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def prune(self, prefix: str) -> int:
        """Drop every metric whose name starts with ``prefix``.

        Long-lived daemons mint per-session metric names; pruning a
        retired session's prefix keeps the registry (and every ``stats``
        snapshot shipped into the trace stream) from growing without
        bound.  Returns how many metrics were removed.
        """
        removed = 0
        with self._lock:
            for store in (self._counters, self._gauges, self._histograms):
                doomed = [k for k in store if k.startswith(prefix)]
                removed += len(doomed)
                for k in doomed:
                    del store[k]
        return removed


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global default registry (one per worker process)."""
    return _REGISTRY


# --------------------------------------------------------------------- #
# live channel accounting
# --------------------------------------------------------------------- #

#: Every named Channel registers itself here (weakly); stats snapshots
#: read the live byte/frame counters without the transport having to know
#: about tracers.
_CHANNELS: "weakref.WeakSet" = weakref.WeakSet()

#: Rolled-up stats of channels that have closed, keyed by channel name.
#: Without this, a closed channel's counters vanish whenever the GC runs
#: (the registry is weak), so the final wire totals undercounted every
#: connection that didn't survive to the last snapshot.
_CLOSED: Dict[str, Dict[str, float]] = {}
_CLOSED_LOCK = threading.Lock()


def _fresh_state_in_child() -> None:
    """A forked child starts with its own counters: *replace* the registry,
    the channel sets and their locks, never acquire them — a lock another
    thread of the parent held at ``fork()`` stays locked forever in the
    child, and the parent's counters are not the child's to report."""
    global _REGISTRY, _CHANNELS, _CLOSED, _CLOSED_LOCK
    _REGISTRY = MetricsRegistry()
    _CHANNELS = weakref.WeakSet()
    _CLOSED = {}
    _CLOSED_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_state_in_child)


def register_channel(ch) -> None:
    _CHANNELS.add(ch)


def retire_channel(ch) -> None:
    """Fold a closing channel's counters into the closed-channel rollup.

    Idempotent per channel object: ``Channel.close()`` may run more than
    once (explicit close + ``__del__``), but the stats are harvested only
    the first time.  Same-name reincarnations (close/reopen of a peer
    link) accumulate, so ``channel_snapshot`` reports cumulative totals
    across the connection's whole history.
    """
    if getattr(ch, "_stats_retired", False):
        return
    try:
        ch._stats_retired = True
    except AttributeError:
        pass
    name = getattr(ch, "name", "")
    if not name:
        return
    stats = ch.stats.to_dict()
    with _CLOSED_LOCK:
        acc = _CLOSED.setdefault(name, {})
        for k, v in stats.items():
            acc[k] = acc.get(k, 0) + v
    _CHANNELS.discard(ch)


def reset_closed_channels() -> None:
    """Drop the closed-channel rollup (test isolation)."""
    with _CLOSED_LOCK:
        _CLOSED.clear()


def channel_snapshot() -> Dict[str, Dict[str, float]]:
    """``{channel name: stats}`` for every named channel.

    Live channels report their current counters; channels that closed
    contribute their final counters from the rollup, and a name that has
    lived more than once (close/reopen) reports the sum of all its
    incarnations plus whatever the current one has moved so far.
    """
    out: Dict[str, Dict[str, float]] = {}
    with _CLOSED_LOCK:
        for name, acc in _CLOSED.items():
            out[name] = dict(acc)
    for ch in list(_CHANNELS):
        name = getattr(ch, "name", "")
        if not name or getattr(ch, "_stats_retired", False):
            continue
        stats = ch.stats.to_dict()
        if name in out:
            acc = out[name]
            for k, v in stats.items():
                acc[k] = acc.get(k, 0) + v
        else:
            out[name] = stats
    return out


# --------------------------------------------------------------------- #
# stats emission into the trace stream
# --------------------------------------------------------------------- #


def emit_stats(tracer) -> None:
    """Write one ``stats`` snapshot event (metrics + channels) now."""
    tracer.emit(
        "stats", metrics=registry().snapshot(), channels=channel_snapshot()
    )


def maybe_emit_stats(tracer, interval: float = 1.0) -> bool:
    """Rate-limited :func:`emit_stats`: at most one per ``interval``
    seconds per tracer.  No-op when the tracer has spans disabled."""
    if not getattr(tracer, "spans", True):
        return False
    now = time.monotonic()
    last = getattr(tracer, "_last_stats", None)
    if last is not None and now - last < interval:
        return False
    tracer._last_stats = now
    emit_stats(tracer)
    return True


# --------------------------------------------------------------------- #
# stage spans: keep the timeline and StageTimes in exact agreement
# --------------------------------------------------------------------- #


@contextmanager
def traced_stage(
    tracer, stage_times, name: str, picture: int = -1
) -> Iterator[None]:
    """Time one contiguous stage region ONCE; feed the duration to both
    ``stage_times`` and (as a span) the trace stream, so the span total
    and the ``stage_times`` attribution are identical by construction."""
    if name not in stage_times.STAGES:
        raise KeyError(name)
    wall0 = time.time()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        setattr(stage_times, name, getattr(stage_times, name) + dt)
        if tracer is not None and getattr(tracer, "spans", True):
            tracer.emit(name, picture=picture, ts=wall0, ph="B")
            tracer.emit(
                name, picture=picture, ts=wall0 + dt, ph="E",
                dur_s=round(dt, 9),
            )


@contextmanager
def stage_span_block(
    tracer,
    stage_times,
    parent: str,
    picture: int = -1,
    stages: Optional[Sequence[str]] = None,
) -> Iterator[None]:
    """Emit a real ``parent`` span around the block, then lay synthesized
    child spans — one per stage that accrued time inside the block — back
    to back from the parent's start.

    The child durations come from the ``stage_times`` deltas across the
    block, so per-stage totals computed from spans match
    :func:`repro.perf.trace.load_stage_times` exactly even when the block
    interleaves stages per record (the batched bitstream decode path).
    """
    names = tuple(stages if stages is not None else stage_times.STAGES)
    enabled = tracer is not None and getattr(tracer, "spans", True)
    before = {s: getattr(stage_times, s) for s in names}
    wall0 = time.time()
    t0 = time.perf_counter()
    if enabled:
        tracer.emit(parent, picture=picture, ts=wall0, ph="B")
    try:
        yield
    finally:
        dur = time.perf_counter() - t0
        if enabled:
            cur = wall0
            for s in names:
                dt = getattr(stage_times, s) - before[s]
                if dt <= 0:
                    continue
                tracer.emit(s, picture=picture, ts=cur, ph="B")
                cur += dt
                tracer.emit(
                    s, picture=picture, ts=cur, ph="E", dur_s=round(dt, 9)
                )
            tracer.emit(
                parent, picture=picture, ts=wall0 + dur, ph="E",
                dur_s=round(dur, 9),
            )


__all__: List[str] = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BOUNDS",
    "registry",
    "register_channel",
    "retire_channel",
    "reset_closed_channels",
    "channel_snapshot",
    "emit_stats",
    "maybe_emit_stats",
    "traced_stage",
    "stage_span_block",
]
