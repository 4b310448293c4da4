"""Session state and the incremental, drop-capable decode engine.

A :class:`Session` is one admitted stream: its spec, its pacer, its
counters, and a :class:`PacedStreamDecoder` that decodes the stream one
coded picture at a time so the scheduler can interleave many sessions on
one worker pool and the pacer can skip pictures.

Skipping is **reference-safe**: dropping a B-picture touches nothing
(no picture predicts from a B); dropping a P-picture poisons the
prediction chain, so the decoder marks the GOP *broken* and force-drops
every later non-I picture of that GOP even if the ladder has recovered —
a degraded wall shows a held frame, never corrupted pixels.  I-pictures
re-anchor the chain and are never dropped.

The decoder reuses the real machinery (:class:`PictureScanner`,
:class:`MacroblockParser`, :func:`reconstruct_picture`) — a session's
output frames are bit-identical to the sequential decoder's whenever
nothing was dropped, which the service tests assert.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from repro.bitstream import BitReader
from repro.mpeg2.batch_reconstruct import ExecuteScratch
from repro.mpeg2.constants import PICTURE_START_CODE, PictureType
from repro.mpeg2.decoder import ReferenceChain, reconstruct_picture
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.plan import QuantMatrices
from repro.mpeg2.structures import PictureHeader
from repro.obs.slo import SLOConfig, SLOTracker
from repro.perf.metrics import families
from repro.perf.telemetry import Histogram
from repro.service.pacer import LEVEL_NAMES, LadderConfig, SessionPacer
from repro.workloads.streams import StreamSpec


def peek_picture_type(data: bytes) -> PictureType:
    """Read a picture unit's coding type from its header — no VLC work."""
    br = BitReader(data)
    code = br.next_start_code()
    if code != PICTURE_START_CODE:
        raise ValueError("picture unit does not start with a picture start code")
    return PictureHeader.parse(br).picture_type


@dataclass(frozen=True)
class PictureMeta:
    """Drop-decision inputs for one coded picture, computed up front."""

    ptype: PictureType
    gop_pos: int  # coded position within its GOP
    gop_size: int  # coded pictures in that GOP


@dataclass
class StepResult:
    """What one decode step did."""

    index: int
    ptype: PictureType
    decoded: bool
    forced: bool = False  # dropped because the reference chain was broken
    frame: Optional[Frame] = None  # display-order output, when one emerged


class PacedStreamDecoder:
    """Decode a stream picture-by-picture with reference-safe drops.

    ``start_at`` resumes decode at a mid-stream coded picture: the fleet
    gateway's failover replays a session to a new daemon from the next
    I-picture after the old daemon's last progress point.  Resumption
    must land on an I-picture — only a keyframe re-anchors the reference
    chain, so starting anywhere else could never be bit-identical to a
    clean decode from the same point.
    """

    def __init__(self, stream: bytes, start_at: int = 0):
        self.sequence, self.pictures = PictureScanner(stream).scan()
        self.parser = MacroblockParser(self.sequence)
        self.matrices = QuantMatrices.from_sequence(self.sequence)
        self._scratch = ExecuteScratch()
        self.meta: List[PictureMeta] = self._scan_meta()
        if start_at and not 0 <= start_at < len(self.pictures):
            raise ValueError(
                f"start_at {start_at} out of range "
                f"(stream has {len(self.pictures)} pictures)"
            )
        if start_at and self.meta[start_at].ptype != PictureType.I:
            raise ValueError(
                f"can only resume at an I-picture; picture {start_at} is "
                f"{self.meta[start_at].ptype.name}"
            )
        self.start_at = start_at
        self._chain: ReferenceChain[Frame] = ReferenceChain()
        self._broken = False
        self.next_index = start_at

    def _scan_meta(self) -> List[PictureMeta]:
        """Peek every picture's type and GOP position (header-only parse)."""
        metas: List[PictureMeta] = []
        starts: List[int] = []
        for i, unit in enumerate(self.pictures):
            if unit.new_gop or i == 0:
                starts.append(i)
        starts.append(len(self.pictures))
        bounds = {}
        for s, e in zip(starts, starts[1:]):
            for i in range(s, e):
                bounds[i] = (i - s, e - s)
        for i, unit in enumerate(self.pictures):
            pos, size = bounds[i]
            metas.append(
                PictureMeta(
                    ptype=peek_picture_type(unit.data), gop_pos=pos, gop_size=size
                )
            )
        return metas

    @property
    def n_pictures(self) -> int:
        return len(self.pictures)

    @property
    def done(self) -> bool:
        return self.next_index >= len(self.pictures)

    def step(self, drop: bool) -> StepResult:
        """Process the next coded picture; ``drop`` is the pacer's wish."""
        i = self.next_index
        meta = self.meta[i]
        self.next_index += 1
        ptype = meta.ptype

        if ptype == PictureType.I:
            self._broken = False  # keyframes re-anchor a poisoned chain
        forced = not drop and self._broken and ptype != PictureType.I
        if drop and ptype == PictureType.I:
            raise ValueError("the ladder never drops I-pictures")

        if drop or forced:
            if ptype == PictureType.P:
                self._broken = True
            return StepResult(index=i, ptype=ptype, decoded=False, forced=forced)

        parsed = self.parser.parse_picture(self.pictures[i].data, lean=True)
        fwd, bwd = self._chain.refs(ptype)
        frame = reconstruct_picture(
            parsed, self.sequence, fwd, bwd,
            matrices=self.matrices, scratch=self._scratch,
        )
        return StepResult(
            index=i, ptype=ptype, decoded=True, frame=self._chain.push(ptype, frame)
        )

    def flush(self) -> Optional[Frame]:
        """The final held anchor, once every picture has been stepped."""
        return self._chain.flush()


def i_picture_indices(stream: bytes) -> List[int]:
    """Coded indices of every I-picture — the resumable points of a stream.

    The gateway computes this once per submitted session (header-only
    parse, no VLC work) so failover can pick the next anchor without the
    stream in hand at failure time.
    """
    _seq, pictures = PictureScanner(stream).scan()
    return [
        i
        for i, unit in enumerate(pictures)
        if peek_picture_type(unit.data) == PictureType.I
    ]


def clean_decode_digest(stream: bytes, start_at: int = 0) -> str:
    """SHA-256 over the display-order output of an undropped decode
    starting at coded picture ``start_at`` (an I-picture).

    This is the failover acceptance oracle: a session resumed on another
    daemon at ``start_at`` must report exactly this digest — the resumed
    output is bit-identical to a clean decode from that anchor onward.
    """
    dec = PacedStreamDecoder(stream, start_at=start_at)
    h = hashlib.sha256()
    while not dec.done:
        res = dec.step(drop=False)
        if res.frame is not None:
            _digest_frame(h, res.frame)
    tail = dec.flush()
    if tail is not None:
        _digest_frame(h, tail)
    return h.hexdigest()


def _digest_frame(h, frame: Frame) -> None:
    # hashed through the buffer protocol: no ``tobytes`` copy of each plane
    h.update(np.ascontiguousarray(frame.y))
    h.update(np.ascontiguousarray(frame.cb))
    h.update(np.ascontiguousarray(frame.cr))


# --------------------------------------------------------------------- #
# session
# --------------------------------------------------------------------- #


class SessionState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"


#: Latency histogram bounds: 0.1 ms .. ~30 s, geometric.
_LATENCY_BOUNDS = tuple(1e-4 * (10 ** (i / 4)) for i in range(22))


@dataclass
class SessionCounters:
    """Every number the session accounts; feeds ``session_summary``."""

    decoded: Dict[str, int] = field(
        default_factory=lambda: {"I": 0, "P": 0, "B": 0}
    )
    dropped_b: int = 0
    dropped_p: int = 0
    forced_drops: int = 0  # subset of the above: reference-chain casualties
    late_frames: int = 0  # decoded but past their presentation deadline
    released: int = 0  # display slots served (decoded frames shipped)
    # drops attributed to the ladder rung that shed them (obs plane)
    drops_by_rung: Dict[str, int] = field(default_factory=dict)

    @property
    def total_decoded(self) -> int:
        return sum(self.decoded.values())

    @property
    def total_dropped(self) -> int:
        return self.dropped_b + self.dropped_p


class Session:
    """One admitted stream working its way through the pool."""

    kind = "decode"  # vs. service.broadcast.BroadcastSession

    def __init__(
        self,
        sid: int,
        name: str,
        spec: StreamSpec,
        stream: bytes,
        weight: float = 1.0,
        slowdown_s: float = 0.0,
        ladder: LadderConfig = LadderConfig(),
        start_at: int = 0,
        slo: Optional[SLOConfig] = None,
    ):
        if weight <= 0:
            raise ValueError("session weight must be positive")
        self.sid = sid
        self.name = name
        self.spec = spec
        self.stream = stream
        self.weight = weight
        self.slowdown_s = slowdown_s
        self.start_at = start_at  # failover resume point (an I-picture)
        self.state = SessionState.QUEUED
        self.reason = ""
        self.pacer = SessionPacer(spec.fps, ladder, start_index=start_at)
        self.counters = SessionCounters()
        self._digest = hashlib.sha256()  # over every released frame, in order
        self.latency = Histogram(_LATENCY_BOUNDS)
        self.slo = SLOTracker(slo or SLOConfig())
        self._slo_alerting = False  # edge-triggered slo_burn emission
        self.decoder: Optional[PacedStreamDecoder] = None
        self.submitted_at = time.time()
        self.started_mono: Optional[float] = None
        self.finished_mono: Optional[float] = None
        # scheduler bookkeeping
        self.vt = 0.0  # weight-scaled virtual time (stride scheduling)
        self.in_flight = False
        self._lock = threading.Lock()

    # ----------------------------- scheduling ------------------------- #

    def wants_lease(self, now: float) -> bool:
        """Runnable right now: active, not leased, next picture gated open."""
        if self.state is not SessionState.RUNNING or self.in_flight:
            return False
        if self.decoder is not None and self.decoder.done:
            return False
        return self.gate_time() <= now

    def gate_time(self) -> float:
        """Earliest instant the next picture may start (pacer gate)."""
        if self.decoder is None or not self.pacer.started:
            return 0.0
        return self.pacer.gate_time(self.decoder.next_index)

    # ----------------------------- lifecycle -------------------------- #

    def start(self, now: float) -> None:
        """Admission → running: open the decoder and start the clock."""
        self.decoder = PacedStreamDecoder(self.stream, start_at=self.start_at)
        self.pacer.start(now)
        self.state = SessionState.RUNNING
        self.started_mono = now

    def cancel(self, reason: str = "cancelled by client") -> bool:
        with self._lock:
            if self.state in (
                SessionState.COMPLETED,
                SessionState.CANCELLED,
                SessionState.FAILED,
            ):
                return False
            self.state = SessionState.CANCELLED
            self.reason = reason
            return True

    def finish(self, state: SessionState, reason: str = "") -> None:
        with self._lock:
            if self.state in (SessionState.CANCELLED, SessionState.FAILED):
                pass  # terminal states win over a racing completion
            else:
                self.state = state
            if reason:
                self.reason = reason
            self.finished_mono = time.monotonic()

    # ----------------------------- execution -------------------------- #

    def run_one(self, tracer=None, now_fn=time.monotonic) -> StepResult:
        """Decode or drop the next picture.  Runs on a pool worker under a
        scheduler lease; emits per-picture spans and drop events."""
        assert self.decoder is not None
        i = self.decoder.next_index
        meta = self.decoder.meta[i]
        now = now_fn()
        drop, level = self.pacer.decide(
            i, meta.ptype, meta.gop_pos, meta.gop_size, now
        )
        gate = self.pacer.gate_time(i)
        if drop:
            res = self.decoder.step(drop=True)
        else:
            span = (
                tracer.span("decode", picture=i, sid=self.sid)
                if tracer is not None
                else _NULL
            )
            with span:
                res = self.decoder.step(drop=False)
                if res.decoded and self.slowdown_s > 0:
                    # documented load-generation knob: simulates a heavier
                    # codec so tests/benchmarks oversubscribe deterministically
                    time.sleep(self.slowdown_s)
        done = now_fn()
        late = False
        if res.decoded:
            self.latency.observe(max(0.0, done - gate))
            if done > self.pacer.deadline(i):
                self.counters.late_frames += 1
                late = True
            self.counters.decoded[res.ptype.name] += 1
            if res.frame is not None:
                self.counters.released += 1
                _digest_frame(self._digest, res.frame)
        else:
            if res.ptype == PictureType.B:
                self.counters.dropped_b += 1
            else:
                self.counters.dropped_p += 1
            if res.forced:
                self.counters.forced_drops += 1
            rung = LEVEL_NAMES[level] if 0 <= level < len(LEVEL_NAMES) else "?"
            self.counters.drops_by_rung[rung] = (
                self.counters.drops_by_rung.get(rung, 0) + 1
            )
            families().counter(
                "repro_pacer_drops_total",
                "pictures shed by the degradation ladder, per rung",
                labelnames=("rung",),
            ).inc(rung=rung)
            if tracer is not None:
                tracer.emit(
                    "drop",
                    picture=i,
                    sid=self.sid,
                    ptype=res.ptype.name,
                    level=level,
                    forced=res.forced,
                )
        self._record_slo(done, late=late, dropped=not res.decoded,
                         picture=i, tracer=tracer)
        if self.decoder.done:
            tail = self.decoder.flush()
            if tail is not None:
                self.counters.released += 1
                _digest_frame(self._digest, tail)
        return res

    def _record_slo(
        self, now: float, late: bool, dropped: bool, picture: int, tracer
    ) -> None:
        """Feed the burn-rate tracker; emit ``slo_burn`` on alert edges.

        The alert is edge-triggered with hysteresis (re-arms at half the
        alert threshold), so a session pinned above its budget writes one
        event when the burn starts, not one per picture.
        """
        self.slo.record(now, late=late, dropped=dropped)
        if self.slo.should_alert(now):
            if not self._slo_alerting:
                self._slo_alerting = True
                if tracer is not None and getattr(tracer, "spans", True):
                    d = self.slo.to_dict(now)
                    tracer.emit(
                        "slo_burn",
                        picture=picture,
                        sid=self.sid,
                        burn=d["worst_burn"],
                        burns=d["burns"],
                        windows_s=d["windows_s"],
                    )
        elif self.slo.worst_burn(now) < 0.5 * self.slo.config.burn_alert:
            self._slo_alerting = False

    # ----------------------------- reporting -------------------------- #

    @property
    def progress(self) -> float:
        if self.decoder is None or self.decoder.n_pictures == 0:
            return 0.0
        return self.decoder.next_index / self.decoder.n_pictures

    def playout_remaining_s(self) -> float:
        """Presentation time left — admission's retry-after estimate."""
        if self.decoder is None:
            return self.spec.n_frames / self.spec.fps
        left = self.decoder.n_pictures - self.decoder.next_index
        return left / self.spec.fps

    def summary(self) -> Dict:
        c = self.counters
        lat = self.latency.to_dict()
        dur = None
        if self.started_mono is not None:
            end = self.finished_mono or time.monotonic()
            dur = round(end - self.started_mono, 6)
        return {
            "sid": self.sid,
            "name": self.name,
            "state": self.state.value,
            "reason": self.reason,
            "weight": self.weight,
            "start_at": self.start_at,
            "output_digest": self._digest.hexdigest(),
            "demand_mpps": round(self.spec.demand_mpps, 4),
            "pictures": self.decoder.n_pictures if self.decoder else 0,
            "processed": self.decoder.next_index if self.decoder else 0,
            "decoded": dict(c.decoded),
            "released": c.released,
            "dropped_b": c.dropped_b,
            "dropped_p": c.dropped_p,
            "forced_drops": c.forced_drops,
            "late_frames": c.late_frames,
            "drops_by_rung": dict(c.drops_by_rung),
            "peak_degrade_level": self.pacer.ladder.peak_level,
            "degrade_transitions": self.pacer.ladder.transitions,
            "latency_p50_ms": round(1e3 * self.latency.percentile(50), 3),
            "latency_p95_ms": round(1e3 * self.latency.percentile(95), 3),
            "latency_p99_ms": round(1e3 * self.latency.percentile(99), 3),
            "latency_count": lat.get("count", 0),
            "duration_s": dur,
        }

    def live_stats(self, now: Optional[float] = None) -> Dict:
        """The ``VERB_STATS`` per-session row: summary plus live rates.

        ``now`` is on the session's monotonic clock (the pacer's time
        base); it defaults to the current instant.
        """
        now = time.monotonic() if now is None else now
        s = self.summary()
        dur = s.get("duration_s") or 0.0
        s["fps"] = round(self.counters.released / dur, 3) if dur > 0 else 0.0
        s["level"] = self.pacer.ladder.level
        s["slo"] = self.slo.to_dict(now)
        s["progress"] = round(self.progress, 4)
        return s


class _NullCtx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL = _NullCtx()
