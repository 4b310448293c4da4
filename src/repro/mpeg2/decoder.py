"""Reference sequential MPEG-2 decoder.

This is the correctness oracle: the parallel 1-k-(m,n) system must produce
bit-exactly the frames this decoder produces.  It is deliberately built from
the same parts the parallel system uses — :class:`PictureScanner` for
picture boundaries, :class:`MacroblockParser` for the VLC layer,
:class:`ReferenceChain` for the anchor/B reorder and
:mod:`repro.mpeg2.batch_reconstruct` for pixels — so a mismatch isolates a
bug in the *parallel* machinery (SPH, MEI, ordering), not in duplicated
codec code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from repro.mpeg2.batch_reconstruct import ExecuteScratch, execute_plan
from repro.mpeg2.constants import PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.motion import Rect
from repro.mpeg2.parser import MacroblockParser, ParsedPicture, PictureScanner
from repro.mpeg2.plan import QuantMatrices, plan_from_columns
from repro.mpeg2.structures import SequenceHeader
from repro.perf.metrics import StageTimes

T = TypeVar("T")


@dataclass
class DecodeStats:
    """Per-picture accounting used by the cost-model calibration."""

    picture_types: List[PictureType] = field(default_factory=list)
    coded_macroblocks: List[int] = field(default_factory=list)
    skipped_macroblocks: List[int] = field(default_factory=list)
    picture_bytes: List[int] = field(default_factory=list)


def check_references(ptype: PictureType, fwd: object, bwd: object) -> None:
    """A P picture predicts from one decoded anchor, a B picture from two."""
    if ptype == PictureType.P and fwd is None:
        raise ValueError("P-picture without forward reference")
    if ptype == PictureType.B and (fwd is None or bwd is None):
        raise ValueError("B-picture without two references")


class ReferenceChain(Generic[T]):
    """The anchor/B reorder: which references the next coded picture reads,
    and frames out in display order.

    Coded order puts an anchor (I or P) before the B pictures that display
    ahead of it, so the newest anchor is *held* until the next one arrives
    and a B picture displays at once.  A B picture reads the held anchor as
    its backward reference and the anchor before it as its forward one —
    across a GOP boundary too, which is what an open GOP's leading B
    pictures need.  Every decode loop in ``src/`` owns one chain; what it
    chains is the caller's (frames, or anything that travels with them).
    """

    def __init__(self) -> None:
        self.held: Optional[T] = None  # newest anchor, not yet displayed
        self.prev_anchor: Optional[T] = None

    def refs(self, ptype: PictureType) -> Tuple[Optional[T], Optional[T]]:
        """``(fwd, bwd)`` for a picture of ``ptype``; ``ValueError`` when a
        reference it needs has not been decoded."""
        if ptype == PictureType.B:
            fwd, bwd = self.prev_anchor, self.held
        else:
            fwd, bwd = (self.held if ptype == PictureType.P else None), None
        check_references(ptype, fwd, bwd)
        return fwd, bwd

    def push(self, ptype: PictureType, frame: T) -> Optional[T]:
        """Take the decoded picture; returns what became displayable."""
        if ptype == PictureType.B:
            return frame
        shown = self.held
        self.prev_anchor, self.held = self.held, frame
        return shown

    def flush(self) -> Optional[T]:
        """End of stream: the held anchor becomes displayable."""
        shown, self.held = self.held, None
        return shown

    def reset(self) -> None:
        """Forget both anchors: nothing predicts until the next I picture."""
        self.held = self.prev_anchor = None


class Decoder:
    """Decode a full stream; frames come out in display order."""

    def __init__(self) -> None:
        self.sequence: Optional[SequenceHeader] = None
        self.stats = DecodeStats()
        self.stage_times = StageTimes()

    def decode(self, stream: bytes) -> List[Frame]:
        return list(self.iter_decode(stream))

    def decode_from_gop(self, stream: bytes, gop_index: int) -> List[Frame]:
        """Random access: decode starting at the ``gop_index``-th GOP.

        Closed GOPs are self-contained (§6.3.8), so seeking to one needs no
        earlier reference data — the property players and the paper's
        GOP-level baseline rely on.
        """
        return list(self.iter_decode(stream, start_gop=gop_index))

    @staticmethod
    def seek_points(stream: bytes) -> List[int]:
        """Coded-picture indices where GOPs begin (the seekable instants)."""
        _, pictures = PictureScanner(stream).scan()
        return [u.coded_index for u in pictures if u.new_gop]

    def iter_decode(self, stream: bytes, start_gop: int = 0) -> Iterator[Frame]:
        """Decode lazily, yielding frames in display order."""
        scanner = PictureScanner(stream)
        sequence, pictures = scanner.scan()
        self.sequence = sequence
        if start_gop:
            starts = [u.coded_index for u in pictures if u.new_gop]
            if start_gop >= len(starts):
                raise ValueError(
                    f"stream has {len(starts)} GOPs, cannot seek to {start_gop}"
                )
            first = pictures[starts[start_gop]]
            if first.gop is not None and not first.gop.closed_gop:
                raise ValueError("cannot seek into an open GOP")
            pictures = pictures[starts[start_gop] :]
        parser = MacroblockParser(sequence)
        matrices = QuantMatrices.from_sequence(sequence)
        scratch = ExecuteScratch()
        self.stats = DecodeStats()
        self.stage_times = StageTimes()
        timers = self.stage_times

        chain: ReferenceChain[Frame] = ReferenceChain()
        for unit in pictures:
            with timers.stage("parse"):
                parsed = parser.parse_picture(unit.data, lean=True)
            timers.pictures += 1
            ptype = parsed.header.picture_type
            self.stats.picture_types.append(ptype)
            self.stats.coded_macroblocks.append(parsed.n_coded)
            self.stats.skipped_macroblocks.append(parsed.n_skipped)
            self.stats.picture_bytes.append(len(unit.data))

            fwd, bwd = chain.refs(ptype)
            frame = reconstruct_picture(
                parsed, sequence, fwd, bwd,
                matrices=matrices, scratch=scratch, timers=timers,
            )
            shown = chain.push(ptype, frame)
            if shown is not None:
                yield shown
        tail = chain.flush()
        if tail is not None:
            yield tail


def reconstruct_picture(
    parsed: ParsedPicture,
    sequence: SequenceHeader,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    rect: Optional[Rect] = None,
    matrices: Optional[QuantMatrices] = None,
    scratch: Optional[ExecuteScratch] = None,
    timers: Optional[StageTimes] = None,
) -> Frame:
    """Reconstruct a parsed picture into a new frame: plan, then execute
    (:mod:`repro.mpeg2.batch_reconstruct`).

    Without ``rect`` the picture must cover its raster exactly once and
    every macroblock is reconstructed.  With one, only the macroblocks
    intersecting ``rect`` are: the frame is full-raster but valid only
    inside it (outside stays blank) — the contract of a tile's coverage
    reference frames, and bit-identical to the whole picture there.
    ``matrices`` is ``QuantMatrices.from_sequence(sequence)`` and
    ``scratch`` the execute arena, for a caller that decodes many pictures
    to build once (and, the arena, to keep to itself).
    """
    check_references(parsed.header.picture_type, fwd, bwd)
    if rect is None:
        # Before any pixel work: the picture covers its raster exactly once.
        expected = parsed.mb_width * parsed.mb_height
        covered = np.bincount(parsed.columns.address, minlength=expected)
        repeated = int((covered > 1).sum())
        if repeated:
            raise ValueError(
                f"picture codes {repeated} macroblock addresses more than once"
            )
        missing = expected - int(covered[:expected].sum())
        if missing:
            raise ValueError(f"picture is missing {missing} macroblocks")
        # ... so every sample will be written: nothing to fill first
        rows = None
        out = Frame.uninitialised(sequence.width, sequence.height)
    else:
        rows = parsed.rows_in(rect)
        out = Frame.blank(sequence.width, sequence.height)  # outside stays blank
    matrices = matrices or QuantMatrices.from_sequence(sequence)
    timers = timers if timers is not None else StageTimes()
    with timers.stage("plan"):
        plan = plan_from_columns(parsed, sequence.width, sequence.height, matrices, rows)
    with timers.stage("execute"):
        execute_plan(plan, out, fwd, bwd, scratch)
    return out


def decode_stream(stream: bytes) -> List[Frame]:
    """Convenience wrapper: decode ``stream`` to display-order frames."""
    return Decoder().decode(stream)
