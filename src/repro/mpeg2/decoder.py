"""Reference sequential MPEG-2 decoder.

This is the correctness oracle: the parallel 1-k-(m,n) system must produce
bit-exactly the frames this decoder produces.  It is deliberately built from
the same parts the parallel system uses — :class:`PictureScanner` for
picture boundaries, :class:`MacroblockParser` for the VLC layer, and
:mod:`repro.mpeg2.reconstruct` for pixels — so a mismatch isolates a bug in
the *parallel* machinery (SPH, MEI, ordering), not in duplicated codec code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.mpeg2.batch_reconstruct import ExecuteScratch, execute_plan
from repro.mpeg2.constants import PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, ParsedPicture, PictureScanner
from repro.mpeg2.plan import QuantMatrices, plan_from_columns
from repro.mpeg2.reconstruct import reconstruct_macroblock
from repro.mpeg2.structures import SequenceHeader
from repro.perf.metrics import StageTimes


@dataclass
class DecodeStats:
    """Per-picture accounting used by the cost-model calibration."""

    picture_types: List[PictureType] = field(default_factory=list)
    coded_macroblocks: List[int] = field(default_factory=list)
    skipped_macroblocks: List[int] = field(default_factory=list)
    picture_bytes: List[int] = field(default_factory=list)


class Decoder:
    """Decode a full stream; frames come out in display order.

    ``batch_reconstruct`` selects the two-phase batched reconstruction
    engine (the default); ``False`` keeps the per-macroblock reference
    path.  Both are bit-identical — the flag exists so the reference
    implementation stays runnable for golden comparisons and debugging.
    """

    def __init__(self, batch_reconstruct: bool = True) -> None:
        self.sequence: Optional[SequenceHeader] = None
        self.stats = DecodeStats()
        self.batch_reconstruct = batch_reconstruct
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

        held: Optional[Frame] = None  # most recent anchor, not yet displayed
        prev_anchor: Optional[Frame] = None
        for unit in pictures:
            with timers.stage("parse"):
                parsed = parser.parse_picture(unit.data, lean=True)
            timers.pictures += 1
            self.stats.picture_types.append(parsed.header.picture_type)
            self.stats.coded_macroblocks.append(parsed.n_coded)
            self.stats.skipped_macroblocks.append(parsed.n_skipped)
            self.stats.picture_bytes.append(len(unit.data))

            if parsed.header.picture_type == PictureType.B:
                frame = reconstruct_picture(
                    parsed, sequence, prev_anchor, held,
                    batch=self.batch_reconstruct, timers=timers, matrices=matrices,
                    scratch=scratch,
                )
                yield frame
            else:
                fwd = held  # anchor available when this picture was coded
                frame = reconstruct_picture(
                    parsed,
                    sequence,
                    fwd if parsed.header.picture_type == PictureType.P else None,
                    None,
                    batch=self.batch_reconstruct,
                    timers=timers,
                    matrices=matrices,
                    scratch=scratch,
                )
                if held is not None:
                    yield held
                prev_anchor = held
                held = frame
        if held is not None:
            yield held


def reconstruct_picture(
    parsed: ParsedPicture,
    sequence: SequenceHeader,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    batch: bool = True,
    timers: Optional[StageTimes] = None,
    matrices: Optional[QuantMatrices] = None,
    scratch: Optional[ExecuteScratch] = None,
) -> Frame:
    """Reconstruct every macroblock of a parsed picture into a new frame.

    ``batch=True`` runs the two-phase batched engine
    (:mod:`repro.mpeg2.batch_reconstruct`); ``batch=False`` runs the
    per-macroblock reference path.  Both produce bit-identical frames.
    ``matrices`` is ``QuantMatrices.from_sequence(sequence)`` and
    ``scratch`` the batched engine's arena, for a caller that decodes many
    pictures to build once (and, the arena, to keep to itself).
    """
    ptype = parsed.header.picture_type
    if ptype == PictureType.P and fwd is None:
        raise ValueError("P-picture without forward reference")
    if ptype == PictureType.B and (fwd is None or bwd is None):
        raise ValueError("B-picture without two references")
    # Before any pixel work: the picture covers its raster exactly once.
    expected = parsed.mb_width * parsed.mb_height
    covered = np.bincount(parsed.columns.address, minlength=expected)
    repeated = int((covered > 1).sum())
    if repeated:
        raise ValueError(f"picture codes {repeated} macroblock addresses more than once")
    missing = expected - int(covered[:expected].sum())
    if missing:
        raise ValueError(f"picture is missing {missing} macroblocks")
    out = Frame.blank(sequence.width, sequence.height)
    matrices = matrices or QuantMatrices.from_sequence(sequence)
    timers = timers if timers is not None else StageTimes()
    if batch:
        with timers.stage("plan"):
            plan = plan_from_columns(parsed, sequence.width, sequence.height, matrices)
        with timers.stage("execute"):
            execute_plan(plan, out, fwd, bwd, scratch)
    else:
        with timers.stage("execute"):
            for item in parsed.items:
                reconstruct_macroblock(
                    item.mb, ptype, out, fwd, bwd, parsed.mb_width, matrices,
                    parsed.header.dc_scaler,
                )
    return out


def decode_stream(stream: bytes) -> List[Frame]:
    """Convenience wrapper: decode ``stream`` to display-order frames."""
    return Decoder().decode(stream)
