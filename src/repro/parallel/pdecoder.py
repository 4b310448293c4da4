"""Per-tile decoder (paper §4.1, refined algorithm Table 3).

A tile decoder receives (MEI, SP) pairs in decode order.  For each picture
it first executes the MEI SEND instructions (reading previously decoded
reference frames), applies the received blocks into its local reference
copies, then decodes the sub-picture through the same parse -> plan ->
execute phases as the sequential decoder.

No server thread and no blocking demand-fetch exist anywhere in this class
— the pre-calculated exchange is the paper's central decoder-side idea.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2 import fast_vlc
from repro.mpeg2.batch_reconstruct import ExecuteScratch, execute_plan
from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import ReferenceChain
from repro.mpeg2.frames import Frame
from repro.mpeg2.macroblock import (
    CodingState,
    Macroblock,
    make_skipped,
    parse_macroblock_body,
)
from repro.mpeg2.plan import PlanBuilder, QuantMatrices, check_plan
from repro.mpeg2.plan_codec import TilePlan
from repro.mpeg2.structures import SequenceHeader
from repro.perf.metrics import StageTimes
from repro.perf.telemetry import registry
from repro.parallel.mei import BWD, FWD, MEIProgram, PixelBlock
from repro.parallel.subpicture import RunRecord, SkipRecord, SubPicture
from repro.wall.layout import Tile, TileLayout


@dataclass
class TileDecoderStats:
    """Accounting for the runtime-breakdown and bandwidth figures."""

    macroblocks_decoded: int = 0
    macroblocks_skipped: int = 0
    pictures_decoded: int = 0
    serve_bytes: int = 0  # pixels sent to other decoders
    fetch_bytes: int = 0  # pixels received from other decoders
    subpicture_bytes: int = 0
    macroblocks_concealed: int = 0  # error-concealment substitutions
    records_failed: int = 0


class TileDecoder:
    """Decode the sub-pictures of one tile of the wall.

    ``conceal_errors=True`` turns record-level parse failures (corrupted
    sub-picture payloads) into concealment: the affected macroblocks are
    copied from the forward reference (or left neutral in an I picture)
    instead of aborting the wall — a frame-accurate glitch instead of a
    crash, as a production decoder behaves.
    """

    def __init__(
        self,
        tile: Tile,
        layout: TileLayout,
        sequence: SequenceHeader,
        conceal_errors: bool = False,
    ):
        self.tile = tile
        self.layout = layout
        self.sequence = sequence
        self.conceal_errors = conceal_errors
        self.matrices = QuantMatrices.from_sequence(sequence)
        self._scratch = ExecuteScratch()
        self.chain: ReferenceChain[Frame] = ReferenceChain()
        self.stats = TileDecoderStats()
        self.stage_times = StageTimes()
        # per-picture decode latency distribution (p50/p95/p99 in the
        # periodic ``stats`` snapshots and the trace report)
        self.picture_hist = registry().histogram("decoder.picture_s")
        self._expected_picture = 0

    # ------------------------------------------------------------------ #
    # reference bookkeeping
    # ------------------------------------------------------------------ #

    def _ref_for_direction(self, direction: int, ptype: PictureType) -> Frame:
        """The reference frame a transfer direction denotes for ``ptype``."""
        fwd, bwd = self.chain.refs(ptype)
        if direction == FWD:
            ref = fwd
        elif direction == BWD:
            if ptype != PictureType.B:
                raise ValueError("backward reference outside a B picture")
            ref = bwd
        else:
            raise ValueError(f"bad direction {direction}")
        if ref is None:
            raise ValueError("reference frame not yet decoded")
        return ref

    # ------------------------------------------------------------------ #
    # MEI execution
    # ------------------------------------------------------------------ #

    def execute_sends(
        self, program: MEIProgram, ptype: PictureType
    ) -> List[PixelBlock]:
        """Run the SEND instructions: cut reference pixels for peers."""
        out: List[PixelBlock] = []
        for xfer, dest in program.sends:
            ref = self._ref_for_direction(xfer.direction, ptype)
            lr, cr_ = xfer.luma, xfer.chroma
            y = ref.y[lr.y0 : lr.y1, lr.x0 : lr.x1].copy() if lr.area else None
            cb = (
                ref.cb[cr_.y0 : cr_.y1, cr_.x0 : cr_.x1].copy() if cr_.area else None
            )
            cr = (
                ref.cr[cr_.y0 : cr_.y1, cr_.x0 : cr_.x1].copy() if cr_.area else None
            )
            block = PixelBlock(
                xfer=xfer, src=self.tile.tid, dest=dest, y=y, cb=cb, cr=cr
            )
            self.stats.serve_bytes += block.nbytes
            out.append(block)
        return out

    def apply_recv(self, block: PixelBlock, ptype: PictureType) -> None:
        """Write one received transfer into the local reference copy."""
        if block.dest != self.tile.tid:
            raise ValueError("transfer delivered to the wrong decoder")
        ref = self._ref_for_direction(block.xfer.direction, ptype)
        lr, cr_ = block.xfer.luma, block.xfer.chroma
        if block.y is not None:
            ref.y[lr.y0 : lr.y1, lr.x0 : lr.x1] = block.y
        if block.cb is not None:
            ref.cb[cr_.y0 : cr_.y1, cr_.x0 : cr_.x1] = block.cb
        if block.cr is not None:
            ref.cr[cr_.y0 : cr_.y1, cr_.x0 : cr_.x1] = block.cr
        self.stats.fetch_bytes += block.nbytes

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #

    def _begin_picture(self, picture_index: int, tile: int, ptype: PictureType):
        """Shared ordering/reference checks; returns (frame, fwd, bwd)."""
        if tile != self.tile.tid:
            raise ValueError("sub-picture routed to the wrong tile")
        if picture_index != self._expected_picture:
            raise ValueError(
                f"picture {picture_index} arrived out of order at tile "
                f"{self.tile.tid} (expected {self._expected_picture})"
            )
        self._expected_picture += 1
        fwd, bwd = self.chain.refs(ptype)
        frame = Frame.blank(self.sequence.width, self.sequence.height)
        return frame, fwd, bwd

    def _finish_picture(self, ptype: PictureType, frame: Frame) -> Optional[Frame]:
        """The usual anchor/B reorder: B frames display immediately, anchors
        release the previously held anchor."""
        self.stats.pictures_decoded += 1
        return self.chain.push(ptype, frame)

    def decode_subpicture(self, sp: SubPicture) -> Optional[Frame]:
        """Decode one sub-picture; returns the next display-order frame for
        this tile, if one became ready (the usual anchor/B reorder)."""
        t0 = time.perf_counter()
        ptype = sp.picture_type
        frame, fwd, bwd = self._begin_picture(sp.picture_index, sp.tile, ptype)
        self.stats.subpicture_bytes += sp.wire_bytes
        self._decode_records(sp, frame, fwd, bwd)
        self.picture_hist.observe(time.perf_counter() - t0)
        return self._finish_picture(ptype, frame)

    def decode_plan(self, tp: TilePlan) -> Optional[Frame]:
        """Decode one splitter-compiled plan: no VLC work on this side —
        straight to the batched execute phase (plan shipping)."""
        t0 = time.perf_counter()
        ptype = tp.picture_type
        frame, fwd, bwd = self._begin_picture(tp.picture_index, tp.tile, ptype)
        self.stats.subpicture_bytes += tp.wire_bytes
        with self.stage_times.stage("execute"):
            # the wire record has no raster: landing sites and vectors are
            # held to this decoder's before they index its planes
            check_plan(tp.plan, self.sequence.width, self.sequence.height)
            execute_plan(tp.plan, frame, fwd, bwd, self._scratch)
        self.stats.macroblocks_decoded += tp.n_coded
        self.stats.macroblocks_skipped += tp.n_skipped
        self.picture_hist.observe(time.perf_counter() - t0)
        return self._finish_picture(ptype, frame)

    def flush(self) -> Optional[Frame]:
        """End of stream: the held anchor becomes displayable."""
        return self.chain.flush()

    def retile(self, tile: Tile, layout: TileLayout) -> None:
        """Swap tile geometry at a closed-GOP boundary (adaptive partition).

        Reference frames are full-raster (tile geometry only selects which
        macroblocks arrive and which crop ships to the collector), so this
        is a pure geometry change — no reference pixels move.  The caller
        guarantees the swap happens only where no motion vector crosses
        the cut: the first picture of a closed GOP.
        """
        if tile.tid != self.tile.tid:
            raise ValueError(
                f"retile changed the tile id ({self.tile.tid} -> {tile.tid})"
            )
        if layout.width != self.sequence.width or layout.height != self.sequence.height:
            raise ValueError("layout raster does not match the video raster")
        self.tile = tile
        self.layout = layout

    def _conceal(
        self, addresses, frame: Frame, fwd: Optional[Frame], mb_width: int
    ) -> None:
        """Temporal concealment: copy the co-located reference pixels."""
        for addr in addresses:
            mb_x, mb_y = addr % mb_width, addr // mb_width
            ys = slice(mb_y * 16, mb_y * 16 + 16)
            xs = slice(mb_x * 16, mb_x * 16 + 16)
            cys = slice(mb_y * 8, mb_y * 8 + 8)
            cxs = slice(mb_x * 8, mb_x * 8 + 8)
            if fwd is not None:
                frame.y[ys, xs] = fwd.y[ys, xs]
                frame.cb[cys, cxs] = fwd.cb[cys, cxs]
                frame.cr[cys, cxs] = fwd.cr[cys, cxs]
            self.stats.macroblocks_concealed += 1

    # ------------------------------------------------------------------ #
    # parse -> plan -> execute
    # ------------------------------------------------------------------ #

    def _decode_records(
        self,
        sp: SubPicture,
        frame: Frame,
        fwd: Optional[Frame],
        bwd: Optional[Frame],
    ) -> None:
        """Phase 1: entropy-parse every record into the reconstruction plan
        (per-record, so concealment keeps its failure granularity);
        phase 2: one batched execute for the whole sub-picture."""
        header = sp.picture_header()
        mb_width = sp.mb_width
        timers = self.stage_times
        builder = PlanBuilder(
            header.picture_type,
            mb_width,
            self.sequence.width,
            self.sequence.height,
            self.matrices,
            header.dc_scaler,
        )
        for rec in sp.records:
            try:
                if isinstance(rec, RunRecord):
                    with timers.stage("parse"):
                        mbs, n_skipped = self._parse_run(rec, header)
                elif isinstance(rec, SkipRecord):
                    mbs, n_skipped = self._expand_skip(rec), rec.count
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown record {type(rec)!r}")
                with timers.stage("plan"):
                    builder.add_all(mbs)
            except (BitstreamError, ValueError):
                if not self.conceal_errors:
                    raise
                self.stats.records_failed += 1
                if isinstance(rec, RunRecord):
                    addresses = range(rec.sph.address, rec.sph.address + rec.n_total)
                else:
                    addresses = range(rec.address, rec.address + rec.count)
                self._conceal(addresses, frame, fwd, mb_width)
                continue
            self.stats.macroblocks_decoded += len(mbs) - n_skipped
            self.stats.macroblocks_skipped += n_skipped
        with timers.stage("execute"):
            execute_plan(builder.build(), frame, fwd, bwd, self._scratch)

    def _parse_run(self, rec: RunRecord, header) -> Tuple[List[Macroblock], int]:
        """Entropy-parse a partial slice into macroblocks (no pixels)."""
        br = BitReader(rec.payload, start_bit=rec.sph.skip_bits)
        state = CodingState(picture=header)
        state.restore(rec.sph.to_state_snapshot())

        mbs: List[Macroblock] = []
        n_skipped = 0
        mb = parse_macroblock_body(br, state)
        mb.address = rec.sph.address
        mbs.append(mb)
        coded = 1
        cur = rec.sph.address
        while coded < rec.n_coded:
            inc = fast_vlc.decode_address_increment(br)
            for skip_addr in range(cur + 1, cur + inc):
                mbs.append(make_skipped(skip_addr, state))
                n_skipped += 1
            mb = parse_macroblock_body(br, state)
            mb.address = cur + inc
            mbs.append(mb)
            coded += 1
            cur = mb.address
        used = br.pos - rec.sph.skip_bits
        if used != rec.nbits:
            raise BitstreamError(
                f"partial slice consumed {used} bits, header said {rec.nbits}"
            )
        return mbs, n_skipped

    def _expand_skip(self, rec: SkipRecord) -> List[Macroblock]:
        """Materialize a boundary-crossing skip run as macroblocks."""
        mbs: List[Macroblock] = []
        for i in range(rec.count):
            mb = Macroblock(address=rec.address + i, skipped=True)
            mb.motion_forward = rec.forward
            mb.motion_backward = rec.backward
            if rec.forward:
                mb.mv_fwd = rec.mv_fwd
            if rec.backward:
                mb.mv_bwd = rec.mv_bwd
            mbs.append(mb)
        return mbs
