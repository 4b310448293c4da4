"""Second-level (macroblock) splitter (paper §4.1 algorithm, refined §4.5).

For each coded picture the splitter:

1. VLC-parses the picture into macroblocks (no pixel work — "a splitter
   does not motion compensate", which is why pictures can be split in
   parallel with no inter-picture dependency);
2. sorts macroblocks into per-tile **sub-pictures**, copying partial-slice
   bytes and inserting State Propagation Headers where prediction chains
   break;
3. pre-calculates the **MEI** exchange programs from every motion vector
   that reads outside its tile's coverage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.mpeg2.constants import PictureType
from repro.mpeg2.parser import MacroblockParser, ParsedMB, ParsedPicture, PictureUnit
from repro.mpeg2.plan import (
    QuantMatrices,
    check_staging,
    plan_of_rows,
    reference_rects,
)
from repro.mpeg2.plan_codec import TilePlan
from repro.mpeg2.structures import SequenceHeader
from repro.parallel.mei import MEIBatch
from repro.parallel.subpicture import SPH, RunRecord, SkipRecord, SubPicture
from repro.perf.metrics import StageTimes
from repro.perf.telemetry import registry
from repro.wall.layout import TileLayout


@dataclass
class SplitResult:
    """Everything a second-level splitter ships for one picture."""

    picture_index: int
    subpictures: Dict[int, SubPicture]
    mei: MEIBatch
    picture_type: PictureType

    def subpicture_bytes(self, tile: int) -> int:
        return len(self.subpictures[tile].serialize())

    def total_send_bytes(self) -> int:
        """Bytes this splitter sends to decoders (SPs + MEI programs)."""
        return sum(
            len(sp.serialize()) + self.mei.program(t).instruction_bytes
            for t, sp in self.subpictures.items()
        )


@dataclass
class PlanSplitResult:
    """Plan-shipping counterpart of :class:`SplitResult`.

    Instead of sub-picture bitstreams, each tile gets a compiled
    :class:`~repro.mpeg2.plan_codec.TilePlan` — the decoder side goes
    straight to the vectorized execute phase with no VLC work.  The MEI
    exchange programs are identical to the bitstream path's.
    """

    picture_index: int
    plans: Dict[int, TilePlan]
    mei: MEIBatch
    picture_type: PictureType


@dataclass
class _Run:
    """An open partial slice being accumulated for one tile."""

    row: int
    slice_index: int
    items: List[ParsedMB] = field(default_factory=list)

    @property
    def next_addr(self) -> int:
        return self.items[-1].mb.address + 1


@dataclass
class _SkipStreak:
    first_address: int
    count: int
    forward: bool
    backward: bool
    mv_fwd: tuple
    mv_bwd: tuple


class MacroblockSplitter:
    """Split coded pictures into per-tile sub-pictures + MEI programs.

    ``collect_content=True`` records a per-column/per-row coded-bit
    profile of each parsed picture in :attr:`last_content` — the load
    proxy the content-aware partition policy feeds on (the bits were
    parsed anyway, so the profile is one bincount per picture).
    """

    def __init__(
        self,
        sequence: SequenceHeader,
        layout: TileLayout,
        collect_content: bool = False,
    ):
        if layout.width != sequence.width or layout.height != sequence.height:
            raise ValueError("layout raster does not match the video raster")
        self.sequence = sequence
        self.layout = layout
        self.collect_content = collect_content
        self.last_content = None  # (col_bits, row_bits) of the last parse
        self.parser = MacroblockParser(sequence)
        self.matrices = QuantMatrices.from_sequence(sequence)
        # parse/plan attribution for the per-process stage_times traces.
        self.stage_times = StageTimes()
        # per-picture split latency distribution for the stats snapshots
        self.split_hist = registry().histogram("splitter.split_s")

    def set_layout(self, layout: TileLayout) -> None:
        """Swap the tile partition (adaptive repartitioning).

        The splitter is stateless across pictures — parsing depends only
        on the sequence header — so a layout swap between pictures is
        safe; the caller (the runtime's layout schedule) guarantees it
        only happens at closed-GOP boundaries.
        """
        if layout.width != self.sequence.width or layout.height != self.sequence.height:
            raise ValueError("layout raster does not match the video raster")
        self.layout = layout

    # ------------------------------------------------------------------ #

    def split(self, unit: PictureUnit, picture_index: int) -> SplitResult:
        t0 = time.perf_counter()
        with self.stage_times.stage("parse"):
            parsed = self.parser.parse_picture(unit.data)
        self._note_content(parsed)
        with self.stage_times.stage("plan"):
            result = self.split_parsed(parsed, picture_index)
        self.stage_times.pictures += 1
        self.split_hist.observe(time.perf_counter() - t0)
        return result

    def split_plans(self, unit: PictureUnit, picture_index: int) -> PlanSplitResult:
        """Parse once, compile each tile's share into a shipped plan."""
        t0 = time.perf_counter()
        with self.stage_times.stage("parse"):
            # Lean parse: plans carry no SPHs, so skip the state snapshots.
            parsed = self.parser.parse_picture(unit.data, lean=True)
        self._note_content(parsed)
        with self.stage_times.stage("plan"):
            result = self.compile_plans(parsed, picture_index)
        self.stage_times.pictures += 1
        self.split_hist.observe(time.perf_counter() - t0)
        return result

    def _note_content(self, parsed: ParsedPicture) -> None:
        if self.collect_content:
            from repro.parallel.partition import content_profile

            self.last_content = content_profile(parsed)

    def compile_plans(
        self, parsed: ParsedPicture, picture_index: int
    ) -> PlanSplitResult:
        """Compile each tile's share of ``parsed.columns`` into a plan.

        The parser's output is already the columnar table, so tile
        membership, plan arrays and the MEI programs are all array
        expressions (:meth:`_exchanges`).
        """
        layout = self.layout
        hdr = parsed.header
        c = parsed.columns
        check_staging(parsed, self.sequence.width, self.sequence.height)

        plans: Dict[int, TilePlan] = {}
        for t in layout:
            idx = parsed.rows_in(t.rect)
            n_sk = int(c.skipped[idx].sum())
            plans[t.tid] = TilePlan(
                picture_index=picture_index,
                tile=t.tid,
                picture_type=hdr.picture_type,
                n_coded=len(idx) - n_sk,
                n_skipped=n_sk,
                plan=plan_of_rows(parsed, self.matrices, idx),
            )
        return PlanSplitResult(
            picture_index=picture_index,
            plans=plans,
            mei=self._exchanges(parsed, picture_index),
            picture_type=hdr.picture_type,
        )

    def split_parsed(self, parsed: ParsedPicture, picture_index: int) -> SplitResult:
        layout = self.layout
        hdr = parsed.header
        subpictures = {
            t.tid: SubPicture(
                picture_index=picture_index,
                tile=t.tid,
                picture_type=hdr.picture_type,
                temporal_reference=hdr.temporal_reference,
                f_code=hdr.f_code,
                mb_width=parsed.mb_width,
                mb_height=parsed.mb_height,
                intra_dc_precision=hdr.intra_dc_precision,
                intra_vlc_format=hdr.intra_vlc_format,
            )
            for t in layout
        }
        open_runs: Dict[int, Optional[_Run]] = {t.tid: None for t in layout}
        pending: Dict[int, Optional[_SkipStreak]] = {t.tid: None for t in layout}

        def flush_pending(t: int) -> None:
            streak = pending[t]
            if streak is None:
                return
            subpictures[t].records.append(
                SkipRecord(
                    address=streak.first_address,
                    count=streak.count,
                    forward=streak.forward,
                    backward=streak.backward,
                    mv_fwd=streak.mv_fwd,
                    mv_bwd=streak.mv_bwd,
                )
            )
            pending[t] = None

        def add_pending_skip(t: int, item: ParsedMB) -> None:
            mb = item.mb
            mvf = mb.mv_fwd or (0, 0)
            mvb = mb.mv_bwd or (0, 0)
            streak = pending[t]
            if (
                streak is not None
                and streak.first_address + streak.count == mb.address
                and streak.forward == mb.motion_forward
                and streak.backward == mb.motion_backward
                and streak.mv_fwd == mvf
                and streak.mv_bwd == mvb
            ):
                streak.count += 1
                return
            flush_pending(t)
            pending[t] = _SkipStreak(
                first_address=mb.address,
                count=1,
                forward=mb.motion_forward,
                backward=mb.motion_backward,
                mv_fwd=mvf,
                mv_bwd=mvb,
            )

        def close_run(t: int) -> None:
            run = open_runs[t]
            if run is None:
                return
            open_runs[t] = None
            items = run.items
            # Trailing skipped macroblocks have their increment bits inside
            # a later macroblock that is NOT in this run; ship them as
            # explicit skip records instead.
            last_coded = max(
                i for i, it in enumerate(items) if not it.mb.skipped
            )
            run_items, trailing = items[: last_coded + 1], items[last_coded + 1 :]
            first = run_items[0]
            start = first.mb.body_start
            end = run_items[-1].mb.bit_end
            payload = parsed.data[start // 8 : (end + 7) // 8]
            snap = first.state_before
            sph = SPH(
                address=first.mb.address,
                qscale_code=snap["qscale_code"],
                dc_pred=tuple(snap["dc_pred"]),
                pmv=(tuple(snap["pmv"][0]), tuple(snap["pmv"][1])),
                prev_forward=snap["prev_forward"],
                prev_backward=snap["prev_backward"],
                skip_bits=start % 8,
            )
            subpictures[t].records.append(
                RunRecord(
                    sph=sph,
                    n_coded=sum(1 for it in run_items if not it.mb.skipped),
                    n_total=len(run_items),
                    nbits=end - start,
                    payload=payload,
                )
            )
            for it in trailing:
                add_pending_skip(t, it)

        # ---------------- sort macroblocks into tiles ------------------- #
        for item in parsed.items:
            mb = item.mb
            mb_x = mb.address % parsed.mb_width
            mb_y = mb.address // parsed.mb_width
            tiles = layout.tiles_for_mb(mb_x, mb_y)
            for t in tiles:
                run = open_runs[t]
                contiguous = (
                    run is not None
                    and mb.address == run.next_addr
                    and item.slice_index == run.slice_index
                )
                if mb.skipped:
                    if contiguous:
                        run.items.append(item)
                    else:
                        close_run(t)
                        add_pending_skip(t, item)
                else:
                    if contiguous:
                        run.items.append(item)
                    else:
                        close_run(t)
                        flush_pending(t)
                        open_runs[t] = _Run(
                            row=item.slice_row,
                            slice_index=item.slice_index,
                            items=[item],
                        )

        for t in layout.tiles:
            close_run(t.tid)
            flush_pending(t.tid)

        return SplitResult(
            picture_index=picture_index,
            subpictures=subpictures,
            mei=self._exchanges(parsed, picture_index),
            picture_type=hdr.picture_type,
        )

    # ------------------------------------------------------------------ #

    def _exchanges(self, parsed: ParsedPicture, picture_index: int) -> MEIBatch:
        """Pre-calculate the picture's MEI programs in one array pass.

        A candidate is a (macroblock, tile, direction) whose coded nonzero
        vector reads outside the tile's coverage (a zero vector reads the
        co-located macroblock: local by construction; intra macroblocks
        and P "No MC" read nothing remote).  Against every other tile it
        gives a piece: the intersection with that tile's partition, and
        with its ceil-halved partition for chroma.  A plane's piece is
        needed if it is non-empty and not inside the destination's
        (floor-halved for chroma) coverage; an unneeded plane's rect is
        ``(0, 0, 0, 0)``.  Rows are ordered by (stream position, tile,
        direction, other tile) and a duplicate (src, dest, luma, chroma,
        direction) keeps its first occurrence — the order and dedup of the
        macroblock-at-a-time walk in ``tests/oracles.py``.
        """
        layout = self.layout
        c = parsed.columns
        # Per row and direction: a nonzero coded vector (the only kind that
        # can need an exchange); then only the rows with one, and the luma
        # rectangles they read (plan.reference_rects' luma half).
        # (``any`` over a length-2 axis is a slow strided reduce: spelled out)
        active = ~c.intra[:, None] & c.motion & ((c.mv[..., 0] != 0) | (c.mv[..., 1] != 0))
        moving = np.flatnonzero(active[:, 0] | active[:, 1])
        active, mv = active[moving], c.mv[moving]
        mb_x = c.address[moving] % parsed.mb_width
        mb_y = c.address[moving] // parsed.mb_width
        x0 = mb_x[:, None] * 16 + (mv[..., 0] >> 1)
        y0 = mb_y[:, None] * 16 + (mv[..., 1] >> 1)
        luma = np.stack(
            (x0, y0, x0 + 16 + (mv[..., 0] & 1), y0 + 16 + (mv[..., 1] & 1)), axis=-1
        )

        # Candidates, in (row, tile, direction) order: the row is in the
        # tile (the box test of ParsedPicture.rows_in) and its vector reads
        # outside the tile's coverage.  The luma read decides: the chroma
        # read lies inside the luma read halved, and the coverage is
        # macroblock aligned.
        cells, part, cpart, cov, ccov = _boxes(layout)
        ri, ti = np.nonzero(
            (mb_x[:, None] >= cells[:, 0])
            & (mb_y[:, None] >= cells[:, 1])
            & (mb_x[:, None] <= cells[:, 2])
            & (mb_y[:, None] <= cells[:, 3])
        )
        p, cd = np.nonzero(active[ri] & ~_inside(luma[ri], cov[ti, None]))
        ci, ct = ri[p], ti[p]
        lread = luma[ci, cd]
        cread = np.stack(
            reference_rects(mb_x[ci], mb_y[ci], mv[ci, cd])[1], axis=-1
        )

        # candidate x other tile: the pieces, and which planes are needed
        lp = _intersect(lread[:, None], part[None])
        cp = _intersect(cread[:, None], cpart[None])
        l_need = _nonempty(lp) & ~_inside(lp, cov[ct][:, None])
        c_need = _nonempty(cp) & ~_inside(cp, ccov[ct][:, None])
        other = np.arange(layout.n_tiles)
        k, o = np.nonzero((l_need | c_need) & (other[None] != ct[:, None]))
        table = np.concatenate(
            (
                np.where(l_need[k, o, None], lp[k, o], 0),
                np.where(c_need[k, o, None], cp[k, o], 0),
                np.stack((cd[k], o, ct[k]), axis=1),
            ),
            axis=1,
        ).astype(np.int32)
        # keep each distinct row's first occurrence (rows compared as bytes)
        as_bytes = table.view(np.dtype((np.void, table.itemsize * table.shape[1])))
        _, first = np.unique(as_bytes.ravel(), return_index=True)
        return MEIBatch.from_exchanges(
            picture_index, layout.n_tiles, table[np.sort(first)]
        )


def _boxes(layout: TileLayout) -> tuple:
    """Per tile, each an ``(n_tiles, 4)`` array: the first and last
    macroblock column and row its rect touches, its partition, the
    ceil-halved (chroma) partition, its coverage and the floor-halved
    (chroma) coverage."""
    def corners(rects):
        return np.array([[r.x0, r.y0, r.x1, r.y1] for r in rects])

    rect = corners(t.rect for t in layout)
    cells = np.concatenate((rect[:, :2] // 16, (rect[:, 2:] - 1) // 16), axis=1)
    part = corners(t.partition for t in layout)
    cpart = np.concatenate((part[:, :2] // 2, -(-part[:, 2:] // 2)), axis=1)
    cov = corners(t.coverage for t in layout)
    return cells, part, cpart, cov, cov // 2


def _inside(rects: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``rects`` (``(..., 4)``: x0, y0, x1, y1) inside ``bound``."""
    return (
        (rects[..., 0] >= bound[..., 0])
        & (rects[..., 1] >= bound[..., 1])
        & (rects[..., 2] <= bound[..., 2])
        & (rects[..., 3] <= bound[..., 3])
    )


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate(
        (np.maximum(a[..., :2], b[..., :2]), np.minimum(a[..., 2:], b[..., 2:])),
        axis=-1,
    )


def _nonempty(rects: np.ndarray) -> np.ndarray:
    return (rects[..., 2] > rects[..., 0]) & (rects[..., 3] > rects[..., 1])
