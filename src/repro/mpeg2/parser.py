"""Stream parsing at the two granularities the hierarchical decoder uses.

:class:`PictureScanner` is the root splitter's engine: a linear start-code
scan that carves the stream into self-contained coded pictures (plus the
sequence/GOP headers they travel with).  It does **no** VLC work — that is
exactly why picture-level splitting is cheap (paper Table 1).

:class:`MacroblockParser` is the second-level splitter's engine: a full VLC
parse of one coded picture, by the fused slice parser in
:mod:`repro.mpeg2.fast_vlc`, straight into :class:`PictureColumns` — one
row per macroblock with its flags, vectors, quantiser and bit extents, the
coded blocks' levels as flat columns, and (unless ``lean``) the predictor
state at every macroblock boundary: everything plan building, the
sub-picture builder's State Propagation Headers and the MEI
pre-calculation need, with no per-macroblock objects.  The slice parser
walks the syntax and only records where the run/level codes are (one list
entry per 16-bit window of them); :func:`fast_vlc.expand_entries` decodes
them to positions and levels, a picture at a time, with numpy.  It does no
pixel reconstruction ("a splitter does not motion compensate").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from repro.bitstream import BitReader, BitstreamError
from repro.mpeg2.constants import (
    GROUP_START_CODE,
    PICTURE_START_CODE,
    PictureType,
    SEQUENCE_END_CODE,
    SEQUENCE_HEADER_CODE,
    is_slice_start_code,
)
from repro.mpeg2 import fast_vlc
from repro.mpeg2.macroblock import Macroblock
from repro.mpeg2.structures import GOPHeader, PictureHeader, SequenceHeader


@dataclass
class PictureUnit:
    """One coded picture as shipped by the root splitter.

    ``data`` spans from the picture start code to the byte before the next
    picture/GOP/sequence start code, so it is self-contained for macroblock
    parsing (given the sequence header, which the root distributes once).
    """

    coded_index: int
    data: bytes
    new_gop: bool = False
    gop: Optional[GOPHeader] = None

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class PictureScanner:
    """Split a stream into its sequence header and coded pictures."""

    def __init__(self, stream: bytes):
        self.stream = bytes(stream)
        self.sequence: Optional[SequenceHeader] = None
        self._pictures: Optional[List[PictureUnit]] = None

    def scan(self) -> Tuple[SequenceHeader, List[PictureUnit]]:
        """Scan the whole stream once; results are cached."""
        if self._pictures is not None:
            assert self.sequence is not None
            return self.sequence, self._pictures

        br = BitReader(self.stream)
        code = br.next_start_code()
        if code != SEQUENCE_HEADER_CODE:
            raise BitstreamError("stream does not begin with a sequence header")
        self.sequence = SequenceHeader.parse(br)

        pictures: List[PictureUnit] = []
        pending_gop: Optional[GOPHeader] = None
        new_gop = False
        pic_start: Optional[int] = None

        def close_picture(end_byte: int) -> None:
            nonlocal pic_start, pending_gop, new_gop
            if pic_start is None:
                return
            pictures.append(
                PictureUnit(
                    coded_index=len(pictures),
                    data=self.stream[pic_start:end_byte],
                    new_gop=new_gop,
                    gop=pending_gop,
                )
            )
            pic_start = None
            pending_gop = None
            new_gop = False

        while True:
            code = br.next_start_code()
            if code is None:
                close_picture(len(self.stream))
                break
            at = br.byte_pos - 4  # position of the 00 00 01 prefix
            if code == GROUP_START_CODE:
                close_picture(at)
                pending_gop = GOPHeader.parse(br)
                new_gop = True
            elif code == PICTURE_START_CODE:
                close_picture(at)
                pic_start = at
            elif code == SEQUENCE_END_CODE:
                close_picture(at)
                break
            elif code == SEQUENCE_HEADER_CODE:
                close_picture(at)
                SequenceHeader.parse(br)  # repeated header; validated and dropped
            elif is_slice_start_code(code):
                continue  # interior of the current picture
            # extension/user-data codes inside pictures are skipped by scan

        self._pictures = pictures
        return self.sequence, pictures


# ---------------------------------------------------------------------- #
# macroblock-level parsing
# ---------------------------------------------------------------------- #


@dataclass
class ParsedMB:
    """A macroblock plus the splitter-relevant context around it."""

    mb: Macroblock
    # CodingState.snapshot() before this macroblock, or None in a lean
    # parse (plan shipping never builds SPHs, so never reads it).
    state_before: Optional[dict]
    slice_row: int
    # Monotone id of the slice this macroblock was coded in.  Runs must
    # never fuse across slice boundaries even within one row (multiple
    # slices per row are legal): the bits between them hold start codes
    # and slice headers, not macroblock data.
    slice_index: int = 0


@dataclass
class StateColumns:
    """Predictor state before each macroblock (what an SPH carries)."""

    qscale_code: np.ndarray  # (n,) int64
    dc_pred: np.ndarray  # (n, 3) int64
    pmv: np.ndarray  # (n, 2, 2) int64, [direction][component]
    prev_dir: np.ndarray  # (n, 2) bool, previous macroblock's directions


@dataclass
class PictureColumns:
    """One parsed picture as columns: a row per macroblock, stream order.

    This is the parser's output and the only store; plans are built from
    it with numpy alone.  Skipped macroblocks have rows too (``skipped``
    set, the direction flags and vectors they reconstruct with, bit
    extents -1).  Coded blocks are numbered in stream order, slots
    ascending within a macroblock; macroblock ``i`` owns blocks
    ``first_block[i] : first_block[i] + n_blocks[i]``.  DESIGN.md section
    7 has the table of columns and readers.
    """

    address: np.ndarray  # (n,) int64
    skipped: np.ndarray  # (n,) bool
    intra: np.ndarray  # (n,) bool
    pattern: np.ndarray  # (n,) bool
    quant: np.ndarray  # (n,) bool
    motion: np.ndarray  # (n, 2) bool: forward / backward vector present
    mv: np.ndarray  # (n, 2, 2) int64 half-pel [direction][x, y]; 0 if absent
    qscale_code: np.ndarray  # (n,) int64
    cbp: np.ndarray  # (n,) int64, 63 for intra
    bit_start: np.ndarray  # (n,) int64, first bit of the address increment
    body_start: np.ndarray  # (n,) int64, first bit of macroblock_type
    bit_end: np.ndarray  # (n,) int64, one past the macroblock's last bit
    slice_row: np.ndarray  # (n,) int64
    slice_index: np.ndarray  # (n,) int64
    first_block: np.ndarray  # (n,) int64
    n_blocks: np.ndarray  # (n,) int64
    block_slot: np.ndarray  # (total blocks,) int64, 0-5 = Y0..Y3, Cb, Cr
    coef_pos: np.ndarray  # (nonzero levels,) int64: block * 64 + scan position
    coef_level: np.ndarray  # (nonzero levels,) int32
    # (total blocks,) int64: the entries of ``coef_pos`` each block owns.
    # ``coef_pos`` ascends (blocks in stream order, positions ascending within
    # a block), so block ``b``'s are the ``block_ncoef[b]`` ending at
    # ``cumsum(block_ncoef)[b]``.
    block_ncoef: np.ndarray
    state: Optional[StateColumns] = None  # full (non-lean) parse only

    def __len__(self) -> int:
        return len(self.address)

    @cached_property
    def scans(self) -> np.ndarray:
        """``(total blocks, 64)`` int32 scan-order levels: one scatter.

        The dense form, for the ``items`` compatibility view only (plans
        carry the sparse columns): every :class:`Macroblock` of that view
        holds read-only rows of it as its blocks.
        """
        scans = np.zeros((len(self.block_slot), 64), dtype=np.int32)
        scans.reshape(-1)[self.coef_pos] = self.coef_level
        scans.setflags(write=False)
        return scans


# coded block slots (Y0..Y3, Cb, Cr) of each coded_block_pattern value
_CBP_SLOTS = (np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1 != 0
_POPCOUNT6 = _CBP_SLOTS.sum(axis=1)


def _columns(
    lists: fast_vlc.ColumnLists, slice_rows: List[int], slice_ends: List[int]
) -> PictureColumns:
    """Freeze the slice parser's flat lists into typed columns, decoding
    its coefficient entries (which raises if a run overruns its block).

    ``slice_rows[k]`` is slice ``k``'s macroblock row and ``slice_ends[k]``
    the number of macroblocks parsed once it ended.
    """
    coef_pos, coef_level, block_ncoef = fast_vlc.expand_entries(lists)
    tab = np.array(lists.rows, dtype=np.int64).reshape(-1, fast_vlc.ROW_WIDTH)
    n = len(tab)
    # one transposing copy, so that every column is contiguous
    address, flags, _, _, _, _, qscale_code, cbp, bit_start, body_start, bit_end = (
        np.ascontiguousarray(tab.T)
    )
    n_blocks = _POPCOUNT6[cbp]
    motion = (
        np.stack([flags & fast_vlc.MB_FORWARD, flags & fast_vlc.MB_BACKWARD], axis=1)
        != 0
    )
    per_slice = np.diff(np.asarray(slice_ends, dtype=np.int64), prepend=0)
    state = None
    if lists.states is not None:
        st = np.array(lists.states, dtype=np.int64).reshape(n, fast_vlc.STATE_WIDTH)
        state = StateColumns(
            qscale_code=np.ascontiguousarray(st[:, 0]),
            dc_pred=np.ascontiguousarray(st[:, 1:4]),
            pmv=np.ascontiguousarray(st[:, 4:8]).reshape(n, 2, 2),
            prev_dir=st[:, 8:10] != 0,
        )
    return PictureColumns(
        address=address,
        skipped=(flags & fast_vlc.MB_SKIPPED) != 0,
        intra=(flags & fast_vlc.MB_INTRA) != 0,
        pattern=(flags & fast_vlc.MB_PATTERN) != 0,
        quant=(flags & fast_vlc.MB_QUANT) != 0,
        motion=motion,
        # the row carries the predictors; they are vectors where flagged
        mv=tab[:, 2:6].reshape(n, 2, 2) * motion[:, :, None],
        qscale_code=qscale_code,
        cbp=cbp,
        bit_start=bit_start,
        body_start=body_start,
        bit_end=bit_end,
        slice_row=np.repeat(np.asarray(slice_rows, dtype=np.int64), per_slice),
        slice_index=np.repeat(np.arange(len(per_slice), dtype=np.int64), per_slice),
        first_block=np.cumsum(n_blocks) - n_blocks,
        n_blocks=n_blocks,
        block_slot=np.nonzero(_CBP_SLOTS[cbp])[1],
        coef_pos=coef_pos,
        coef_level=coef_level,
        block_ncoef=block_ncoef,
        state=state,
    )


@dataclass(eq=False)
class ParsedPicture:
    """Full macroblock-level parse of one coded picture.

    ``columns`` is the store.  ``items`` is a compatibility view — one
    :class:`ParsedMB` (with a :class:`Macroblock`) per row, built on first
    use — for the bitstream splitter, the validator, the slice-parallel
    baseline's accounting and the tests; nothing on the plan path touches
    it.
    """

    header: PictureHeader
    data: bytes
    mb_width: int
    mb_height: int
    columns: PictureColumns

    @cached_property
    def n_skipped(self) -> int:
        return int(self.columns.skipped.sum())

    @property
    def n_coded(self) -> int:
        return len(self.columns) - self.n_skipped

    @cached_property
    def mb_dir(self) -> np.ndarray:
        """``(n, 2)`` bool: the directions each macroblock predicts from, as
        ``PlanBuilder`` stages them — none for intra macroblocks, and in a
        P-picture forward even without a forward vector ("No MC" predicts
        with the zero vector, §7.6.3.5; absent vectors are stored as zero,
        so ``columns.mv`` needs no such fix-up).  Shared by every plan built
        from this picture."""
        c = self.columns
        mb_dir = c.motion & ~c.intra[:, None]
        if self.header.picture_type == PictureType.P:
            mb_dir[:, 0] = ~c.intra
        return mb_dir

    @cached_property
    def items(self) -> List[ParsedMB]:
        """Stream-order :class:`ParsedMB` view of the columns.  A macroblock's
        blocks are read-only rows of ``columns.scans``, not copies."""
        c = self.columns
        scans = c.scans
        slots = c.block_slot.tolist()
        st = c.state
        if st is not None:
            st_q = st.qscale_code.tolist()
            st_dc = st.dc_pred.tolist()
            st_pmv = st.pmv.tolist()
            st_prev = st.prev_dir.tolist()
        items: List[ParsedMB] = []
        for i, (address, skipped, intra, pattern, quant, (mf, mbk), mv, qcode, cbp,
                bit_start, body_start, bit_end, row, index, first, count) in enumerate(
            zip(
                c.address.tolist(), c.skipped.tolist(), c.intra.tolist(),
                c.pattern.tolist(), c.quant.tolist(), c.motion.tolist(),
                c.mv.tolist(), c.qscale_code.tolist(), c.cbp.tolist(),
                c.bit_start.tolist(), c.body_start.tolist(), c.bit_end.tolist(),
                c.slice_row.tolist(), c.slice_index.tolist(),
                c.first_block.tolist(), c.n_blocks.tolist(),
            )
        ):
            blocks: List[Optional[np.ndarray]] = [None] * 6
            for k in range(first, first + count):
                blocks[slots[k]] = scans[k]
            mb = Macroblock(
                address=address,
                quant=quant,
                motion_forward=mf,
                motion_backward=mbk,
                pattern=pattern,
                intra=intra,
                qscale_code=qcode,
                mv_fwd=tuple(mv[0]) if mf else None,
                mv_bwd=tuple(mv[1]) if mbk else None,
                cbp=cbp,
                blocks=blocks,
                skipped=skipped,
                bit_start=bit_start,
                body_start=body_start,
                bit_end=bit_end,
            )
            snap = None
            if st is not None:
                snap = {
                    "qscale_code": st_q[i],
                    "dc_pred": st_dc[i],
                    "pmv": st_pmv[i],
                    "prev_forward": st_prev[i][0],
                    "prev_backward": st_prev[i][1],
                }
            items.append(
                ParsedMB(mb=mb, state_before=snap, slice_row=row, slice_index=index)
            )
        return items

    def rows_in(self, rect) -> np.ndarray:
        """Stream-order row indices of the macroblocks that intersect the
        pixel rectangle ``rect`` (``x0, y0, x1, y1``, exclusive ends) — a
        box test in macroblock coordinates."""
        address = self.columns.address
        mb_x, mb_y = address % self.mb_width, address // self.mb_width
        return np.flatnonzero(
            (mb_x >= rect.x0 // 16)
            & (mb_x <= (rect.x1 - 1) // 16)
            & (mb_y >= rect.y0 // 16)
            & (mb_y <= (rect.y1 - 1) // 16)
        )

    def coded_items(self) -> List[ParsedMB]:
        return [it for it in self.items if not it.mb.skipped]


class MacroblockParser:
    """VLC-parse coded pictures into macroblock columns (no reconstruction)."""

    def __init__(self, sequence: SequenceHeader):
        self.sequence = sequence
        self.mb_width = sequence.width // 16
        self.mb_height = sequence.height // 16

    def parse_picture(self, data: bytes, lean: bool = False) -> ParsedPicture:
        """VLC-parse one coded picture.

        With ``lean=True`` the per-macroblock predictor-state columns are
        not recorded (``columns.state`` and every ``state_before`` are
        ``None``) — they exist only for the sub-picture builder's State
        Propagation Headers, and nothing on the plan path reads them.
        """
        br = BitReader(data)
        code = br.next_start_code()
        if code != PICTURE_START_CODE:
            raise BitstreamError("picture unit does not start with picture code")
        header = PictureHeader.parse(br)
        lists = fast_vlc.ColumnLists(states=None if lean else [])
        slice_rows: List[int] = []
        slice_ends: List[int] = []
        try:
            while True:
                code = br.peek_start_code()
                if code is None or not is_slice_start_code(code):
                    break
                br.next_start_code()
                row = code - 1
                if row >= self.mb_height:
                    raise BitstreamError(f"slice row {row} beyond picture height")
                qcode = br.read(5)
                if qcode == 0:
                    raise BitstreamError("slice quantiser_scale_code of zero")
                if br.read(1):
                    raise BitstreamError("extra_information_slice unsupported")
                br.pos = fast_vlc.parse_slice_columns(
                    br.data, br.pos, row, self.mb_width, qcode, header, lists
                )
                slice_rows.append(row)
                slice_ends.append(len(lists.rows) // fast_vlc.ROW_WIDTH)
        except BitstreamError:
            # The slice loop leaves run overruns to the expansion: one in a
            # block before this error is the first error in stream order.
            fast_vlc.expand_entries(lists)
            raise
        columns = _columns(lists, slice_rows, slice_ends)
        return ParsedPicture(header, br.data, self.mb_width, self.mb_height, columns)
