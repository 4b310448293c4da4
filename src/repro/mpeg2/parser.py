"""Stream parsing at the two granularities the hierarchical decoder uses.

:class:`PictureScanner` is the root splitter's engine: a linear start-code
scan that carves the stream into self-contained coded pictures (plus the
sequence/GOP headers they travel with).  It does **no** VLC work — that is
exactly why picture-level splitting is cheap (paper Table 1).

:class:`MacroblockParser` is the second-level splitter's engine: a full VLC
parse of one coded picture straight into :class:`PictureColumns` -- one
row per macroblock with its flags, vectors, quantiser and bit extents, the
coded blocks' levels as flat columns, and (unless ``lean``) the predictor
state at every macroblock boundary: everything plan building, the
sub-picture builder's State Propagation Headers and the MEI
pre-calculation need, with no per-macroblock objects.  The slice walk
records the syntax raw: where the run/level codes are (one entry per 16-bit
window of them), DC differentials, motion deltas, one record per run of
skipped macroblocks; what the standard defines serially on top of that --
levels and positions from the windows, DC levels from differentials,
vectors from deltas, the state before every macroblock -- is rebuilt from
the records a picture at a time.  It does no pixel reconstruction ("a
splitter does not motion compensate").

There are two engines and no switch (``_parse``, bound below).  Where the
libraries could be built or found when this module was imported,
:func:`_parse_native`: ``_walk.c`` and, chained behind it, ``_columns.c``,
through :mod:`repro.mpeg2.native_columns` -- **one foreign call per
picture**, the records never visiting the interpreter.  Otherwise
:func:`_parse_python`, the specification both kernels are ports of and are
tested against: :func:`_walk_python`, the loop over
:func:`fast_vlc.parse_slice_columns`, then numpy --
:func:`fast_vlc.expand_entries` decodes the windows to positions and levels
and :func:`_columns` turns differentials into DC levels and deltas into
vectors, as running sums that begin again where the standard resets a
predictor, and derives the state columns from the same arrays.  Either
returns a :class:`PictureColumns` equal to the other's in value, dtype and
shape, or raises the same exception, and everything after them is one path.
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
from repro.mpeg2 import fast_vlc, native_columns, native_walk
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
_DIRECTIONS = np.array([[fast_vlc.MB_FORWARD], [fast_vlc.MB_BACKWARD]])

# Rows of the per-macroblock matrix ``_columns`` assembles, one column per
# macroblock: the slice loop's ints, the vectors and -- in a full parse --
# the state before the macroblock.
_ROW = slice(0, fast_vlc.ROW_WIDTH)
_MV = slice(7, 11)  # forward x, y, backward x, y
_LEAN_HEIGHT = 11
_Q_BEFORE, _DC_BEFORE, _PMV_BEFORE, _DIR_BEFORE = 11, slice(12, 15), slice(15, 19), slice(19, 21)
_FULL_HEIGHT = 21


def _chain_sums(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running sums of ``x`` along axis 0 that begin again at every row
    ``start`` marks (row 0 must be one): a segmented prefix sum."""
    total = np.cumsum(x, axis=0)
    first = np.flatnonzero(start)
    before = total[first] - x[first]
    return total - np.repeat(before, np.diff(first, append=len(x)), axis=0)


def _carried(x: np.ndarray, start: np.ndarray, fill) -> np.ndarray:
    """What each row inherits: row ``i - 1`` of ``x`` at row ``i``, and
    ``fill`` where ``start`` marks that nothing carries over (row 0 must be
    marked)."""
    out = np.empty_like(x)
    out[1:] = x[:-1]
    out[start] = fill
    return out


def _dc_levels(
    coef_level: np.ndarray, dc_at: np.ndarray, chain: np.ndarray, dc_reset: int
) -> np.ndarray:
    """Turn the DC differentials of the intra macroblocks into levels, in
    place (section 7.2.1): a level is ``dc_reset`` plus the running sum of
    its component's differentials along its chain of consecutive intra
    macroblocks.  ``dc_at`` indexes the six DC entries of each, ``chain``
    marks the ones that begin a chain.  Returns the three predictors each
    leaves behind, ``(intra macroblocks, 3)``.
    """
    diff = coef_level[dc_at].reshape(-1, 6).astype(np.int64)
    luma = np.cumsum(diff[:, :4], axis=1)
    total = np.concatenate([luma[:, 3:], diff[:, 4:]], axis=1)  # Y, Cb, Cr
    after = dc_reset + _chain_sums(total, chain)
    luma += after[:, :1] - total[:, :1]
    coef_level[dc_at] = np.concatenate([luma, after[:, 1:]], axis=1).reshape(-1)
    return after


def _wrap(v: np.ndarray, f16: np.ndarray) -> np.ndarray:
    """``v`` reduced into the motion vector range ``[-f16, f16)``."""
    return (v + f16) % (2 * f16) - f16


def _columns(lists: fast_vlc.ColumnArrays, picture: PictureHeader, lean: bool) -> PictureColumns:
    """Turn the slice walk's records into typed columns: decode its
    coefficient entries (which raises if a run overruns its block), rebuild
    the predictors the walk did not keep -- DC levels from differentials,
    motion vectors from deltas, both as segmented prefix sums -- and give
    the skipped macroblocks their rows.
    """
    coef_pos, coef_level, block_ncoef = fast_vlc.expand_entries(lists)
    n_coded = len(lists.rows)
    coded = np.empty((_LEAN_HEIGHT if lean else _FULL_HEIGHT, n_coded), dtype=np.int64)
    coded[_ROW] = lists.rows.T  # the one transposing copy: every column contiguous
    flags, qscale_code, cbp = coded[1:4]
    slice_row, slice_qcode, slice_end = lists.slices.T
    skip_at, skip_address, skip_count, skip_flags, skip_qcode = lists.skips.T
    p_picture = picture.picture_type == PictureType.P
    dc_reset = picture.dc_reset
    intra = flags & fast_vlc.MB_INTRA != 0
    motion = flags & _DIRECTIONS != 0  # (2, n): forward, backward
    component = np.repeat(motion, 2, axis=0).T  # (n, 4): x, y of each

    # Where the slice loop's serial state began again: at a slice's first
    # macroblock and (but for B-picture motion) after skipped ones.
    coded_per_slice = np.diff(slice_end, prepend=0)
    first = np.zeros(n_coded, dtype=bool)
    first[(slice_end - coded_per_slice)[coded_per_slice > 0]] = True
    lead = np.zeros(n_coded, dtype=np.int64)  # skipped macroblocks before each
    lead[skip_at] = skip_count
    fresh = first | (lead > 0)
    mb_through = np.cumsum(lead + 1)  # macroblocks, skipped too, through each

    dc_after = np.full((n_coded, 3), dc_reset, dtype=np.int64)
    if intra.any():
        blocks = np.cumsum(_POPCOUNT6[cbp])[intra, None] + np.arange(-6, 0)
        dc_at = (np.cumsum(block_ncoef) - block_ncoef)[blocks.reshape(-1)]
        chain = fresh | ~_carried(intra, first, False)
        dc_after[intra] = _dc_levels(coef_level, dc_at, chain[intra], dc_reset)

    # Motion vectors (section 7.6.3): a predictor is the running sum of its
    # component's deltas since the last reset, wrapped into the f_code range
    # once -- each of the standard's single-step wraps is the reduction
    # modulo the range, so reducing the sum gives the same representative.
    # Resets (section 7.6.3.4): after an intra macroblock, and in a
    # P-picture after one without a forward vector or a skipped one.
    lost = intra | ~motion[0] if p_picture else intra
    pmv_after = pmv_before = np.zeros((n_coded, 4), dtype=np.int64)
    if len(lists.mvd):
        reset = _carried(lost, first, True)
        if p_picture:
            reset |= fresh
        delta = np.zeros((n_coded, 4), dtype=np.int64)
        delta[component] = lists.mvd  # stream order: row by row, x then y
        f16 = 16 << np.maximum(np.array(picture.f_code).reshape(-1) - 1, 0)
        unwrapped = _chain_sums(delta, reset)
        pmv_after = _wrap(unwrapped, f16)
        if not lean:
            pmv_before = _wrap(unwrapped - delta, f16)
    coded[_MV] = (pmv_after * component).T
    if not lean:
        # The state before each macroblock: what the one before it left.
        coded[_Q_BEFORE] = _carried(qscale_code, first, 0)
        coded[_Q_BEFORE, first] = slice_qcode[coded_per_slice > 0]
        coded[_DC_BEFORE] = _carried(dc_after, fresh, dc_reset).T
        coded[_PMV_BEFORE] = pmv_before.T
        coded[_DIR_BEFORE] = _carried(motion.T, first, False).T

    table = coded
    if len(skip_at):
        # A skipped macroblock (section 7.6.6) has no vector in a P-picture;
        # in a B-picture it has the predictors the macroblock before its run
        # left, in the directions that one used.
        before = skip_at - 1
        left = pmv_after[before] * ~lost[before, None]
        run = np.empty((len(coded), len(skip_at)), dtype=np.int64)
        run[0], run[1], run[2] = skip_address, skip_flags, skip_qcode
        run[3] = 0  # cbp
        run[4:7] = -1  # no bits of its own
        run[_MV] = 0 if p_picture else (left * component[before]).T
        if not lean:
            run[_Q_BEFORE] = skip_qcode
            run[_DC_BEFORE] = dc_reset
            run[_PMV_BEFORE] = 0 if p_picture else left.T
            run[_DIR_BEFORE] = motion[:, before]
        run_start = np.cumsum(skip_count) - skip_count
        skipped = np.repeat(run, skip_count, axis=1)
        skipped[0] += np.arange(skipped.shape[1]) - np.repeat(run_start, skip_count)
        if not lean:
            # the first of a run still sees what the coded macroblock left
            skipped[_DC_BEFORE, run_start] = dc_after[before].T
            skipped[_PMV_BEFORE, run_start] = left.T
        is_coded = np.zeros(n_coded + skipped.shape[1], dtype=bool)
        is_coded[mb_through - 1] = True
        table = np.empty((len(coded), len(is_coded)), dtype=np.int64)
        table[:, is_coded] = coded
        table[:, ~is_coded] = skipped
    address, flags, qscale_code, cbp, bit_start, body_start, bit_end = table[_ROW]
    n_mb = len(address)
    n_blocks = _POPCOUNT6[cbp]
    mb_per_slice = np.diff(np.concatenate([[0], mb_through])[slice_end], prepend=0)
    state = None
    if not lean:
        state = StateColumns(
            qscale_code=table[_Q_BEFORE],
            dc_pred=np.ascontiguousarray(table[_DC_BEFORE].T),
            pmv=np.ascontiguousarray(table[_PMV_BEFORE].T).reshape(n_mb, 2, 2),
            prev_dir=np.ascontiguousarray(table[_DIR_BEFORE].T) != 0,
        )
    return PictureColumns(
        address=address,
        skipped=(flags & fast_vlc.MB_SKIPPED) != 0,
        intra=(flags & fast_vlc.MB_INTRA) != 0,
        pattern=(flags & fast_vlc.MB_PATTERN) != 0,
        quant=(flags & fast_vlc.MB_QUANT) != 0,
        motion=np.ascontiguousarray((flags & _DIRECTIONS).T) != 0,
        mv=np.ascontiguousarray(table[_MV].T).reshape(n_mb, 2, 2),
        qscale_code=qscale_code,
        cbp=cbp,
        bit_start=bit_start,
        body_start=body_start,
        bit_end=bit_end,
        slice_row=np.repeat(slice_row, mb_per_slice),
        slice_index=np.repeat(np.arange(len(slice_row), dtype=np.int64), mb_per_slice),
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
        not derived (``columns.state`` and every ``state_before`` are
        ``None``) — they exist only for the sub-picture builder's State
        Propagation Headers, and nothing on the plan path reads them.  The
        slice loop records the same lists either way.
        """
        br = BitReader(data)
        code = br.next_start_code()
        if code != PICTURE_START_CODE:
            raise BitstreamError("picture unit does not start with picture code")
        header = PictureHeader.parse(br)
        columns = _parse(br.data, br.pos, header, self.mb_width, self.mb_height, lean)
        return ParsedPicture(header, br.data, self.mb_width, self.mb_height, columns)


def _parse_python(
    data: bytes, pos: int, picture: PictureHeader, mb_width: int, mb_height: int, lean: bool
) -> PictureColumns:
    """A picture unit's columns from bit ``pos``, the first after its
    headers: the slice walk, then numpy over its records.  The
    specification of :func:`_parse_native`, its differential reference, and
    the engine where no compiler is."""
    lists, error = _walk_picture(data, pos, picture, mb_width, mb_height)
    if error is not None:
        if isinstance(error, BitstreamError):
            # The walk leaves run overruns to the expansion: one in a
            # block before this error is the first error in stream order.
            # (Nothing else is rebuilt from a half-recorded macroblock.)
            fast_vlc.expand_entries(lists)
        raise error
    return _columns(lists, picture, lean)


def _parse_native(
    data: bytes, pos: int, picture: PictureHeader, mb_width: int, mb_height: int, lean: bool
) -> PictureColumns:
    """The same through ``_walk.c`` and ``_columns.c``, the second chained
    behind the first inside one foreign call: equal columns, or the same
    exception."""
    return _picture_columns(native_columns.parse_picture(data, pos, picture, mb_width, mb_height, lean))


def _picture_columns(fields: dict) -> PictureColumns:
    """:mod:`native_columns`' arrays by name as a :class:`PictureColumns`."""
    state = {
        name.removeprefix("state."): fields.pop(name)
        for name in [name for name in fields if name.startswith("state.")]
    }
    return PictureColumns(**fields, state=StateColumns(**state) if state else None)


def _walk_python(
    data: bytes, pos: int, picture: PictureHeader, mb_width: int, mb_height: int
) -> Tuple[fast_vlc.ColumnArrays, Optional[Exception]]:
    """The slice walk in Python, :func:`fast_vlc.parse_slice_columns` per
    slice: the specification of :func:`native_walk.walk_picture`, its
    differential reference, and the engine where no compiler is.  Same
    contract: what was recorded, and the error the walk stopped at, if any.
    """
    lists = fast_vlc.ColumnLists()
    error = None
    try:
        while True:
            # the next start code, from the next byte boundary
            at = data.find(b"\x00\x00\x01", (pos + 7) >> 3)
            if at < 0 or at + 3 >= len(data) or not is_slice_start_code(data[at + 3]):
                break
            row = data[at + 3] - 1
            if row >= mb_height:
                raise BitstreamError(f"slice row {row} beyond picture height")
            # quantiser_scale_code (5 bits), extra_bit_slice; past the
            # end of the data both read zero, as a BitReader pads
            head = data[at + 4] if at + 4 < len(data) else 0
            qcode = head >> 3
            if qcode == 0:
                raise BitstreamError("slice quantiser_scale_code of zero")
            if head & 4:
                raise BitstreamError("extra_information_slice unsupported")
            pos = fast_vlc.parse_slice_columns(
                data, 8 * (at + 4) + 6, row, mb_width, qcode, picture, lists
            )
            lists.slices.extend((row, qcode, len(lists.rows) // fast_vlc.ROW_WIDTH))
    except (BitstreamError, ValueError) as exc:  # ValueError: an f_code of zero
        error = exc
    return lists.freeze(), error


# Selected by what this process could observe, once: a library loaded or it
# did not.  No flag, field or variable chooses; tests substitute the names.
_walk_picture = native_walk.walk_picture if native_walk.LIBRARY is not None else _walk_python
_parse = (
    _parse_native
    if native_walk.LIBRARY is not None and native_columns.LIBRARY is not None
    else _parse_python
)
