"""Reconstruction plans: what the entropy phase hands the execute phase.

A :class:`ReconstructionPlan` is the flat, array-typed description of one
picture's (or one tile's) reconstruction work — sparse coefficient columns,
per-block quantiser scales, intra/inter flags, motion vectors, destination
offsets.  This module is the *plan side* of the two-phase engine: building
plans (:class:`PlanBuilder` from macroblock objects, :func:`plan_from_columns`
from the parser's columns) and checking them against a raster
(:func:`check_staging`, :func:`check_plan`).  The execute side — dequantise,
IDCT, motion compensation — is :mod:`repro.mpeg2.batch_reconstruct`.

Checking and assembling have two engines and no switch (``_build`` and
``_check``, bound at the end of the module): ``_columns.c`` through
:mod:`repro.mpeg2.native_columns` where that library could be built or found
when this module was imported -- :func:`_build_native`, check and assembly in
one foreign call, and :func:`_check_native` -- and otherwise numpy's
:func:`check_staging` + :func:`assemble_plan` over :func:`_check_vectors`,
the specification the kernel is a port of and is tested against.  Either
builds a plan equal to the other's in value, dtype and shape, or raises the
same exception (a refused vector is raised by ``validate_mv`` whichever
engine found it).

The split is an import boundary as much as a phase boundary: everything here
is numpy only, so a process that compiles or ships plans but never executes
one (a cluster splitter, the plan codec, the message layer) does not load the
transform, nor build or map the execute kernel that computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.mpeg2 import native_columns
from repro.mpeg2.constants import PictureType
from repro.mpeg2.tables import (
    DEFAULT_INTRA_QUANT_MATRIX,
    DEFAULT_NON_INTRA_QUANT_MATRIX,
    QUANTISER_SCALE,
    RASTER_OF_SCAN,
)

if TYPE_CHECKING:
    from repro.mpeg2.macroblock import Macroblock
    from repro.mpeg2.parser import ParsedPicture


@dataclass(frozen=True)
class QuantMatrices:
    """The quantization matrices in effect (from the sequence header)."""

    intra: np.ndarray = field(
        default_factory=lambda: DEFAULT_INTRA_QUANT_MATRIX
    )
    non_intra: np.ndarray = field(
        default_factory=lambda: DEFAULT_NON_INTRA_QUANT_MATRIX
    )

    @cached_property
    def intra_scan(self) -> np.ndarray:
        """``intra`` as 64 int64 weights in scan order (sparse dequantiser)."""
        return self.intra.astype(np.int64).reshape(64)[RASTER_OF_SCAN]

    @cached_property
    def non_intra_scan(self) -> np.ndarray:
        """``non_intra`` as 64 int64 weights in scan order."""
        return self.non_intra.astype(np.int64).reshape(64)[RASTER_OF_SCAN]

    @classmethod
    def from_sequence(cls, sequence) -> "QuantMatrices":
        return cls(
            intra=(
                sequence.intra_matrix
                if sequence.intra_matrix is not None
                else DEFAULT_INTRA_QUANT_MATRIX
            ),
            non_intra=(
                sequence.non_intra_matrix
                if sequence.non_intra_matrix is not None
                else DEFAULT_NON_INTRA_QUANT_MATRIX
            ),
        )


DEFAULT_MATRICES = QuantMatrices()

# Prediction direction indices within plan arrays.
FWD, BWD = 0, 1

# quantiser_scale_code -> quantiser scale, in the plans' dtype
_QSCALE_OF_CODE = QUANTISER_SCALE.astype(np.int64)
_LEVEL_MIN, _LEVEL_MAX = np.iinfo(np.int16).min, np.iinfo(np.int16).max


@dataclass
class ReconstructionPlan:
    """Flat, array-typed description of one picture's reconstruction work.

    Block-level arrays (length ``n_blocks``, one entry per *coded* block).
    Blocks are ordered with the ``n_intra_blocks`` intra blocks first so the
    two dequantizers each run over a contiguous run of coefficients:

    - ``block_ncoef``: uint8, the coefficient entries the block owns (0-64);
    - ``block_qscale``: quantiser scale (already mapped from the code);
    - ``block_res``: row in the compacted residual stack;
    - ``block_slot``: 0-5 (Y0..Y3, Cb, Cr).

    Coefficient-level arrays (length ``n_coefs``), block after block in
    block order — only the levels the stream coded, never the zeros
    between them (an entry may still be zero: an intra block's DC always
    has one):

    - ``coef_scan``: uint8 scan position (0-63);
    - ``coef_level``: int16 level (see :func:`narrow_levels`).

    Macroblock-level arrays (length ``n_macroblocks``):

    - ``mb_x``/``mb_y``: destination in macroblock coordinates;
    - ``mb_intra``: bool;
    - ``mb_dir``: ``(n_macroblocks, 2)`` bool, forward/backward used;
    - ``mb_mv``: ``(n_macroblocks, 2, 2)`` int32 half-pel vectors;
    - ``mb_res_row``: residual-stack row, or -1 for prediction-only
      macroblocks (the compaction that lets skip-heavy pictures bypass the
      residual math entirely).
    """

    picture_type: PictureType
    mb_width: int
    matrices: QuantMatrices
    dc_scaler: int
    block_ncoef: np.ndarray
    coef_scan: np.ndarray
    coef_level: np.ndarray
    block_qscale: np.ndarray
    block_res: np.ndarray
    block_slot: np.ndarray
    n_intra_blocks: int
    mb_x: np.ndarray
    mb_y: np.ndarray
    mb_intra: np.ndarray
    mb_dir: np.ndarray
    mb_mv: np.ndarray
    mb_res_row: np.ndarray
    n_res: int

    @property
    def n_macroblocks(self) -> int:
        return len(self.mb_x)

    @property
    def n_blocks(self) -> int:
        return len(self.block_ncoef)

    @property
    def n_coefs(self) -> int:
        return len(self.coef_level)


def narrow_levels(level: np.ndarray) -> np.ndarray:
    """Levels as the plans' int16, saturating.

    Every level a valid stream codes fits (12-bit escapes, 11-bit DC).  A
    damaged one can run an intra DC predictor past int16; clamping it is
    exact where wrapping would not be, because a level at the int16 limits
    already reconstructs to the 12-bit limit it is clipped to, for every
    weight, quantiser scale and ``dc_scaler`` >= 1 (the smallest products:
    ``32767 * 1 * 1 // 16`` and ``(2 * 32767 + 1) * 1 * 1 // 32`` are both
    2047, ``-32768 // 16`` is -2048), and to zero under a zero weight
    either way.
    """
    return np.clip(level, _LEVEL_MIN, _LEVEL_MAX).astype(np.int16)


def validate_mv(
    mb_x: int, mb_y: int, mv: Tuple[int, int], frame_width: int, frame_height: int
) -> None:
    """Reject a vector whose prediction would read outside the planes.

    Mirrors the bounds check in :func:`repro.mpeg2.motion.predict_plane`
    for both the luma and the chroma read, but runs at *plan* time so a
    corrupt record fails before the batch executes.
    """
    mvx, mvy = mv
    x0, y0 = mb_x * 16 + (mvx >> 1), mb_y * 16 + (mvy >> 1)
    if (
        x0 < 0
        or y0 < 0
        or x0 + 16 + (mvx & 1) > frame_width
        or y0 + 16 + (mvy & 1) > frame_height
    ):
        raise ValueError(
            f"motion vector ({mvx},{mvy}) reads outside plane "
            f"at ({mb_x * 16},{mb_y * 16})"
        )
    # chroma read (§7.6.3.7: chroma MV = luma MV / 2, toward zero)
    cx = mvx // 2 if mvx >= 0 else -((-mvx) // 2)
    cy = mvy // 2 if mvy >= 0 else -((-mvy) // 2)
    x0, y0 = mb_x * 8 + (cx >> 1), mb_y * 8 + (cy >> 1)
    if (
        x0 < 0
        or y0 < 0
        or x0 + 8 + (cx & 1) > frame_width // 2
        or y0 + 8 + (cy & 1) > frame_height // 2
    ):
        raise ValueError(
            f"motion vector ({cx},{cy}) reads outside plane "
            f"at ({mb_x * 8},{mb_y * 8})"
        )


class PlanBuilder:
    """Accumulate parsed macroblocks into a :class:`ReconstructionPlan`.

    The builder is fed in entropy order (phase 1) and finalized once per
    picture or sub-picture (phase 2).  ``add_all`` is transactional: motion
    vectors are validated against the reference-plane bounds *before* any
    macroblock of the batch is committed, so a tile decoder can map a bad
    record to concealment without poisoning the rest of the plan.
    """

    def __init__(
        self,
        picture_type: PictureType,
        mb_width: int,
        frame_width: int,
        frame_height: int,
        matrices: QuantMatrices = DEFAULT_MATRICES,
        dc_scaler: int = 8,
    ):
        self.picture_type = picture_type
        self.mb_width = mb_width
        self.frame_width = frame_width
        self.frame_height = frame_height
        self.matrices = matrices
        self.dc_scaler = dc_scaler
        self._p_picture = picture_type == PictureType.P
        # (mb, mb_x, mb_y, mv_fwd, mv_bwd) tuples, entropy order
        self._staged: List[tuple] = []

    # ------------------------------------------------------------------ #
    # phase 1: staging
    # ------------------------------------------------------------------ #

    def _stage(self, mb: Macroblock) -> tuple:
        if mb.intra:
            mv_fwd = mv_bwd = None
        else:
            mv_fwd, mv_bwd = mb.mv_fwd, mb.mv_bwd
            if self._p_picture and not mb.motion_forward:
                # "No MC" macroblock: zero forward vector (§7.6.3.5)
                mv_fwd = (0, 0)
            if mv_fwd is None and mv_bwd is None:
                raise ValueError("prediction requested with no motion vectors")
        addr = mb.address
        mb_x, mb_y = addr % self.mb_width, addr // self.mb_width
        # The zero vector is always in bounds — the overwhelmingly common
        # case for skipped macroblocks, so skip its checks.
        if mv_fwd is not None and mv_fwd != (0, 0):
            validate_mv(mb_x, mb_y, mv_fwd, self.frame_width, self.frame_height)
        if mv_bwd is not None and mv_bwd != (0, 0):
            validate_mv(mb_x, mb_y, mv_bwd, self.frame_width, self.frame_height)
        return (mb, mb_x, mb_y, mv_fwd, mv_bwd)

    def add(self, mb: Macroblock) -> None:
        """Append one macroblock (vectors are validated first)."""
        self._staged.append(self._stage(mb))

    def add_all(self, mbs: List[Macroblock]) -> None:
        """Append a batch of macroblocks, all-or-nothing."""
        self._staged.extend([self._stage(mb) for mb in mbs])

    # ------------------------------------------------------------------ #
    # phase boundary: flatten to arrays
    # ------------------------------------------------------------------ #

    def build(self) -> ReconstructionPlan:
        staged = self._staged
        m = len(staged)
        mbs = [s[0] for s in staged]
        mb_x = np.fromiter((s[1] for s in staged), dtype=np.int64, count=m)
        mb_y = np.fromiter((s[2] for s in staged), dtype=np.int64, count=m)
        mb_intra = np.fromiter((mb.intra for mb in mbs), dtype=bool, count=m)
        mb_dir = np.array(
            [(s[3] is not None, s[4] is not None) for s in staged], dtype=bool
        ).reshape(m, 2)
        mb_mv = np.array(
            [(s[3] or (0, 0), s[4] or (0, 0)) for s in staged], dtype=np.int64
        ).reshape(m, 2, 2)

        # Partition coded blocks intra-first so each dequantizer sees one
        # contiguous slice of the coefficient stack (no mask gathers).
        scans_i: List[np.ndarray] = []
        scans_n: List[np.ndarray] = []
        meta_i: List[Tuple[int, int, int]] = []  # (qscale, row, slot)
        meta_n: List[Tuple[int, int, int]] = []
        res_row = [-1] * m
        n_res = 0
        qs_table = _QSCALE_OF_CODE
        for i, mb in enumerate(mbs):
            if not (mb.intra or mb.pattern):
                continue
            blocks = mb.blocks
            qscale = int(qs_table[mb.qscale_code])
            if mb.intra:
                scans_append, meta_append = scans_i.append, meta_i.append
            else:
                scans_append, meta_append = scans_n.append, meta_n.append
            row = -1
            for slot in range(6):
                blk = blocks[slot]
                if blk is None:
                    continue
                if row < 0:
                    row = n_res
                    n_res += 1
                    res_row[i] = row
                scans_append(blk)
                meta_append((qscale, row, slot))

        n_intra = len(scans_i)
        n_blocks = n_intra + len(scans_n)
        # dense 64-entry blocks in, their nonzero entries out
        scan_arr = np.stack(scans_i + scans_n) if n_blocks else np.zeros((0, 64), np.int32)
        block, coef_scan = np.nonzero(scan_arr)
        meta_arr = np.array(meta_i + meta_n, dtype=np.int64).reshape(n_blocks, 3)

        return ReconstructionPlan(
            picture_type=self.picture_type,
            mb_width=self.mb_width,
            matrices=self.matrices,
            dc_scaler=self.dc_scaler,
            block_ncoef=np.bincount(block, minlength=n_blocks).astype(np.uint8),
            coef_scan=coef_scan.astype(np.uint8),
            coef_level=narrow_levels(scan_arr[block, coef_scan]),
            block_qscale=meta_arr[:, 0],
            block_res=meta_arr[:, 1],
            block_slot=meta_arr[:, 2],
            n_intra_blocks=n_intra,
            mb_x=mb_x,
            mb_y=mb_y,
            mb_intra=mb_intra,
            mb_dir=mb_dir,
            mb_mv=mb_mv,
            mb_res_row=np.asarray(res_row, dtype=np.int64),
            n_res=n_res,
        )


# ---------------------------------------------------------------------- #
# plans straight from the parser's columns (the runtime path)
# ---------------------------------------------------------------------- #


def chroma_mv_batch(mv: np.ndarray) -> np.ndarray:
    """Vectorized §7.6.3.7 luma->chroma vector mapping (divide toward 0)."""
    return np.where(mv >= 0, mv // 2, -((-mv) // 2))


def reference_rects(mb_x: np.ndarray, mb_y: np.ndarray, mv: np.ndarray) -> Tuple[tuple, tuple]:
    """The luma and chroma rectangles, each as ``(x0, y0, x1, y1)`` arrays,
    that half-pel vectors ``mv`` (``(..., 2)``) read at macroblocks
    ``mb_x``/``mb_y`` (broadcast against ``mv[..., 0]``) — the array form of
    :func:`repro.mpeg2.motion.reference_rect` / ``chroma_reference_rect``."""
    x, y = mv[..., 0], mv[..., 1]
    x0, y0 = mb_x * 16 + (x >> 1), mb_y * 16 + (y >> 1)
    luma = (x0, y0, x0 + 16 + (x & 1), y0 + 16 + (y & 1))
    cmv = chroma_mv_batch(mv)
    x, y = cmv[..., 0], cmv[..., 1]
    x0, y0 = mb_x * 8 + (x >> 1), mb_y * 8 + (y >> 1)
    return luma, (x0, y0, x0 + 8 + (x & 1), y0 + 8 + (y & 1))


def _check_vectors(
    mb_x: np.ndarray,
    mb_y: np.ndarray,
    intra: np.ndarray,
    mb_dir: np.ndarray,
    mb_mv: np.ndarray,
    frame_width: int,
    frame_height: int,
) -> None:
    """Raise what :class:`PlanBuilder` would for the first macroblock it
    refuses: no prediction direction at all, or a vector that reads
    outside the reference planes."""
    bad = ~intra & ~mb_dir.any(axis=1)
    # The zero vector is always in bounds, and by far the most common.
    moving = mb_dir & mb_mv.any(axis=2)
    if moving.any():
        luma, chroma = reference_rects(mb_x[:, None], mb_y[:, None], mb_mv)
        outside = np.zeros(moving.shape, dtype=bool)
        for (x0, y0, x1, y1), w, h in (
            (luma, frame_width, frame_height),
            (chroma, frame_width // 2, frame_height // 2),
        ):
            outside |= (x0 < 0) | (y0 < 0) | (x1 > w) | (y1 > h)
        bad |= (moving & outside).any(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not mb_dir[i].any():
        raise ValueError("prediction requested with no motion vectors")
    for d in (FWD, BWD):
        if moving[i, d]:
            mv = (int(mb_mv[i, d, 0]), int(mb_mv[i, d, 1]))
            validate_mv(int(mb_x[i]), int(mb_y[i]), mv, frame_width, frame_height)
    raise AssertionError("vectorized staging check disagreed with validate_mv")


def check_staging(
    parsed: "ParsedPicture",
    frame_width: int,
    frame_height: int,
    idx: Optional[np.ndarray] = None,
) -> None:
    """:func:`_check_vectors` over rows ``idx`` (default all) of a parsed
    picture's columns, before they become a plan."""
    c = parsed.columns
    mb_dir, mb_mv, address, intra = parsed.mb_dir, c.mv, c.address, c.intra
    if idx is not None:
        mb_dir, mb_mv, address, intra = mb_dir[idx], mb_mv[idx], address[idx], intra[idx]
    mb_x, mb_y = address % parsed.mb_width, address // parsed.mb_width
    _check(mb_x, mb_y, intra, mb_dir, mb_mv, frame_width, frame_height)


def check_plan(plan: ReconstructionPlan, frame_width: int, frame_height: int) -> None:
    """Hold a plan that arrived from elsewhere (``plan_codec.decode_plan``)
    to the raster it is about to be executed on: every macroblock lands
    inside it and every vector reads inside it, or ``ValueError``.  The
    wire record carries no raster, so this is the consumer's half of the
    bounds checks."""
    mb_w, mb_h = frame_width // 16, frame_height // 16
    if plan.mb_width != mb_w:
        raise ValueError(f"plan.mb_width {plan.mb_width}, raster has {mb_w}")
    for name, arr, high in (("mb_x", plan.mb_x, mb_w), ("mb_y", plan.mb_y, mb_h)):
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= high):
            raise ValueError(f"plan.{name} outside [0, {high})")
    _check(
        plan.mb_x, plan.mb_y, plan.mb_intra, plan.mb_dir, plan.mb_mv,
        frame_width, frame_height,
    )


def assemble_plan(
    parsed: "ParsedPicture",
    matrices: QuantMatrices,
    idx: Optional[np.ndarray] = None,
) -> ReconstructionPlan:
    """The :class:`ReconstructionPlan` :class:`PlanBuilder` would build
    from rows ``idx`` (ascending stream-order indices, default all) of
    ``parsed.columns``, with numpy only and no validation.

    Residual rows are assigned in stream order; blocks are partitioned
    intra-first (stream order within each class, slots ascending within a
    macroblock), and the picture's sparse coefficient columns are
    renumbered into that block order — a gather of the nonzero entries.
    """
    c = parsed.columns
    hdr = parsed.header
    mb_dir, mb_mv, address, intra = parsed.mb_dir, c.mv, c.address, c.intra
    n_blocks, first_block, qcode = c.n_blocks, c.first_block, c.qscale_code
    if idx is not None:
        mb_dir, mb_mv, address, intra = mb_dir[idx], mb_mv[idx], address[idx], intra[idx]
        n_blocks, first_block, qcode = n_blocks[idx], first_block[idx], qcode[idx]
    has_blocks = n_blocks > 0
    res_row = np.where(has_blocks, np.cumsum(has_blocks) - 1, -1)
    qscale = _QSCALE_OF_CODE[qcode]

    def blocks_of(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        count = n_blocks[mask]
        total = int(count.sum())
        ends = np.cumsum(count)
        within = np.arange(total, dtype=np.int64) - np.repeat(ends - count, count)
        return (
            np.repeat(first_block[mask], count) + within,
            np.repeat(qscale[mask], count),
            np.repeat(res_row[mask], count),
        )

    rows_i, q_i, r_i = blocks_of(intra & has_blocks)
    rows_n, q_n, r_n = blocks_of(~intra & has_blocks)
    rows = np.concatenate([rows_i, rows_n])
    # Block ``rows[j]``'s entries sit at ``first[j] : first[j] + ncoef[j]``
    # of the picture's coefficient columns; lay them end to end.
    ncoef = c.block_ncoef[rows]
    ends = np.cumsum(ncoef)
    first = (np.cumsum(c.block_ncoef) - c.block_ncoef)[rows]
    src = np.repeat(first - (ends - ncoef), ncoef)
    src += np.arange(len(src), dtype=np.int64)
    return ReconstructionPlan(
        picture_type=hdr.picture_type,
        mb_width=parsed.mb_width,
        matrices=matrices,
        dc_scaler=hdr.dc_scaler,
        block_ncoef=ncoef.astype(np.uint8),
        coef_scan=(c.coef_pos[src] & 63).astype(np.uint8),
        coef_level=narrow_levels(c.coef_level[src]),
        block_qscale=np.concatenate([q_i, q_n]),
        block_res=np.concatenate([r_i, r_n]),
        block_slot=c.block_slot[rows],
        n_intra_blocks=len(rows_i),
        mb_x=address % parsed.mb_width,
        mb_y=address // parsed.mb_width,
        mb_intra=intra,
        mb_dir=mb_dir,
        mb_mv=mb_mv,
        mb_res_row=res_row.astype(np.int64, copy=False),
        n_res=int(has_blocks.sum()),
    )


def plan_from_columns(
    parsed: "ParsedPicture",
    frame_width: int,
    frame_height: int,
    matrices: QuantMatrices,
    idx: Optional[np.ndarray] = None,
) -> ReconstructionPlan:
    """Validate (:func:`check_staging`) and build (:func:`assemble_plan`)."""
    return _build(parsed, matrices, idx, (frame_width, frame_height))


def plan_of_rows(
    parsed: "ParsedPicture", matrices: QuantMatrices, idx: Optional[np.ndarray] = None
) -> ReconstructionPlan:
    """Build (:func:`assemble_plan`) without validating: for a caller that
    has held the whole picture to :func:`check_staging` and plans it in
    several selections (the splitter's tiles)."""
    return _build(parsed, matrices, idx, None)


def _build_numpy(
    parsed: "ParsedPicture",
    matrices: QuantMatrices,
    idx: Optional[np.ndarray],
    raster: Optional[Tuple[int, int]],
) -> ReconstructionPlan:
    """The plan of rows ``idx`` of ``parsed``, first held to the ``(width,
    height)`` ``raster`` if there is one: numpy's :func:`check_staging` and
    :func:`assemble_plan`.  The specification of :func:`_build_native`, its
    differential reference, and the engine where no compiler is."""
    if raster is not None:
        check_staging(parsed, *raster, idx)
    return assemble_plan(parsed, matrices, idx)


def _build_native(
    parsed: "ParsedPicture",
    matrices: QuantMatrices,
    idx: Optional[np.ndarray],
    raster: Optional[Tuple[int, int]],
) -> ReconstructionPlan:
    """The same through ``_columns.c``, check and assembly in one foreign
    call: an equal plan, or the same exception."""
    c, hdr = parsed.columns, parsed.header
    try:
        arrays, n_intra_blocks, n_res = native_columns.build_plan(
            c, hdr.picture_type == PictureType.P, parsed.mb_width, parsed.mb_height,
            idx, raster, _QSCALE_OF_CODE,
        )
    except native_columns.StagingRefusal as refusal:  # the first row refused
        check_staging(parsed, *raster, np.array([refusal.row]))
        raise AssertionError("native staging check disagreed with validate_mv") from refusal
    if idx is None:  # as assemble_plan: the columns' own arrays
        arrays["mb_intra"], arrays["mb_mv"] = c.intra, c.mv
    return ReconstructionPlan(
        picture_type=hdr.picture_type,
        mb_width=parsed.mb_width,
        matrices=matrices,
        dc_scaler=hdr.dc_scaler,
        n_intra_blocks=n_intra_blocks,
        n_res=n_res,
        **arrays,
    )


def _check_native(
    mb_x: np.ndarray,
    mb_y: np.ndarray,
    intra: np.ndarray,
    mb_dir: np.ndarray,
    mb_mv: np.ndarray,
    frame_width: int,
    frame_height: int,
) -> None:
    """:func:`_check_vectors` with the test in ``_columns.c``: it names the
    first macroblock refused, and that function raises about it."""
    i = native_columns.check_vectors(mb_x, mb_y, intra, mb_dir, mb_mv, frame_width, frame_height)
    if i is not None:
        row = slice(i, i + 1)
        _check_vectors(
            mb_x[row], mb_y[row], intra[row], mb_dir[row], mb_mv[row], frame_width, frame_height
        )
        raise AssertionError("native staging check disagreed with validate_mv")


# Selected by what this process could observe, once: the library loaded or
# it did not.  No flag, field or variable chooses; tests substitute the names.
_build = _build_native if native_columns.LIBRARY is not None else _build_numpy
_check = _check_native if native_columns.LIBRARY is not None else _check_vectors
