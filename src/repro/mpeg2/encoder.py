"""MPEG-2 video encoder (I/P/B, 4:2:0, frame pictures, one slice per row).

The encoder exists so the repository is self-contained: the paper's test
streams are copyrighted movies and telescope flybys, so we synthesize
content (:mod:`repro.workloads.synthetic`) and compress it ourselves.  The
encoder reconstructs reference frames through the *same* code path the
decoders use (:mod:`repro.mpeg2.reconstruct`), so there is no encoder/decoder
drift.

Supported tools and limits are listed in the package docstring; they are the
tools the paper's parallel decoder exercises (motion vectors that cross tile
boundaries, intra-slice DC/MV prediction chains, skipped-macroblock runs,
per-macroblock quantizer changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bitstream import BitWriter
from repro.mpeg2 import dct
from repro.mpeg2.constants import (
    MB_SIZE,
    SEQUENCE_END_CODE,
    PictureType,
)
from repro.mpeg2.frames import Frame
from repro.mpeg2.macroblock import (
    CodingState,
    Macroblock,
    encode_macroblock,
    make_skipped,
)
from repro.mpeg2.motion import estimate_mv, predict_macroblock
from repro.mpeg2.plan import QuantMatrices
from repro.mpeg2.reconstruct import reconstruct_macroblock
from repro.mpeg2.structures import GOPHeader, PictureHeader, SequenceHeader
from repro.mpeg2.tables import (
    DEFAULT_INTRA_QUANT_MATRIX,
    DEFAULT_NON_INTRA_QUANT_MATRIX,
)


@dataclass
class EncoderConfig:
    """Encoder parameters.

    ``gop_size`` is the I-picture period in display order; ``b_frames`` is
    the number of B pictures between anchors.  ``f_code`` must satisfy
    ``16 * 2**(f_code-1)`` > 2*search_range+1 (half-pel units); the default
    pair (7, 2) allows vectors up to +/-15.5 luma pixels.
    """

    gop_size: int = 9
    b_frames: int = 2
    qscale_code_intra: int = 6
    qscale_code_inter: int = 8
    search_range: int = 7
    f_code: int = 2
    fps: float = 30.0
    closed_gop: bool = True
    allow_skips: bool = True
    # Optional per-macroblock quantizer modulation: (mb_x, mb_y, activity)
    # -> quantiser_scale_code.  Used by the localized-detail workloads to
    # reproduce the paper's §5.5 bit-allocation imbalance.
    quant_modulator: Optional[Callable[[int, int, float], int]] = None
    # Custom quantization matrices (8x8, values 1-255); None -> defaults.
    # Carried in the sequence header, so every decoder (sequential or
    # parallel) reconstructs with them.
    intra_matrix: Optional[np.ndarray] = None
    non_intra_matrix: Optional[np.ndarray] = None
    # Intra DC precision in bits (8, 9, or 10; §7.4.1) — higher precision
    # costs bits but removes DC banding on smooth gradients.
    intra_dc_precision: int = 8
    # 0 -> table B.14 for intra AC coefficients; 1 -> the alternate B.15
    intra_vlc_format: int = 0
    # Slices per macroblock row (>=1).  MPEG-2 Main Profile requires every
    # row to start a slice; more slices add resync points (and SPH-like
    # restart behaviour the splitter must respect).
    slices_per_row: int = 1

    def __post_init__(self) -> None:
        if self.intra_dc_precision not in (8, 9, 10):
            raise ValueError("intra_dc_precision must be 8, 9, or 10")
        if self.intra_vlc_format not in (0, 1):
            raise ValueError("intra_vlc_format must be 0 or 1")
        if self.slices_per_row < 1:
            raise ValueError("slices_per_row must be >= 1")
        if self.b_frames < 0:
            raise ValueError("b_frames must be >= 0")
        if self.gop_size < 1:
            raise ValueError("gop_size must be >= 1")
        max_half_pel = 2 * self.search_range + 1
        if 16 * (1 << (self.f_code - 1)) <= max_half_pel:
            raise ValueError("f_code too small for search_range")
        for code in (self.qscale_code_intra, self.qscale_code_inter):
            if not 1 <= code <= 31:
                raise ValueError("quantiser_scale_code out of range")


@dataclass
class PicturePlan:
    """One picture in coded order."""

    display_index: int
    picture_type: PictureType
    temporal_reference: int
    new_gop: bool
    fwd_ref: Optional[int] = None  # display index of forward anchor
    bwd_ref: Optional[int] = None  # display index of backward anchor


def plan_gop_structure(n_frames: int, cfg: EncoderConfig) -> List[PicturePlan]:
    """Lay out picture types and coded order for ``n_frames`` inputs.

    Anchors (I/P) are coded before the B pictures that precede them in
    display order.  A truncated tail is closed with a final P anchor so no
    B picture lacks a backward reference.

    With ``closed_gop=True`` (the default) every GOP is self-contained: it
    ends on an anchor and its B pictures reference only its own anchors —
    the property GOP-level seek and GOP-parallel decoding rely on.  With
    ``closed_gop=False`` the GOPs are *open*: the B pictures displayed just
    before each I picture are coded inside the new GOP and forward-
    reference the previous GOP's final anchor (§6.3.8).
    """
    m = cfg.b_frames + 1
    plans: List[PicturePlan] = []
    gop_starts = list(range(0, n_frames, cfg.gop_size))
    carried_anchor: Optional[int] = None  # open-GOP cross-boundary anchor
    for g_idx, g0 in enumerate(gop_starts):
        g1 = min(g0 + cfg.gop_size, n_frames)
        if not cfg.closed_gop and g_idx + 1 < len(gop_starts):
            # open GOP: leading B's of the NEXT gop cover our tail frames,
            # so our own anchors stop at the I of the next GOP
            next_i = gop_starts[g_idx + 1]
            anchors = [a for a in range(g0, g1, m)]
            # trailing frames between our last anchor and next_i become the
            # next GOP's leading B pictures (handled below via carry)
            tail_start = anchors[-1] + 1
        else:
            anchors = list(range(g0, g1, m))
            if anchors[-1] != g1 - 1:
                anchors.append(g1 - 1)
            tail_start = None
        prev_anchor: Optional[int] = carried_anchor
        # Open GOPs display their leading B pictures first, so every
        # temporal reference shifts by the lead count (§6.3.9).
        lead = (g0 - carried_anchor - 1) if carried_anchor is not None else 0
        for a_idx, a in enumerate(anchors):
            ptype = PictureType.I if a_idx == 0 else PictureType.P
            plans.append(
                PicturePlan(
                    display_index=a,
                    picture_type=ptype,
                    temporal_reference=a - g0 + lead,
                    new_gop=(a_idx == 0),
                    fwd_ref=prev_anchor if ptype == PictureType.P else None,
                )
            )
            if prev_anchor is not None:
                for b in range(prev_anchor + 1, a):
                    plans.append(
                        PicturePlan(
                            display_index=b,
                            picture_type=PictureType.B,
                            temporal_reference=b - g0 + lead,
                            new_gop=False,
                            fwd_ref=prev_anchor,
                            bwd_ref=a,
                        )
                    )
            prev_anchor = a
        carried_anchor = prev_anchor if not cfg.closed_gop else None
        last_lead = lead
    # Open-GOP tail: frames after the final anchor still need coding.
    if carried_anchor is not None and carried_anchor < n_frames - 1:
        final = n_frames - 1
        plans.append(
            PicturePlan(
                display_index=final,
                picture_type=PictureType.P,
                temporal_reference=final - gop_starts[-1] + last_lead,
                new_gop=False,
                fwd_ref=carried_anchor,
            )
        )
        for b in range(carried_anchor + 1, final):
            plans.append(
                PicturePlan(
                    display_index=b,
                    picture_type=PictureType.B,
                    temporal_reference=b - gop_starts[-1] + last_lead,
                    new_gop=False,
                    fwd_ref=carried_anchor,
                    bwd_ref=final,
                )
            )
    return plans


@dataclass
class EncodeStats:
    """Per-picture size accounting (drives the Table 4 stream report)."""

    picture_sizes: List[int] = field(default_factory=list)
    picture_types: List[PictureType] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(self.picture_sizes)

    def average_frame_size(self) -> float:
        return self.total_bytes / max(1, len(self.picture_sizes))


class Encoder:
    """Encode a sequence of :class:`Frame` objects to an MPEG-2 bitstream."""

    def __init__(self, config: EncoderConfig | None = None):
        self.cfg = config or EncoderConfig()
        self.stats = EncodeStats()
        self.matrices = QuantMatrices(
            intra=(
                self.cfg.intra_matrix
                if self.cfg.intra_matrix is not None
                else DEFAULT_INTRA_QUANT_MATRIX
            ),
            non_intra=(
                self.cfg.non_intra_matrix
                if self.cfg.non_intra_matrix is not None
                else DEFAULT_NON_INTRA_QUANT_MATRIX
            ),
        )

    # ------------------------------------------------------------------ #

    def encode(self, frames: Sequence[Frame]) -> bytes:
        """Encode ``frames`` (display order) and return the full bitstream."""
        if not frames:
            raise ValueError("no frames to encode")
        w, h = frames[0].width, frames[0].height
        for f in frames:
            if (f.width, f.height) != (w, h):
                raise ValueError("all frames must share one resolution")
        if h > 2800:
            raise ValueError(
                "slice_vertical_position_extension unsupported (height > 2800)"
            )

        bw = BitWriter()
        seq = SequenceHeader.for_video(w, h, self.cfg.fps)
        seq.intra_matrix = self.cfg.intra_matrix
        seq.non_intra_matrix = self.cfg.non_intra_matrix
        seq.write(bw)

        plans = plan_gop_structure(len(frames), self.cfg)
        recon: dict[int, Frame] = {}  # display index -> reconstructed anchor
        self.stats = EncodeStats()

        for plan in plans:
            if plan.new_gop:
                GOPHeader(closed_gop=self.cfg.closed_gop).write(bw)
            before = len(bw) // 8
            frame = frames[plan.display_index]
            fwd = recon.get(plan.fwd_ref) if plan.fwd_ref is not None else None
            bwd = recon.get(plan.bwd_ref) if plan.bwd_ref is not None else None
            out = self._encode_picture(bw, frame, plan, fwd, bwd)
            if plan.picture_type != PictureType.B:
                recon[plan.display_index] = out
                # Drop anchors that can no longer be referenced.
                for k in list(recon):
                    if k < plan.display_index - self.cfg.gop_size:
                        del recon[k]
            self.stats.picture_sizes.append(len(bw) // 8 - before)
            self.stats.picture_types.append(plan.picture_type)

        bw.write_start_code(SEQUENCE_END_CODE)
        return bw.getvalue()

    # ------------------------------------------------------------------ #

    def _picture_header(self, plan: PicturePlan) -> PictureHeader:
        fc = self.cfg.f_code
        if plan.picture_type == PictureType.I:
            f_code = ((15, 15), (15, 15))
        elif plan.picture_type == PictureType.P:
            f_code = ((fc, fc), (15, 15))
        else:
            f_code = ((fc, fc), (fc, fc))
        return PictureHeader(
            temporal_reference=plan.temporal_reference,
            picture_type=plan.picture_type,
            f_code=f_code,
            intra_dc_precision=self.cfg.intra_dc_precision,
            intra_vlc_format=self.cfg.intra_vlc_format,
        )

    def _encode_picture(
        self,
        bw: BitWriter,
        frame: Frame,
        plan: PicturePlan,
        fwd: Optional[Frame],
        bwd: Optional[Frame],
    ) -> Frame:
        header = self._picture_header(plan)
        header.write(bw)
        mb_w, mb_h = frame.mb_width, frame.mb_height
        out = Frame.blank(frame.width, frame.height)

        for row in range(mb_h):
            self._encode_slice(bw, frame, header, plan, fwd, bwd, row, out)
        return out

    def _encode_slice(
        self,
        bw: BitWriter,
        frame: Frame,
        header: PictureHeader,
        plan: PicturePlan,
        fwd: Optional[Frame],
        bwd: Optional[Frame],
        row: int,
        out: Frame,
    ) -> None:
        mb_w = frame.mb_width
        base_q = (
            self.cfg.qscale_code_intra
            if plan.picture_type == PictureType.I
            else self.cfg.qscale_code_inter
        )
        n_slices = min(self.cfg.slices_per_row, mb_w)
        cuts = {round(s * mb_w / n_slices) for s in range(n_slices)}
        state = CodingState(picture=header, qscale_code=base_q)
        prev_coded = row * mb_w - 1  # address of previous coded macroblock
        for col in range(mb_w):
            if col in cuts:
                # Start a (new) slice: header + full predictor reset.  The
                # address base also resets (§6.3.16): the first macroblock's
                # increment positions the slice within the row.
                bw.write_start_code(row + 1)
                bw.write(base_q, 5)
                bw.write(0, 1)  # extra_bit_slice
                state = CodingState(picture=header, qscale_code=base_q)
                prev_coded = row * mb_w - 1
            address = row * mb_w + col
            mb = self._code_macroblock(frame, plan, fwd, bwd, col, row, state)
            first = col in cuts  # first macroblock of a slice
            last = (col + 1) in cuts or col == mb_w - 1  # last of a slice
            if (
                self.cfg.allow_skips
                and not first
                and not last
                and mb is not None
                and self._skippable(mb, plan, state)
            ):
                skipped = make_skipped(address, state)
                reconstruct_macroblock(
                    skipped, plan.picture_type, out, fwd, bwd, mb_w,
                    self.matrices,
                )
                continue
            assert mb is not None
            mb.address = address
            increment = address - prev_coded
            encode_macroblock(bw, mb, increment, state)
            reconstruct_macroblock(
                mb, plan.picture_type, out, fwd, bwd, mb_w, self.matrices,
                1 << (11 - self.cfg.intra_dc_precision),
            )
            prev_coded = address

    # ------------------------------------------------------------------ #
    # per-macroblock mode decision
    # ------------------------------------------------------------------ #

    def _skippable(
        self, mb: Macroblock, plan: PicturePlan, state: CodingState
    ) -> bool:
        """May this already-decided macroblock be coded as skipped?"""
        if mb.intra or mb.pattern or mb.quant:
            return False
        if plan.picture_type == PictureType.P:
            return mb.motion_forward and mb.mv_fwd == (0, 0)
        if plan.picture_type == PictureType.B:
            if mb.motion_forward != state.prev_forward:
                return False
            if mb.motion_backward != state.prev_backward:
                return False
            if not (mb.motion_forward or mb.motion_backward):
                return False
            if mb.motion_forward and mb.mv_fwd != tuple(state.pmv[0]):
                return False
            if mb.motion_backward and mb.mv_bwd != tuple(state.pmv[1]):
                return False
            return True
        return False

    def _extract_blocks(self, frame: Frame, col: int, row: int) -> np.ndarray:
        """Six 8x8 source blocks of macroblock (col, row) as (6, 8, 8)."""
        y = frame.mb_luma(col, row).astype(np.float64)
        cb, cr = frame.mb_chroma(col, row)
        return np.stack(
            [y[:8, :8], y[:8, 8:], y[8:, :8], y[8:, 8:], cb.astype(np.float64), cr.astype(np.float64)]
        )

    def _choose_qscale(self, col: int, row: int, activity: float, base: int) -> int:
        if self.cfg.quant_modulator is None:
            return base
        code = int(self.cfg.quant_modulator(col, row, activity))
        return min(31, max(1, code))

    def _code_macroblock(
        self,
        frame: Frame,
        plan: PicturePlan,
        fwd: Optional[Frame],
        bwd: Optional[Frame],
        col: int,
        row: int,
        state: CodingState,
    ) -> Macroblock:
        src = self._extract_blocks(frame, col, row)
        luma = frame.mb_luma(col, row).astype(np.int32)
        activity = float(np.var(luma))

        if plan.picture_type == PictureType.I:
            return self._intra_mb(src, col, row, activity, state)

        # --- motion search ------------------------------------------------
        mv_f = mv_b = None
        if fwd is not None:
            mv_f = estimate_mv(frame.y, fwd.y, col, row, self.cfg.search_range)
        if plan.picture_type == PictureType.B and bwd is not None:
            mv_b = estimate_mv(frame.y, bwd.y, col, row, self.cfg.search_range)

        candidates: List[Tuple[int, bool, bool]] = []  # (sad, use_fwd, use_bwd)
        if mv_f is not None:
            py, _, _ = predict_macroblock(fwd, None, col, row, mv_f, None)
            candidates.append((int(np.abs(py - luma).sum()), True, False))
        if mv_b is not None:
            py, _, _ = predict_macroblock(None, bwd, col, row, None, mv_b)
            candidates.append((int(np.abs(py - luma).sum()), False, True))
        if mv_f is not None and mv_b is not None:
            py, _, _ = predict_macroblock(fwd, bwd, col, row, mv_f, mv_b)
            candidates.append((int(np.abs(py - luma).sum()), True, True))
        best_sad, use_f, use_b = min(candidates)

        intra_act = int(np.abs(luma - int(np.mean(luma))).sum())
        if best_sad > intra_act * 1.1 + 256:
            return self._intra_mb(src, col, row, activity, state)

        # --- inter residual ------------------------------------------------
        py, pcb, pcr = predict_macroblock(
            fwd if use_f else None,
            bwd if use_b else None,
            col,
            row,
            mv_f if use_f else None,
            mv_b if use_b else None,
        )
        pred = np.stack(
            [
                py[:8, :8],
                py[:8, 8:],
                py[8:, :8],
                py[8:, 8:],
                pcb,
                pcr,
            ]
        ).astype(np.float64)
        resid = src - pred
        qcode = self._choose_qscale(col, row, activity, self.cfg.qscale_code_inter)
        coeffs = dct.fdct(resid)
        levels = dct.quantize_non_intra(coeffs, 2 * qcode, self.matrices.non_intra)
        scans = dct.block_to_scan(levels)
        cbp = 0
        blocks: List[Optional[np.ndarray]] = [None] * 6
        for b in range(6):
            if np.any(scans[b]):
                cbp |= 1 << (5 - b)
                blocks[b] = scans[b]

        mb = Macroblock(address=-1)
        mb.motion_forward = use_f
        mb.motion_backward = use_b
        mb.mv_fwd = mv_f if use_f else None
        mb.mv_bwd = mv_b if use_b else None
        mb.pattern = cbp != 0
        mb.cbp = cbp
        mb.blocks = blocks
        mb.qscale_code = qcode
        mb.quant = cbp != 0 and qcode != state.qscale_code
        if not mb.pattern and plan.picture_type == PictureType.P and not use_f:
            # P-picture "No MC, not coded" does not exist; code a zero MV.
            mb.motion_forward = True
            mb.mv_fwd = (0, 0)
        return mb

    def _intra_mb(
        self,
        src: np.ndarray,
        col: int,
        row: int,
        activity: float,
        state: CodingState,
    ) -> Macroblock:
        qcode = self._choose_qscale(col, row, activity, self.cfg.qscale_code_intra)
        coeffs = dct.fdct(src)
        levels = dct.quantize_intra(
            coeffs, 2 * qcode, self.matrices.intra,
            dc_scaler=1 << (11 - self.cfg.intra_dc_precision),
        )
        scans = dct.block_to_scan(levels)
        mb = Macroblock(address=-1)
        mb.intra = True
        mb.cbp = 0x3F
        mb.blocks = [scans[b] for b in range(6)]
        mb.qscale_code = qcode
        mb.quant = qcode != state.qscale_code
        return mb
