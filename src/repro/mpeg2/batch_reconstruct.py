"""Two-phase batched picture reconstruction (parse -> plan -> execute).

The per-macroblock reference path (:mod:`repro.mpeg2.reconstruct`) pays a
separate numpy dispatch, ``scipy.fft.idctn``, ``rint``, and ``clip`` for
every 8x8 block, so a picture reconstructs at Python-loop speed.  This
module restructures the work the way a hardware decoder's memory system
does: the entropy phase emits a flat *reconstruction plan* — coefficient
stacks, per-block quantiser scales, intra/inter flags, motion vectors, and
destination offsets — and the execute phase then runs **one** dequantize +
**one** IDCT over the whole ``(N, 8, 8)`` coefficient stack, forms motion
compensated predictions with array-level gathers grouped by half-pel
fraction, and scatters finished macroblock tiles into the frame planes with
slice assignments.

Coefficients stay *sparse* from the parser to the IDCT input: a plan holds
only the nonzero levels (scan position + level per entry, an entry count
per block — about four per coded block on ordinary streams, not 64), the
dequantiser runs over those entries alone, and the first dense array is
the zeroed ``float64`` stack they are scattered into for the IDCT.

Every arithmetic step gives the reference path's value (the same integer
operations, in narrower types where the ranges are bounded; same rounding,
same clip order), so the output is bit-identical — the property the golden
and hypothesis tests assert.

This module is the execute side.  The plan itself, its builders and its
bounds checks live in :mod:`repro.mpeg2.plan`, which needs numpy only: a
process that compiles or ships plans without executing them (a cluster
splitter) imports that and never loads ``scipy.fft``.

Entropy decoding itself stays serial: VLC parsing is inherently sequential
(each codeword's position depends on the previous one), which is exactly
why the paper's splitter hierarchy parallelizes *across* pictures while
this engine vectorizes *within* one.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.mpeg2 import dct
from repro.mpeg2.frames import Frame
from repro.mpeg2.plan import (
    BWD,
    FWD,
    PlanBuilder,  # noqa: F401 - the benchmark spine imports it from here
    ReconstructionPlan,
    chroma_mv_batch,
)
from repro.mpeg2.tables import RASTER_OF_SCAN


def _tiled_view(plane: np.ndarray, size: int) -> np.ndarray:
    """A ``(mb_h, mb_w, size, size)`` writable view of a frame plane."""
    if not plane.flags["C_CONTIGUOUS"]:
        raise ValueError("frame planes must be C-contiguous for tiled scatter")
    h, w = plane.shape
    return plane.reshape(h // size, size, w // size, size).transpose(0, 2, 1, 3)


def _residual_stacks(plan: ReconstructionPlan) -> np.ndarray:
    """Dequantize + IDCT every coded block; scatter to ``(n_res, 6, 8, 8)``.

    One dequantize per quantizer class over the coded entries only, one
    scatter of them into the zeroed raster-order IDCT input, one ``idctn``
    over the entire stack and one rounding of its output — this is the
    kernel batching the module exists for.  The result is the *rounded*
    residual, int16: both dequantisers saturate to 12 bits, and the
    orthonormal 8x8 IDCT of 64 such coefficients stays below 2**15 in
    magnitude (its absolute basis sum is 2.642**2 = 6.98 per sample, so at
    most 2048 * 6.98 = 14 294).  Uncoded blocks stay exactly zero, matching
    the reference path's zero scans.
    """
    res6 = np.zeros((plan.n_res, 6, 8, 8), dtype=np.int16)
    n_blocks = plan.n_blocks
    if n_blocks == 0:
        return res6
    ncoef, scan, level = plan.block_ncoef, plan.coef_scan, plan.coef_level
    qscale = np.repeat(plan.block_qscale, ncoef)
    # Blocks were laid out intra-first at build time, so both dequantizers
    # run over plain slices of the entries.
    k = int(ncoef[: plan.n_intra_blocks].sum())
    coeffs = np.zeros((n_blocks, 8, 8), dtype=np.float64)
    dest = np.repeat(np.arange(0, 64 * n_blocks, 64), ncoef)
    dest += RASTER_OF_SCAN[scan]
    flat = coeffs.reshape(-1)
    flat[dest[:k]] = dct.dequantize_intra_sparse(
        level[:k], scan[:k], qscale[:k], plan.matrices.intra_scan, plan.dc_scaler
    )
    flat[dest[k:]] = dct.dequantize_non_intra_sparse(
        level[k:], scan[k:], qscale[k:], plan.matrices.non_intra_scan
    )
    res = dct.idct(coeffs)
    res6[plan.block_res, plan.block_slot] = np.rint(res, out=res)
    return res6


def _assemble_luma_batch(res6: np.ndarray) -> np.ndarray:
    """``(R, 6, 8, 8)`` residuals -> ``(R, 16, 16)`` luma tiles."""
    m = len(res6)
    return (
        res6[:, :4]
        .reshape(m, 2, 2, 8, 8)
        .transpose(0, 1, 3, 2, 4)
        .reshape(m, 16, 16)
    )


def _predict_plane_batch(
    plane: np.ndarray,
    base_x: np.ndarray,
    base_y: np.ndarray,
    mvx: np.ndarray,
    mvy: np.ndarray,
    size: int,
) -> np.ndarray:
    """Batched half-pel prediction: ``(K, size, size)`` int32 samples.

    Groups requests by their half-pel fraction pair so each group is one
    gather of whole ``(size + fy, size + fx)`` reference windows followed by
    one vectorized interpolation — the same arithmetic as
    :func:`repro.mpeg2.motion.predict_plane`, over a stack.
    Bounds were validated at plan time.
    """
    k = len(base_x)
    out = np.empty((k, size, size), dtype=np.int32)
    ix, iy = mvx >> 1, mvy >> 1
    fx, fy = mvx & 1, mvy & 1
    x0, y0 = base_x + ix, base_y + iy
    for gfy in (0, 1):
        for gfx in (0, 1):
            sel = (fx == gfx) & (fy == gfy)
            if not sel.any():
                continue
            windows = sliding_window_view(plane, (size + gfy, size + gfx))
            region = windows[y0[sel], x0[sel]].astype(np.int32)
            if not gfx and not gfy:
                out[sel] = region
            elif gfx and not gfy:
                out[sel] = (region[:, :, :-1] + region[:, :, 1:] + 1) >> 1
            elif gfy and not gfx:
                out[sel] = (region[:, :-1, :] + region[:, 1:, :] + 1) >> 1
            else:
                out[sel] = (
                    region[:, :-1, :-1]
                    + region[:, :-1, 1:]
                    + region[:, 1:, :-1]
                    + region[:, 1:, 1:]
                    + 2
                ) >> 2
    return out


def _predict_direction(
    plan: ReconstructionPlan,
    ref: Frame,
    idx: np.ndarray,
    direction: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictions ``(y, cb, cr)`` for the macroblocks ``idx`` from ``ref``."""
    mv = plan.mb_mv[idx, direction]
    cmv = chroma_mv_batch(mv)
    y = _predict_plane_batch(
        ref.y, plan.mb_x[idx] * 16, plan.mb_y[idx] * 16, mv[:, 0], mv[:, 1], 16
    )
    cb = _predict_plane_batch(
        ref.cb, plan.mb_x[idx] * 8, plan.mb_y[idx] * 8, cmv[:, 0], cmv[:, 1], 8
    )
    cr = _predict_plane_batch(
        ref.cr, plan.mb_x[idx] * 8, plan.mb_y[idx] * 8, cmv[:, 0], cmv[:, 1], 8
    )
    return y, cb, cr


def _gather_residual(res: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Residual tiles for macroblock rows (``-1`` rows come back zero)."""
    valid = rows >= 0
    if valid.all():
        return res[rows]
    out = np.zeros((len(rows),) + shape, dtype=res.dtype)
    out[valid] = res[rows[valid]]
    return out


def execute_plan(
    plan: ReconstructionPlan,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
) -> None:
    """Reconstruct every planned macroblock into ``out`` in place."""
    if plan.n_macroblocks == 0:
        return
    res6 = _residual_stacks(plan)
    res_y = _assemble_luma_batch(res6)
    res_cb, res_cr = res6[:, 4], res6[:, 5]

    vy = _tiled_view(out.y, 16)
    vcb = _tiled_view(out.cb, 8)
    vcr = _tiled_view(out.cr, 8)

    intra_idx = np.flatnonzero(plan.mb_intra)
    if len(intra_idx):
        rows = plan.mb_res_row[intra_idx]
        ix, iy = plan.mb_x[intra_idx], plan.mb_y[intra_idx]
        ty = _gather_residual(res_y, rows, (16, 16))
        tcb = _gather_residual(res_cb, rows, (8, 8))
        tcr = _gather_residual(res_cr, rows, (8, 8))
        vy[iy, ix] = np.clip(ty, 0, 255).astype(np.uint8)
        vcb[iy, ix] = np.clip(tcb, 0, 255).astype(np.uint8)
        vcr[iy, ix] = np.clip(tcr, 0, 255).astype(np.uint8)

    inter_idx = np.flatnonzero(~plan.mb_intra)
    if not len(inter_idx):
        return

    use_f = plan.mb_dir[inter_idx, FWD]
    use_b = plan.mb_dir[inter_idx, BWD]
    if not (use_f | use_b).all():
        raise ValueError("prediction requested with no motion vectors")
    for use, ref, name in ((use_f, fwd, "forward"), (use_b, bwd, "backward")):
        if use.any() and ref is None:
            raise ValueError(f"prediction requested without {name} reference")

    m = len(inter_idx)
    py = np.empty((m, 16, 16), dtype=np.int32)
    pcb = np.empty((m, 8, 8), dtype=np.int32)
    pcr = np.empty((m, 8, 8), dtype=np.int32)
    only_f, only_b, both = use_f & ~use_b, use_b & ~use_f, use_f & use_b
    if use_f.any():
        yf, cbf, crf = _predict_direction(plan, fwd, inter_idx[use_f], FWD)
        py[only_f], pcb[only_f], pcr[only_f] = (
            yf[only_f[use_f]],
            cbf[only_f[use_f]],
            crf[only_f[use_f]],
        )
    if use_b.any():
        yb, cbb, crb = _predict_direction(plan, bwd, inter_idx[use_b], BWD)
        py[only_b], pcb[only_b], pcr[only_b] = (
            yb[only_b[use_b]],
            cbb[only_b[use_b]],
            crb[only_b[use_b]],
        )
    if both.any():
        # Bidirectional: rounded average of the two directions (§7.6.7.1).
        fsel, bsel = both[use_f], both[use_b]
        py[both] = (yf[fsel] + yb[bsel] + 1) >> 1
        pcb[both] = (cbf[fsel] + cbb[bsel] + 1) >> 1
        pcr[both] = (crf[fsel] + crb[bsel] + 1) >> 1

    rows = plan.mb_res_row[inter_idx]
    hasres = rows >= 0
    y8 = np.empty((m, 16, 16), dtype=np.uint8)
    cb8 = np.empty((m, 8, 8), dtype=np.uint8)
    cr8 = np.empty((m, 8, 8), dtype=np.uint8)
    if hasres.any():
        # Residual add + clip, as the per-MB path: integer sum -> clip.
        rr = rows[hasres]
        y8[hasres] = np.clip(py[hasres] + res_y[rr], 0, 255).astype(np.uint8)
        cb8[hasres] = np.clip(pcb[hasres] + res_cb[rr], 0, 255).astype(np.uint8)
        cr8[hasres] = np.clip(pcr[hasres] + res_cr[rr], 0, 255).astype(np.uint8)
    nores = ~hasres
    if nores.any():
        # Pure predictions are averages of uint8 samples, already in
        # [0, 255]; the reference path's clip is a no-op there, so a plain
        # cast is bit-identical.
        y8[nores] = py[nores].astype(np.uint8)
        cb8[nores] = pcb[nores].astype(np.uint8)
        cr8[nores] = pcr[nores].astype(np.uint8)

    ex, ey = plan.mb_x[inter_idx], plan.mb_y[inter_idx]
    vy[ey, ex] = y8
    vcb[ey, ex] = cb8
    vcr[ey, ex] = cr8
