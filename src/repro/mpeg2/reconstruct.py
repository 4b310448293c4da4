"""Pixel reconstruction a macroblock at a time: the encoder's local
reconstruction, and the decoders' test oracle.

Dequantization, IDCT (:func:`repro.mpeg2.dct.idct`, the integer transform
every decoder shares), prediction and clipping, one macroblock's six blocks
per call.  The encoder reconstructs its own reference frames with it; no
decoder does (they plan and execute whole pictures,
:mod:`repro.mpeg2.batch_reconstruct`), and ``tests/oracles.py::
reference_decode`` holds their frames bit-identical to this module's.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mpeg2 import dct
from repro.mpeg2.constants import PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.macroblock import Macroblock
from repro.mpeg2.motion import predict_macroblock
from repro.mpeg2.plan import DEFAULT_MATRICES, QuantMatrices
from repro.mpeg2.tables import quantiser_scale_from_code


def _residuals(
    mb: Macroblock, intra: bool, matrices: QuantMatrices, dc_scaler: int = 8
) -> np.ndarray:
    """Dequantize + IDCT all six blocks; returns (6, 8, 8) int16 samples.

    Uncoded blocks come back as zeros.
    """
    qscale = quantiser_scale_from_code(mb.qscale_code)
    scans = np.zeros((6, 64), dtype=np.int32)
    for b in range(6):
        if mb.blocks[b] is not None:
            scans[b] = mb.blocks[b]
    blocks = dct.scan_to_block(scans)
    if intra:
        coeffs = dct.dequantize_intra(blocks, qscale, matrices.intra, dc_scaler)
    else:
        coeffs = dct.dequantize_non_intra(blocks, qscale, matrices.non_intra)
    return dct.idct(coeffs)


def _assemble_luma(res: np.ndarray) -> np.ndarray:
    """Stack the four 8x8 luma residual blocks into a 16x16 tile."""
    out = np.empty((16, 16), dtype=res.dtype)
    out[:8, :8] = res[0]
    out[:8, 8:] = res[1]
    out[8:, :8] = res[2]
    out[8:, 8:] = res[3]
    return out


def reconstruct_macroblock(
    mb: Macroblock,
    picture_type: PictureType,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    mb_width: int,
    matrices: QuantMatrices = DEFAULT_MATRICES,
    dc_scaler: int = 8,
) -> None:
    """Reconstruct one macroblock into ``out`` in place."""
    mb_x, mb_y = mb.address % mb_width, mb.address // mb_width

    if mb.intra:
        res = _residuals(mb, intra=True, matrices=matrices, dc_scaler=dc_scaler)
        y = np.clip(_assemble_luma(res), 0, 255).astype(np.uint8)
        cb = np.clip(res[4], 0, 255).astype(np.uint8)
        cr = np.clip(res[5], 0, 255).astype(np.uint8)
    else:
        mv_fwd = mb.mv_fwd
        mv_bwd = mb.mv_bwd
        if picture_type == PictureType.P and not mb.motion_forward:
            # "No MC" macroblock: zero forward vector (§7.6.3.5)
            mv_fwd = (0, 0)
        py, pcb, pcr = predict_macroblock(fwd, bwd, mb_x, mb_y, mv_fwd, mv_bwd)
        if mb.pattern and any(blk is not None for blk in mb.blocks):
            res = _residuals(mb, intra=False, matrices=matrices)
            py = py + _assemble_luma(res).astype(np.int64)
            pcb = pcb + res[4].astype(np.int64)
            pcr = pcr + res[5].astype(np.int64)
        y = np.clip(py, 0, 255).astype(np.uint8)
        cb = np.clip(pcb, 0, 255).astype(np.uint8)
        cr = np.clip(pcr, 0, 255).astype(np.uint8)

    out.y[mb_y * 16 : mb_y * 16 + 16, mb_x * 16 : mb_x * 16 + 16] = y
    out.cb[mb_y * 8 : mb_y * 8 + 8, mb_x * 8 : mb_x * 8 + 8] = cb
    out.cr[mb_y * 8 : mb_y * 8 + 8, mb_x * 8 : mb_x * 8 + 8] = cr
