"""8x8 DCT/IDCT, quantization, and scan ordering (ISO 13818-2 §7.3-§7.4).

All kernels are vectorized over *stacks* of blocks shaped ``(N, 8, 8)`` —
per-block Python loops only appear at the entropy layer where the bitstream
forces serialization.  The IDCT is the floating-point separable transform
with deterministic rounding; encoder and every decoder in this repository
share it, so sequential and parallel reconstructions are bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from repro.mpeg2 import tables as T

BLOCK = 8

# Coefficient saturation range (§7.4.3)
COEFF_MIN, COEFF_MAX = -2048, 2047


def fdct(blocks: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT-II in the MPEG scaling convention.

    ``blocks`` is ``(..., 8, 8)`` float or int; returns float64 coefficients.
    The orthonormal transform *is* the MPEG reference scaling: the DC of a
    constant block ``c`` is ``8c`` (max 2040 for 8-bit video), so every
    coefficient fits the standard's 12-bit saturation range.
    """
    x = np.asarray(blocks, dtype=np.float64)
    return scipy.fft.dctn(x, type=2, axes=(-2, -1), norm="ortho")


def idct(coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Inverse of :func:`fdct`; returns float64 spatial samples.

    ``overwrite=True`` gives the transform ``coeffs`` to work in: a float64
    stack is then transformed in its own memory (the same passes, the same
    bits, no second stack) and the caller reads the returned array, not
    ``coeffs``.

    This is the transform's definition for the encoder and every decoder.
    pocketfft computes it as two 1-D passes, down the columns (axis -2) and
    then along the rows; the native execute phase
    (:mod:`repro.mpeg2.native_execute`) makes the same two ``scipy.fft.idct``
    calls itself so that the first can skip all-zero columns, and is float
    for float this function only in that order
    (``tests/test_dct.py::TestTransformSplit``).
    """
    c = np.asarray(coeffs, dtype=np.float64)
    return scipy.fft.idctn(
        c, type=2, axes=(-2, -1), norm="ortho", overwrite_x=overwrite
    )


# ---------------------------------------------------------------------- #
# quantization
# ---------------------------------------------------------------------- #


def quantize_intra(
    coeffs: np.ndarray,
    qscale: int,
    matrix: np.ndarray = T.DEFAULT_INTRA_QUANT_MATRIX,
    dc_scaler: int = 8,
) -> np.ndarray:
    """Quantize intra blocks; DC divides by ``dc_scaler`` (8/4/2 for
    intra_dc_precision 8/9/10, §7.4.1).

    Returns int32 levels with the DC level in position [0, 0] expressed in
    QDC units (reconstruction multiplies by ``dc_scaler``).
    """
    c = np.asarray(coeffs, dtype=np.float64)
    w = matrix.astype(np.float64)
    q = np.rint(16.0 * c / (w * qscale)).astype(np.int64)
    dc = np.rint(c[..., 0, 0] / dc_scaler).astype(np.int64)
    # AC levels must survive escape coding; DC is bounded by its precision.
    np.clip(q, -T.MAX_ESCAPE_LEVEL, T.MAX_ESCAPE_LEVEL, out=q)
    q[..., 0, 0] = np.clip(dc, 0, 2048 // dc_scaler - 1)
    return q.astype(np.int32)


def _qscale_factor(qscale, ndim_levels: int) -> np.ndarray:
    """Broadcast a scalar or per-block quantiser scale over ``(..., 8, 8)``.

    A 1-D array of per-block scales lets the batched reconstruction engine
    dequantize a whole picture's ``(N, 8, 8)`` coefficient stack in one call
    even though the quantiser scale varies macroblock to macroblock.
    """
    qs = np.asarray(qscale, dtype=np.int64)
    if qs.ndim == 0:
        return qs
    if qs.ndim != 1:
        raise ValueError(f"qscale must be scalar or 1-D, got shape {qs.shape}")
    return qs.reshape(qs.shape + (1,) * (ndim_levels - 1))


def dequantize_intra(
    levels: np.ndarray,
    qscale,
    matrix: np.ndarray = T.DEFAULT_INTRA_QUANT_MATRIX,
    dc_scaler: int = 8,
) -> np.ndarray:
    """Reconstruct intra coefficients (§7.4.2.1), saturated to 12 bits.

    ``qscale`` may be a scalar or a 1-D array of per-block scales matching
    the leading axis of a ``(N, 8, 8)`` stack.
    """
    q = np.asarray(levels, dtype=np.int64)
    w = matrix.astype(np.int64)
    f = q * w
    f *= _qscale_factor(qscale, q.ndim)
    f //= 16
    f[..., 0, 0] = q[..., 0, 0] * dc_scaler
    return np.clip(f, COEFF_MIN, COEFF_MAX, out=f)


def quantize_non_intra(
    coeffs: np.ndarray,
    qscale: int,
    matrix: np.ndarray = T.DEFAULT_NON_INTRA_QUANT_MATRIX,
) -> np.ndarray:
    """Quantize non-intra blocks with the standard dead zone (truncation)."""
    c = np.asarray(coeffs, dtype=np.float64)
    w = matrix.astype(np.float64)
    q = np.trunc(32.0 * c / (2.0 * w * qscale)).astype(np.int64)
    np.clip(q, -T.MAX_ESCAPE_LEVEL, T.MAX_ESCAPE_LEVEL, out=q)
    return q.astype(np.int32)


def dequantize_non_intra(
    levels: np.ndarray,
    qscale,
    matrix: np.ndarray = T.DEFAULT_NON_INTRA_QUANT_MATRIX,
) -> np.ndarray:
    """Reconstruct non-intra coefficients (§7.4.2.2) with oddification.

    ``qscale`` may be a scalar or a 1-D array of per-block scales matching
    the leading axis of a ``(N, 8, 8)`` stack.
    """
    q = np.asarray(levels, dtype=np.int64)
    w = matrix.astype(np.int64)
    f = 2 * q
    f += np.sign(q)
    f *= w
    f *= _qscale_factor(qscale, q.ndim)
    f //= 32
    return np.clip(f, COEFF_MIN, COEFF_MAX, out=f)


def dequantize_intra_sparse(
    level: np.ndarray,
    scan: np.ndarray,
    qscale: np.ndarray,
    weight_scan: np.ndarray,
    dc_scaler: int = 8,
) -> np.ndarray:
    """:func:`dequantize_intra` over the coded entries alone.

    ``level[i]`` sits at scan position ``scan[i]`` of a block whose
    quantiser scale is ``qscale[i]``; ``weight_scan`` is the matrix as 64
    int64 weights in scan order.  Same integer operations entry for entry,
    and a zero level reconstructs to zero, so scattering the result over
    zeros equals the dense call.
    """
    q = np.asarray(level, dtype=np.int64)
    f = q * weight_scan[scan]
    f *= qscale
    f //= 16
    dc = scan == 0
    f[dc] = q[dc] * dc_scaler
    return np.clip(f, COEFF_MIN, COEFF_MAX, out=f)


def dequantize_non_intra_sparse(
    level: np.ndarray, scan: np.ndarray, qscale: np.ndarray, weight_scan: np.ndarray
) -> np.ndarray:
    """:func:`dequantize_non_intra` over the coded entries alone (see
    :func:`dequantize_intra_sparse`)."""
    q = np.asarray(level, dtype=np.int64)
    f = 2 * q
    f += np.sign(q)
    f *= weight_scan[scan]
    f *= qscale
    f //= 32
    return np.clip(f, COEFF_MIN, COEFF_MAX, out=f)


# ---------------------------------------------------------------------- #
# scan ordering / run-level conversion
# ---------------------------------------------------------------------- #


def block_to_scan(block: np.ndarray) -> np.ndarray:
    """Reorder an ``(..., 8, 8)`` block into ``(..., 64)`` zigzag order."""
    flat = np.asarray(block).reshape(*block.shape[:-2], 64)
    return flat[..., T.RASTER_OF_SCAN]


def scan_to_block(scan: np.ndarray) -> np.ndarray:
    """Inverse of :func:`block_to_scan`."""
    scan = np.asarray(scan)
    # Gather through the inverse permutation (faster than a fancy scatter).
    flat = scan[..., T.SCAN_OF_RASTER]
    return flat.reshape(*scan.shape[:-1], 8, 8)


def run_levels_from_scan(scan: np.ndarray, skip_dc: bool) -> list[tuple[int, int]]:
    """Convert one 64-entry scan vector to (run, level) pairs.

    ``skip_dc`` drops position 0 (intra blocks code DC separately).
    """
    start = 1 if skip_dc else 0
    (nz,) = np.nonzero(scan[start:])
    out: list[tuple[int, int]] = []
    prev = -1
    for idx in nz:
        out.append((int(idx) - prev - 1, int(scan[start + idx])))
        prev = int(idx)
    return out


def scan_from_run_levels(
    run_levels: list[tuple[int, int]], dc: int | None
) -> np.ndarray:
    """Rebuild a 64-entry scan vector; ``dc`` fills position 0 if given."""
    scan = np.zeros(64, dtype=np.int32)
    pos = 1 if dc is not None else 0
    if dc is not None:
        scan[0] = dc
    for run, level in run_levels:
        pos += run
        if pos > 63:
            raise ValueError("run/level sequence overruns the block")
        scan[pos] = level
        pos += 1
    return scan
