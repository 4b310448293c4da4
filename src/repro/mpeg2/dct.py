"""8x8 DCT/IDCT, quantization, and scan ordering (ISO 13818-2 §7.3-§7.4).

All kernels are vectorized over *stacks* of blocks shaped ``(N, 8, 8)`` —
per-block Python loops only appear at the entropy layer where the bitstream
forces serialization.

ISO 13818-2 does not define a bit-exact IDCT; it asks for IEEE 1180-1990
accuracy.  :func:`idct` is this repository's definition: the MPEG Software
Simulation Group's fixed-point Chen–Wang transform, in exact integer
arithmetic.  The encoder and every decoder here share it, so sequential and
parallel reconstructions are bit-identical; the native execute kernel
(``_execute.c``) computes it too, and ``tests/test_dct.py`` holds both to a
scalar transcription and to the IEEE 1180 procedure.  The forward DCT is the
encoder's alone, and any accurate one will do: :func:`fdct` is two float64
matrix products.
"""

from __future__ import annotations

import numpy as np

from repro.mpeg2 import native_execute
from repro.mpeg2 import tables as T

BLOCK = 8

# Coefficient saturation range (§7.4.3)
COEFF_MIN, COEFF_MAX = -2048, 2047

# The orthonormal DCT-II matrix: row k is basis function k.
_DCT = np.sqrt(np.where(np.arange(8) == 0, 1 / 8, 2 / 8))[:, None] * np.cos(
    np.outer(np.arange(8), 2 * np.arange(8) + 1) * np.pi / 16
)


def fdct(blocks: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT-II in the MPEG scaling convention.

    ``blocks`` is ``(..., 8, 8)`` float or int; returns float64 coefficients.
    The orthonormal transform *is* the MPEG reference scaling: the DC of a
    constant block ``c`` is ``8c`` (max 2040 for 8-bit video), so every
    coefficient fits the standard's 12-bit saturation range.
    """
    x = np.asarray(blocks, dtype=np.float64)
    return _DCT @ x @ _DCT.T


def idct(
    coeffs: np.ndarray, out: np.ndarray | None = None, scratch=None
) -> np.ndarray:
    """Inverse of :func:`fdct` on integer coefficients: int16 samples.

    ``coeffs`` is ``(..., 8, 8)`` of an integer dtype, every value in
    ``[COEFF_MIN, COEFF_MAX]`` (what the dequantisers give; anything else is
    a ``ValueError``).  The samples, clipped to ``[-256, 255]``, go into
    ``out`` when it is given (C-contiguous int16 of the same shape).
    ``scratch`` (an object with ``ExecuteScratch.take``) lends the numpy
    transform its working rows, so that a warm call allocates none.

    This is the transform's definition for the encoder and every decoder:
    the MSSG integer Chen–Wang IDCT, rows then columns, constants
    ``W_k = round(2048 sqrt(2) cos(k pi / 16))``; see :func:`_idct_numpy`.
    The kernel computes it where it loaded, the numpy body elsewhere, and
    the two are equal bit for bit.
    """
    c = np.asarray(coeffs)
    if not np.issubdtype(c.dtype, np.integer) or c.shape[-2:] != (8, 8):
        raise TypeError(f"IDCT input must be (..., 8, 8) integer coefficients, got {c.dtype} {c.shape}")
    if out is None:
        out = np.empty(c.shape, dtype=np.int16)
    elif out.shape != c.shape or out.dtype != np.int16 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous int16 array of shape {c.shape}")
    _transform(c, out, scratch)
    return out


# W_k = 2048 sqrt(2) cos(k pi / 16), rounded
W1, W2, W3, W5, W6, W7 = 2841, 2676, 2408, 1609, 1108, 565

#: Blocks the numpy transform takes at a time: its 25 working rows of int64
#: then fill 3 MB.
_IDCT_PIECE = 2048


def _idct_numpy(c: np.ndarray, out: np.ndarray, scratch=None) -> None:
    """The transform in numpy, :func:`_pass` over every row and then every
    column, ``_IDCT_PIECE`` blocks at a time: the specification
    ``_execute.c``'s ``idct_block`` is held to, and the engine where it did
    not load."""
    if c.size and (c.min() < COEFF_MIN or c.max() > COEFF_MAX):
        raise ValueError("IDCT input outside the 12-bit coefficient range")
    n = c.size // 64
    blocks, samples = c.reshape(n, 8, 8), out.reshape(n, 8, 8)
    shape = (25, 8 * min(n, _IDCT_PIECE))
    work = np.empty(shape, np.int64) if scratch is None else scratch.take("idct", shape, np.int64)
    for b0 in range(0, n, _IDCT_PIECE):
        m = min(n - b0, _IDCT_PIECE)
        w = work[:, : 8 * m]
        x, y = w[:8], w[8:16]
        x[...] = blocks[b0 : b0 + m].reshape(-1, 8).T  # x[i]: coefficient i of each row
        _pass(x, y, w[16:], columns=False)  # y[i]: column i of each row's output
        x.reshape(8, m, 8)[...] = y.reshape(8, m, 8).transpose(2, 1, 0)  # x[i]: row i of each column
        _pass(x, y, w[16:], columns=True)  # y[i]: row i of each column's samples
        samples[b0 : b0 + m] = y.reshape(8, m, 8).transpose(1, 0, 2)


def _pass(x: np.ndarray, y: np.ndarray, t: np.ndarray, columns: bool) -> None:
    """One pass of the Chen–Wang butterfly, vectorised: ``x[i]`` is input
    ``i`` of every row (or column), ``y[i]`` receives output ``i``, ``t`` is
    nine working vectors; all int64, so nothing wraps.

    The row pass scales its input by 2**11 and keeps 3 fraction bits; the
    column pass scales by 2**8, rounds its odd and even parts to 3 fewer
    bits (``+4 >> 3``), drops 14 and clips to ``[-256, 255]``.  Both round
    the two ``sqrt(1/2)`` products as ``(181 (a ± b) + 128) >> 8``.  These
    are MSSG ``idctrow`` / ``idctcol`` stage for stage, with every
    first-stage sum written out as the two products it is.
    """
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    a2, a3, a4, a5, a6, a7, s8, s0, tmp = t

    def form(dst, a, wa, b, wb):  # dst = wa * a + wb * b
        np.multiply(a, wa, out=dst)
        np.multiply(b, wb, out=tmp)
        dst += tmp

    # first stage, and the even part's products
    form(a4, x1, W1, x7, W7)
    form(a5, x1, W7, x7, -W1)
    form(a6, x5, W5, x3, W3)
    form(a7, x5, W3, x3, -W5)
    form(a2, x2, W6, x6, -W2)
    form(a3, x2, W2, x6, W6)
    if columns:
        t[:6] += 4
        t[:6] >>= 3
    scale, rounding, shift = (256, 8192, 14) if columns else (2048, 128, 8)
    np.multiply(x0, scale, out=s8)
    s8 += rounding
    np.multiply(x4, scale, out=tmp)
    np.subtract(s8, tmp, out=s0)
    s8 += tmp
    # second and third stages
    np.subtract(a4, a6, out=tmp)  # tmp: x4 - x6
    a4 += a6  # a4: x4 + x6
    np.subtract(a5, a7, out=a6)  # a6: x5 - x7
    a5 += a7  # a5: x5 + x7
    np.add(s8, a3, out=a7)
    s8 -= a3
    np.add(s0, a2, out=a3)
    s0 -= a2
    np.add(tmp, a6, out=a2)
    tmp -= a6
    for v in (a2, tmp):
        v *= 181
        v += 128
        v >>= 8
    # fourth stage
    for k, (a, b) in enumerate(((a7, a4), (a3, a2), (s0, tmp), (s8, a5))):
        np.add(a, b, out=y[k])
        np.subtract(a, b, out=y[7 - k])
    y >>= shift
    if columns:
        np.clip(y, -256, 255, out=y)


# The transform ``idct`` runs, selected by what this process could observe,
# once: the kernel loaded (``_execute.c``'s ``idct``) or it did not.  No flag
# chooses; tests substitute the name.
_transform = native_execute.idct if native_execute.LIBRARY is not None else _idct_numpy


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


def _divide_toward_zero(f: np.ndarray, d: int) -> None:
    """``f /= d`` in place with the standard's ``/``: integer division
    truncating toward zero (§7.4.2.3; ``-7 / 4`` is ``-1``), not numpy's
    floor."""
    negative = f < 0
    np.abs(f, out=f)
    f //= d
    np.negative(f, out=f, where=negative)


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
    _divide_toward_zero(f, 16)
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
    _divide_toward_zero(f, 32)
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
    _divide_toward_zero(f, 16)
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
    _divide_toward_zero(f, 32)
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
