"""The execute phase as native code: build, cache, load and call ``_execute.c``.

``_execute.c`` (beside this file) is what the numpy body of
:func:`repro.mpeg2.batch_reconstruct.execute_plan` does around the IDCT,
ported to C so that every sample is written once: the sparse dequantisers,
the rounding of the transform's output into the int16 residual stack, and
— one foreign call per picture — half-pel prediction straight from the
reference planes, residual add, clip and store.  The transform stays
scipy's, but its first pass runs over the block *columns* that hold a
nonzero coefficient only (a third of them on ordinary streams): the kernel
compacts those into an ``(n_lines, 8)`` array, ``scipy.fft.idct`` runs along
it, the kernel scatters the result back into the zeroed ``(n, 8, 8)`` stack
and ``scipy.fft.idct`` runs the row pass.  Column pass first, row pass
second is float for float what ``dct.idct`` (``idctn`` over axes ``(-2,
-1)``) computes; the reverse order is not, which is why columns and not
rows are compacted (``tests/test_dct.py`` pins both facts).

Importing this module tries to make the kernel available
(:func:`repro.mpeg2.native.load`); :mod:`repro.mpeg2.batch_reconstruct`
imports it, so a process that never executes a plan never builds or maps
it.  Without it :data:`LIBRARY` is ``None``, :data:`STATUS` says why, and
``execute_plan`` runs its numpy body — the specification this port is held
to.  There is no switch (:func:`engine` names what serves).

The kernel dereferences no index it has not range-checked; an error code
comes back as the exception below.  It keeps no state and every buffer is
the caller's (:class:`~repro.mpeg2.batch_reconstruct.ExecuteScratch`, the
frame planes), so threads may execute concurrently, each with its own
scratch (ctypes releases the GIL for the calls).
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional, Tuple

import numpy as np
import scipy.fft

from repro.mpeg2 import native
from repro.mpeg2.frames import Frame
from repro.mpeg2.plan import ReconstructionPlan
from repro.mpeg2.tables import RASTER_OF_SCAN

_SOURCE = os.path.join(os.path.dirname(__file__), "_execute.c")


def _load() -> Tuple[Optional[ctypes.CDLL], str]:
    """``(the library, its path)``, or ``(None, why there is none)``."""
    return native.load(_SOURCE, "executing in numpy")


class _Frame(ctypes.Structure):
    """``_execute.c``'s ``frame_t``; all zero for a reference there is not."""

    _fields_ = [
        ("plane", ctypes.c_void_p * 3),
        ("stride", ctypes.c_int64 * 3),
        ("width", ctypes.c_int64),
        ("height", ctypes.c_int64),
    ]


#: The library, or ``None``; and its path, or why there is none
#: (``no compiler`` | ``compile failed: ...`` | ``load failed: ...``).
LIBRARY, STATUS = _load()
if LIBRARY is not None:
    _P, _I = ctypes.c_void_p, ctypes.c_int64
    for _name, _argtypes in (
        ("dequantize_place", [_P, _P, _I, _I, _I, _P, _P, _I, _I, _P, _P, _P, _I, _P, _I, _P, _P, _P]),
        ("scatter_lines", [_P, _I, _P, _I, _P, _P]),
        ("round_store", [_P, _I, _I, _P, _P, _I, _P, _P]),
        ("reconstruct", [_I, _P, _P, _P, _P, _P, _P, _P, _I, *[ctypes.POINTER(_Frame)] * 3, _P]),
    ):
        getattr(LIBRARY, _name).restype = ctypes.c_int64
        getattr(LIBRARY, _name).argtypes = _argtypes


def engine() -> str:
    """Which engine executes plans in this process, and from where or why."""
    return native.engine(LIBRARY, STATUS)


# _execute.c's return codes, from 1 (``at``: the block, entry or macroblock).
# A missing direction or reference is the numpy body's ``ValueError``; an
# index a plan must not hold is an ``IndexError`` naming its field.
_ERRORS = (
    (ValueError, "plan.block_ncoef overruns the coefficient entries at block {at}"),
    (IndexError, "plan.coef_scan outside [0, 64) at entry {at}"),
    (IndexError, "RASTER_OF_SCAN outside [0, 64) at scan position {at}"),
    # not properties of the plan: the sizes in ``execute_plan`` would be wrong
    (RuntimeError, "native execute: line buffer full at block {at}"),
    (RuntimeError, "native execute: column map of block {at} names no line"),
    (IndexError, "plan.block_res outside [0, n_res) at block {at}"),
    (IndexError, "plan.block_slot outside [0, 6) at block {at}"),
    (IndexError, "plan.mb_x outside the raster at macroblock {at}"),
    (IndexError, "plan.mb_y outside the raster at macroblock {at}"),
    (IndexError, "plan.mb_res_row outside [-1, n_res) at macroblock {at}"),
    (ValueError, "prediction requested with no motion vectors"),
    (ValueError, "prediction requested without forward reference"),
    (ValueError, "prediction requested without backward reference"),
    (IndexError, "plan.mb_mv reads outside the reference planes at macroblock {at}"),
)


def _call(function, *args) -> None:
    """``function(*args, &at)``; its error code, if any, as the exception."""
    at = ctypes.c_int64(0)
    code = function(*args, ctypes.addressof(at))
    if code:
        exception, text = _ERRORS[code - 1]
        raise exception(text.format(at=at.value))


def _column(plan: ReconstructionPlan, name: str, dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """``plan.<name>`` as a C-contiguous ``dtype`` array the kernel can walk
    (itself when it already is one: every plan the runtime builds or
    decodes), of exactly ``shape`` — the lengths the kernel is told."""
    column = np.ascontiguousarray(getattr(plan, name), dtype=dtype)
    if column.shape != shape:
        raise ValueError(f"plan.{name} has shape {column.shape}, expected {shape}")
    return column


def _frame(frame: Optional[Frame], role: str, writable: bool = False) -> _Frame:
    """``frame``'s planes as a ``frame_t``: uint8, 4:2:0, samples of a row
    adjacent in memory (rows may be any stride apart), or ``ValueError``."""
    if frame is None:
        return _Frame()
    planes = (frame.y, frame.cb, frame.cr)
    height, width = frame.y.shape
    chroma = (height // 2, width // 2)
    for plane, shape in zip(planes, ((height, width), chroma, chroma)):
        if plane.dtype != np.uint8 or plane.shape != shape or plane.strides[1] != 1:
            raise ValueError(
                f"{role} frame planes must be uint8 4:2:0 with a unit column stride"
            )
        if writable and not plane.flags.writeable:
            raise ValueError("assignment destination is read-only")
    return _Frame(
        (ctypes.c_void_p * 3)(*[p.ctypes.data for p in planes]),
        (ctypes.c_int64 * 3)(*[p.strides[0] for p in planes]),
        width,
        height,
    )


def execute_plan(
    plan: ReconstructionPlan,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    scratch,
    idct_blocks: int,
) -> None:
    """What ``batch_reconstruct``'s numpy body does with the same arguments
    (``scratch``: its ``ExecuteScratch``; ``idct_blocks``: blocks transformed
    at a time), through the kernel.  Equal frames, or an exception before a
    sample of ``out`` is written."""
    n_mb, n_blocks, n_coefs, n_res = plan.n_macroblocks, plan.n_blocks, plan.n_coefs, plan.n_res
    block_ncoef = _column(plan, "block_ncoef", np.uint8, (n_blocks,))
    block_qscale = _column(plan, "block_qscale", np.int64, (n_blocks,))
    block_res = _column(plan, "block_res", np.int64, (n_blocks,))
    block_slot = _column(plan, "block_slot", np.int64, (n_blocks,))
    coef_scan = _column(plan, "coef_scan", np.uint8, (n_coefs,))
    coef_level = _column(plan, "coef_level", np.int16, (n_coefs,))
    if int(block_ncoef.sum(dtype=np.int64)) != n_coefs:
        raise ValueError(f"plan.block_ncoef does not sum to the {n_coefs} coefficient entries")
    weights = [
        np.ascontiguousarray(w, dtype=np.int64)
        for w in (plan.matrices.intra_scan, plan.matrices.non_intra_scan, RASTER_OF_SCAN)
    ]
    if any(w.shape != (64,) for w in weights):
        raise ValueError("quantiser matrices must have 64 weights")
    mb = [
        _column(plan, name, dtype, (n_mb,) + shape)
        for name, dtype, shape in (
            ("mb_x", np.int64, ()), ("mb_y", np.int64, ()), ("mb_intra", np.bool_, ()),
            ("mb_dir", np.bool_, (2,)), ("mb_mv", np.int64, (2, 2)), ("mb_res_row", np.int64, ()),
        )
    ]
    frames = [_frame(out, "output", writable=True), _frame(fwd, "forward"), _frame(bwd, "backward")]

    res6 = scratch.take("res", (n_res, 6, 8, 8), np.int16)
    # As the numpy body: the rounding writes every residual block when each
    # row has its six, row after row; otherwise uncoded blocks must read zero.
    if n_blocks != 6 * n_res or not np.array_equal(
        block_res * 6 + block_slot, np.arange(n_blocks)
    ):
        res6.fill(0)
    n_piece = min(n_blocks, idct_blocks)
    coeffs = scratch.take("coeffs", (n_piece, 8, 8), np.float64)
    lines = scratch.take("lines", (8 * n_piece, 8), np.float64)
    slots = scratch.take("slots", (n_piece, 8), np.int32)
    used = np.zeros(2, dtype=np.int64)  # lines opened, entries read
    c0 = 0
    for b0 in range(0, n_blocks, idct_blocks):
        b1 = min(b0 + idct_blocks, n_blocks)
        _call(
            LIBRARY.dequantize_place,
            block_ncoef.ctypes.data, block_qscale.ctypes.data, b0, b1, plan.n_intra_blocks,
            coef_scan.ctypes.data, coef_level.ctypes.data, c0, n_coefs,
            *[w.ctypes.data for w in weights], plan.dc_scaler,
            lines.ctypes.data, len(lines), slots.ctypes.data, used.ctypes.data,
        )
        n_lines, n_read = used.tolist()
        c0 += n_read
        columns = lines[:n_lines]
        if n_lines:  # the column pass, over the columns that hold anything
            columns = _transform(columns)
        piece = coeffs[: b1 - b0]
        _call(
            LIBRARY.scatter_lines,
            columns.ctypes.data, n_lines, slots.ctypes.data, b1 - b0, piece.ctypes.data,
        )
        samples = _transform(piece)  # the row pass
        _call(
            LIBRARY.round_store,
            samples.ctypes.data, b0, b1, block_res.ctypes.data, block_slot.ctypes.data,
            n_res, res6.ctypes.data,
        )
    _call(
        LIBRARY.reconstruct,
        n_mb, *[column.ctypes.data for column in mb], res6.ctypes.data, n_res,
        *[ctypes.byref(f) for f in frames],
    )


def _transform(stack: np.ndarray) -> np.ndarray:
    """One pass of the orthonormal 8-point IDCT along the last axis of a
    C-contiguous float64 ``stack``, in its own memory where scipy can; the
    caller reads the returned array."""
    result = scipy.fft.idct(stack, type=2, axis=-1, norm="ortho", overwrite_x=True)
    if result.dtype != np.float64 or not result.flags.c_contiguous:
        raise TypeError("scipy.fft.idct did not return a contiguous float64 array")
    return result
