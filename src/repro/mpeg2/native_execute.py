"""The execute phase as native code: build, cache, load and call ``_execute.c``.

``_execute.c`` (beside this file) is the numpy body of
:func:`repro.mpeg2.batch_reconstruct.execute_plan` ported to C so that every
sample is written once, in **one foreign call per picture**
(:func:`execute_plan`): the sparse dequantisers write each coded block into
an int32 block on the stack, the integer IDCT that :func:`repro.mpeg2.dct.idct`
defines turns it into its int16 residual, and then every macroblock is
predicted straight from the reference planes, its residual added, clipped
and stored.  :func:`idct` is the same transform over a stack of blocks (the
entry ``dct.idct`` binds to where the kernel loaded).

Importing this module tries to make the kernel available
(:func:`repro.mpeg2.native.load`); :mod:`repro.mpeg2.dct` and
:mod:`repro.mpeg2.batch_reconstruct` import it, so a process that never
transforms a block never builds or maps it.  Without it :data:`LIBRARY` is
``None``, :data:`STATUS` says why, and ``execute_plan`` runs its numpy body
-- the specification this port is held to.  There is no switch
(:func:`engine` names what serves).

The kernel dereferences no index it has not range-checked; an error code
comes back as the exception below.  It keeps no state and every buffer is
the caller's (:class:`~repro.mpeg2.batch_reconstruct.ExecuteScratch`, the
frame planes), so threads may execute concurrently, each with its own
scratch (ctypes releases the GIL for the call).
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional, Tuple

import numpy as np

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


#: ``plan_t``'s arrays, in its order.
_PLAN_ARRAYS = (
    "block_ncoef", "block_qscale", "block_res", "block_slot", "coef_scan", "coef_level",
    "intra_scan", "non_intra_scan", "raster_of_scan",
    "mb_x", "mb_y", "mb_intra", "mb_dir", "mb_mv", "mb_res_row",
)


class _Plan(ctypes.Structure):
    """``_execute.c``'s ``plan_t``: a plan's lengths and its columns."""

    _fields_ = [
        *[(n, ctypes.c_int64) for n in ("n_blocks", "n_intra", "n_coefs", "n_res", "n_mb", "dc_scaler")],
        *[(n, ctypes.c_void_p) for n in _PLAN_ARRAYS],
    ]


#: The library, or ``None``; and its path, or why there is none
#: (``no compiler`` | ``compile failed: ...`` | ``load failed: ...``).
LIBRARY, STATUS = _load()
if LIBRARY is not None:
    _P, _I = ctypes.c_void_p, ctypes.c_int64
    LIBRARY.execute.restype = LIBRARY.idct.restype = ctypes.c_int64
    LIBRARY.execute.argtypes = [ctypes.POINTER(_Plan), _P, *[ctypes.POINTER(_Frame)] * 3, _P]
    LIBRARY.idct.argtypes = [_P, _I, _P, _P]


def engine() -> str:
    """Which engine executes plans in this process, and from where or why."""
    return native.engine(LIBRARY, STATUS)


# _execute.c's return codes, from 1 (``at``: the block, entry, scan position
# or macroblock).  A missing direction or reference is the numpy body's
# ``ValueError``; an index a plan must not hold is an ``IndexError`` naming
# its field.
_ERRORS = (
    (ValueError, "plan.block_ncoef overruns the coefficient entries at block {at}"),
    (IndexError, "plan.coef_scan outside [0, 64) at entry {at}"),
    (IndexError, "RASTER_OF_SCAN outside [0, 64) at scan position {at}"),
    (IndexError, "plan.block_res outside [0, n_res) at block {at}"),
    (IndexError, "plan.block_slot outside [0, 6) at block {at}"),
    (IndexError, "plan.mb_x outside the raster at macroblock {at}"),
    (IndexError, "plan.mb_y outside the raster at macroblock {at}"),
    (IndexError, "plan.mb_res_row outside [-1, n_res) at macroblock {at}"),
    (ValueError, "prediction requested with no motion vectors"),
    (ValueError, "prediction requested without forward reference"),
    (ValueError, "prediction requested without backward reference"),
    (IndexError, "plan.mb_mv reads outside the reference planes at macroblock {at}"),
    (ValueError, "IDCT input outside the 12-bit coefficient range in block {at}"),
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


def _plan_t(plan: ReconstructionPlan) -> Tuple[_Plan, dict]:
    """``plan`` as a ``plan_t``, and the arrays it points into (which must
    outlive the call), or ``ValueError`` for a column of the wrong length."""
    n_mb, n_blocks, n_coefs, n_res = plan.n_macroblocks, plan.n_blocks, plan.n_coefs, plan.n_res
    columns = {
        name: _column(plan, name, dtype, shape)
        for name, dtype, shape in (
            ("block_ncoef", np.uint8, (n_blocks,)), ("block_qscale", np.int64, (n_blocks,)),
            ("block_res", np.int64, (n_blocks,)), ("block_slot", np.int64, (n_blocks,)),
            ("coef_scan", np.uint8, (n_coefs,)), ("coef_level", np.int16, (n_coefs,)),
            ("mb_x", np.int64, (n_mb,)), ("mb_y", np.int64, (n_mb,)),
            ("mb_intra", np.bool_, (n_mb,)), ("mb_dir", np.bool_, (n_mb, 2)),
            ("mb_mv", np.int64, (n_mb, 2, 2)), ("mb_res_row", np.int64, (n_mb,)),
        )
    }
    if int(columns["block_ncoef"].sum(dtype=np.int64)) != n_coefs:
        raise ValueError(f"plan.block_ncoef does not sum to the {n_coefs} coefficient entries")
    tables = (plan.matrices.intra_scan, plan.matrices.non_intra_scan, RASTER_OF_SCAN)
    for name, table in zip(("intra_scan", "non_intra_scan", "raster_of_scan"), tables):
        columns[name] = np.ascontiguousarray(table, dtype=np.int64)
        if columns[name].shape != (64,):
            raise ValueError("quantiser matrices must have 64 weights")
    struct = _Plan(
        n_blocks, plan.n_intra_blocks, n_coefs, n_res, n_mb, plan.dc_scaler,
        *[columns[name].ctypes.data for name in _PLAN_ARRAYS],
    )
    return struct, columns


def execute_plan(
    plan: ReconstructionPlan,
    out: Frame,
    fwd: Optional[Frame],
    bwd: Optional[Frame],
    scratch,
) -> None:
    """What ``batch_reconstruct``'s numpy body does with the same arguments
    (``scratch``: its ``ExecuteScratch``), in one call of the kernel.  Equal
    frames, or an exception before a sample of ``out`` is written."""
    struct, _columns = _plan_t(plan)
    frames = [_frame(out, "output", writable=True), _frame(fwd, "forward"), _frame(bwd, "backward")]
    res6 = scratch.take("res", (plan.n_res, 6, 8, 8), np.int16)
    _call(
        LIBRARY.execute,
        ctypes.byref(struct), res6.ctypes.data, *[ctypes.byref(f) for f in frames],
    )


def idct(coeffs: np.ndarray, out: np.ndarray, scratch=None) -> None:
    """:func:`repro.mpeg2.dct.idct`'s transform through the kernel: integer
    ``(..., 8, 8)`` coefficients into the C-contiguous int16 ``out`` of the
    same shape, or ``ValueError`` for a coefficient outside the 12-bit
    range.  (``scratch`` is the numpy body's; the kernel keeps its working
    block on the stack.)"""
    blocks = np.ascontiguousarray(coeffs, dtype=np.int64)
    _call(LIBRARY.idct, blocks.ctypes.data, blocks.size // 64, out.ctypes.data)
