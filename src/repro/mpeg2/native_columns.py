"""Columns and plans as native code: build, cache, load and call ``_columns.c``.

``_columns.c`` (beside this file) is what numpy does between the slice
walk's records and the execute phase, ported to C as the serial passes the
standard describes:

- :func:`parse_picture` -- :func:`fast_vlc.expand_entries` and
  ``parser._columns``, chained behind the slice walk *inside one foreign
  call*: the kernel is handed ``_walk.c``'s ``walk_picture`` and its
  arguments, runs it, and turns its records into columns without their ever
  visiting the interpreter (:func:`columns` is the same pass over records
  that are already arrays -- the differential tests' entry);
- :func:`build_plan` -- ``plan.check_staging`` and ``plan.assemble_plan`` in
  one call, for all rows or any ascending selection of them;
- :func:`check_vectors` -- the tests of ``plan._check_vectors``, for a plan
  that arrived off the wire.

The kernel allocates nothing.  Each job counts first, checking every record
it will follow, then calls back once for arrays of exactly the counted
sizes (:func:`_empty`, which the memory-safety tests replace with a guarded
allocator) and writes each element once.

Importing this module tries to make the kernel available
(:func:`repro.mpeg2.native.load`).  Without it :data:`LIBRARY` is ``None``,
:data:`STATUS` says why, and ``parser`` and ``plan`` run their numpy bodies
-- the specification this port is held to.  There is no switch
(:func:`engine` names what serves).  The kernel keeps no state and every
array is the caller's, so threads may call concurrently (ctypes releases the
GIL for the calls).
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.bitstream import BitstreamError
from repro.mpeg2 import fast_vlc, native, native_walk
from repro.mpeg2.constants import PictureType
from repro.mpeg2.structures import PictureHeader

_SOURCE = os.path.join(os.path.dirname(__file__), "_columns.c")


def _load() -> Tuple[Optional[ctypes.CDLL], str]:
    """``(the library, its path)``, or ``(None, why there is none)``."""
    return native.load(_SOURCE, "building columns and plans in numpy")


_P, _I = ctypes.c_void_p, ctypes.c_int64
#: ``_columns.c``'s ``alloc_fn``: counts in, array addresses out, 0 or failure.
_ALLOC = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_I), ctypes.POINTER(_P))


class _Columns(ctypes.Structure):
    """``_columns.c``'s ``columns_t``: ``fast_vlc``'s symbol tables and entry
    encoding, then one picture's parameters."""

    _fields_ = [
        ("count", _P), ("sym", _P),
        ("n_rows", _I), ("max_syms", _I), ("table_rows", _I),
        ("direct", _I), ("direct_dc", _I), ("level_shift", _I),
        ("overrun_first", _I),
        ("p_picture", _I), ("dc_reset", _I),
        ("f16", _I * 4),
    ]


class _Picture(ctypes.Structure):
    """``_columns.c``'s ``picture_t``: a parsed picture's columns, the rows
    to plan, and the raster to hold them to."""

    _fields_ = [
        ("n_mb", _I), ("n_blocks", _I), ("n_coefs", _I),
        ("address", _P), ("intra", _P), ("motion", _P), ("mv", _P), ("qscale_code", _P),
        ("first_block", _P), ("n_blocks_of", _P), ("block_slot", _P), ("block_ncoef", _P),
        ("coef_pos", _P), ("coef_level", _P),
        ("idx", _P), ("n_idx", _I),
        ("p_picture", _I), ("mb_width", _I), ("mb_height", _I),
        ("check", _I), ("width", _I), ("height", _I),
        ("qscale", _P), ("n_qscale", _I),
    ]


#: The library, or ``None``; and its path, or why there is none
#: (``no compiler`` | ``compile failed: ...`` | ``load failed: ...``).
LIBRARY, STATUS = _load()
if LIBRARY is not None:
    for _name, _argtypes in (
        ("parse_picture", [_P, *native_walk.WALK_ARGTYPES, ctypes.POINTER(_Columns), _ALLOC, _P]),
        ("build_plan", [ctypes.POINTER(_Picture), _ALLOC, _P]),
        ("check_vectors", [_I, _P, _P, _P, _P, _P, _I, _I, _I, _I, _P]),
    ):
        getattr(LIBRARY, _name).restype = ctypes.c_int
        getattr(LIBRARY, _name).argtypes = _argtypes
    # the walk errors (codes from 1) that let an earlier run overrun out first
    _OVERRUN_FIRST = sum(
        1 << code
        for code, (exception, _text) in enumerate(native_walk._ERRORS, 1)
        if issubclass(exception, BitstreamError)
    )
    _WALK = ctypes.cast(native_walk.LIBRARY.walk_picture, _P) if native_walk.LIBRARY else None
    # What the counting pass reads, one word a table row: the levels the row
    # holds (three bits: at most ``_SYM.shape[1]``, five), whether it closes
    # its block, and from bit 4 the scan positions its levels advance by.
    _ADVANCES = fast_vlc._SYM.view(np.int8).reshape(len(fast_vlc._SYM), -1, 2)[:, :, 1]
    _COUNT = (
        fast_vlc._NSYM | fast_vlc._EOB.astype(np.uint16) << 3 | _ADVANCES.sum(axis=1, dtype=np.uint16) << 4
    ).astype(np.uint16)
    if fast_vlc._NSYM.max() > min(7, fast_vlc._SYM.shape[1]):
        raise AssertionError("a table row holds more levels than its count word or _SYM has room for")


def engine() -> str:
    """Which engine builds columns and plans in this process, and from
    where or why."""
    return native.engine(LIBRARY, STATUS)


# _columns.c's return codes above the walk's, and the records its REFUSED
# names.  A refusal is a record no walk writes: where numpy would have
# indexed out of range (or quietly wrapped), a ``ValueError`` naming it.
_OVERRUN_INTRA, _OVERRUN, _REFUSED, _NO_MEMORY, _STAGING, _MB_X_RANGE, _MB_Y_RANGE = range(32, 39)
_FIELDS = (
    "rows.address", "rows.flags", "rows.qscale_code", "rows.cbp", "rows bit extents",
    "skips.at", "skips.address", "skips.count", "skips.flags", "skips.qscale_code", "mvd",
    "entries", "t1_spans", "slices.row", "slices.qscale_code", "slices.end",
    "blocks named by rows.cbp", "record count of buffer", "idx", "columns.first_block",
    "columns.n_blocks", "columns.block_ncoef", "columns.qscale_code",
)

# What parse_picture's callback allocates, in the order of _columns.c's C_*
# enum: field, entries per (macroblock | block | level), dtype.
_MB, _BLOCK, _COEF = range(3)
_LEAN_ARRAYS = (
    ("address", _MB, (), np.int64), ("qscale_code", _MB, (), np.int64), ("cbp", _MB, (), np.int64),
    ("bit_start", _MB, (), np.int64), ("body_start", _MB, (), np.int64),
    ("bit_end", _MB, (), np.int64), ("slice_row", _MB, (), np.int64),
    ("slice_index", _MB, (), np.int64), ("first_block", _MB, (), np.int64),
    ("n_blocks", _MB, (), np.int64), ("skipped", _MB, (), np.bool_), ("intra", _MB, (), np.bool_),
    ("pattern", _MB, (), np.bool_), ("quant", _MB, (), np.bool_), ("motion", _MB, (2,), np.bool_),
    ("mv", _MB, (2, 2), np.int64), ("block_slot", _BLOCK, (), np.int64),
    ("block_ncoef", _BLOCK, (), np.int64), ("coef_pos", _COEF, (), np.int64),
    ("coef_level", _COEF, (), np.int32),
)
_STATE_ARRAYS = (
    ("state.qscale_code", _MB, (), np.int64), ("state.dc_pred", _MB, (3,), np.int64),
    ("state.pmv", _MB, (2, 2), np.int64), ("state.prev_dir", _MB, (2,), np.bool_),
)
# ... and build_plan's, in the order of its P_* enum
_PLAN_ARRAYS = (
    ("mb_x", _MB, (), np.int64), ("mb_y", _MB, (), np.int64), ("mb_res_row", _MB, (), np.int64),
    ("mb_dir", _MB, (2,), np.bool_), ("mb_intra", _MB, (), np.bool_), ("mb_mv", _MB, (2, 2), np.int64),
    ("block_ncoef", _BLOCK, (), np.uint8), ("block_qscale", _BLOCK, (), np.int64),
    ("block_res", _BLOCK, (), np.int64), ("block_slot", _BLOCK, (), np.int64),
    ("coef_scan", _COEF, (), np.uint8), ("coef_level", _COEF, (), np.int16),
)

#: How the callbacks allocate; the memory-safety tests house every block in
#: guard words through this name.
_empty = np.empty


def _layout(spec) -> tuple:
    """``spec``'s arrays (``None``: one the job does not fill) grouped into
    the blocks they are allocated as, one per item kind and dtype: ``(kind,
    dtype, entries per item, ((position in spec, name, tail, entries per
    item), ...))``."""
    groups: Dict[tuple, list] = {}
    for k, entry in enumerate(spec):
        if entry is not None:
            name, per, tail, dtype = entry
            groups.setdefault((per, np.dtype(dtype)), []).append((k, name, tail, int(np.prod(tail))))
    return tuple(
        (per, dtype, sum(width for *_, width in fields), tuple(fields))
        for (per, dtype), fields in groups.items()
    )


class _Allocator:
    """One call's ``alloc_fn``: allocates a :func:`_layout`'s blocks for the
    counts the kernel found, keeps the arrays (views of the blocks) and the
    counts, and hands the kernel the arrays' addresses."""

    def __init__(self, layout) -> None:
        self.layout = layout
        self.arrays: Dict[str, np.ndarray] = {}
        self.counts: Tuple[int, ...] = ()
        self.failure: Optional[BaseException] = None

    def __call__(self, counts, out) -> int:
        try:  # nothing may propagate into the kernel's frame
            self.counts = tuple(counts[:5])
            for per, dtype, widths, fields in self.layout:
                n = self.counts[per]
                block = _empty(n * widths, dtype)
                address, start = block.ctypes.data, 0
                for k, name, tail, width in fields:
                    array = block[start : start + n * width]
                    self.arrays[name] = array.reshape((n,) + tail) if tail else array
                    out[k] = address + start * dtype.itemsize
                    start += n * width
            return 0
        except BaseException as exc:  # noqa: BLE001 - re-raised by ``failed``
            self.failure = exc
            return 1

    def failed(self) -> BaseException:
        """What to raise for the kernel's ``NO_MEMORY``."""
        return self.failure or MemoryError("native columns: no arrays")


_LEAN_LAYOUT, _FULL_LAYOUT = _layout(_LEAN_ARRAYS), _layout(_LEAN_ARRAYS + _STATE_ARRAYS)
_ROWS_LAYOUT = _layout(_PLAN_ARRAYS)  # a selection of rows: the plan owns every array
_PICTURE_LAYOUT = _layout(  # all rows: mb_intra and mb_mv are the columns' own
    tuple(None if entry[0] in ("mb_intra", "mb_mv") else entry for entry in _PLAN_ARRAYS)
)


class StagingRefusal(Exception):
    """The staging check refused macroblock ``row`` of the columns: for the
    caller to raise about, in ``validate_mv``'s words."""

    def __init__(self, row: int) -> None:
        super().__init__(row)
        self.row = row


def _refusal(err) -> ValueError:
    field, index = err[0], err[1]
    return ValueError(f"native columns: {_FIELDS[field]} refused at record {index}")


def _f16(picture: PictureHeader):
    return [16 << max(f - 1, 0) for direction in picture.f_code for f in direction]


def _parse(walk, arguments, result, picture: PictureHeader, lean: bool) -> Dict[str, np.ndarray]:
    """``LIBRARY.parse_picture`` over a walk's ``arguments`` (``result``: the
    result words among them) and its outcome: the columns by name, or the
    exception the Python engines raise."""
    parameters = _Columns(
        _COUNT.ctypes.data, fast_vlc._SYM.ctypes.data,
        len(fast_vlc._NSYM), fast_vlc._SYM.shape[1], fast_vlc._TABLE_ROWS,
        fast_vlc._DIRECT, fast_vlc._DIRECT_DC, fast_vlc._LEVEL_SHIFT,
        _OVERRUN_FIRST,
        picture.picture_type == PictureType.P, picture.dc_reset,
        (_I * 4)(*_f16(picture)),
    )
    allocator = _Allocator(_LEAN_LAYOUT if lean else _FULL_LAYOUT)
    err = (_I * 2)()
    callback = _ALLOC(allocator)  # kept until the call returns
    code = LIBRARY.parse_picture(
        walk, *arguments, ctypes.byref(parameters), callback, ctypes.addressof(err)
    )
    if not code:
        return allocator.arrays
    if code < _OVERRUN_INTRA:
        raise native_walk.error(code, result)
    if code in (_OVERRUN_INTRA, _OVERRUN):
        raise BitstreamError("AC run overruns block" if code == _OVERRUN_INTRA else "run overruns block")
    raise allocator.failed() if code == _NO_MEMORY else _refusal(err)


def _raster(mb_width: int, mb_height: int) -> None:
    if not 0 < mb_width < 1 << 16 or not 0 < mb_height < 1 << 16:
        raise ValueError("raster is not 1-65535 macroblocks a side")  # the kernel multiplies them


def parse_picture(
    data: bytes, pos: int, picture: PictureHeader, mb_width: int, mb_height: int, lean: bool
) -> Dict[str, np.ndarray]:
    """Walk picture unit ``data`` from bit ``pos`` (the first after its
    headers) and return its columns -- ``PictureColumns``' fields by name,
    ``state.*`` among them unless ``lean`` -- in one foreign call; or raise
    what ``_walk_python`` + ``fast_vlc.expand_entries`` + ``parser._columns``
    raise, the first error in stream order."""
    _raster(mb_width, mb_height)
    arguments, _records, result, _alive = native_walk._prepare(data, pos, picture, mb_width, mb_height)
    return _parse(_WALK, arguments, result, picture, lean)


def columns(
    lists: fast_vlc.ColumnArrays,
    unit_bytes: int,
    picture: PictureHeader,
    mb_width: int,
    mb_height: int,
    lean: bool,
    written=None,
    capacity=None,
) -> Dict[str, np.ndarray]:
    """``parser._columns`` over records that are arrays already (either
    walk's ``ColumnArrays`` of a picture unit ``unit_bytes`` long): the pass
    :func:`parse_picture` chains behind the walk, entered without one.
    ``written`` / ``capacity``: the words each record buffer is said to hold
    and to have room for (default: what it does) -- the memory-safety tests
    lie about them."""
    _raster(mb_width, mb_height)
    if not 0 <= unit_bytes < 1 << 40:
        raise ValueError("a picture unit of a terabyte or of less than nothing")  # the kernel counts its bits
    names = ("rows", "skips", "mvd", "entries", "t1_spans", "slices")
    buffers = [np.ascontiguousarray(getattr(lists, name), dtype=np.int64).reshape(-1) for name in names]
    sizes = [len(b) for b in buffers]
    result = np.array([*(sizes if written is None else written), 0, 0], dtype=np.int64)
    room = np.array(sizes if capacity is None else capacity, dtype=np.int64)
    pic = np.array([mb_width, mb_height], dtype=np.int64)
    arguments = (
        None, unit_bytes, 0, None, pic.ctypes.data,
        (_P * len(buffers))(*[b.ctypes.data for b in buffers]),
        room.ctypes.data, result.ctypes.data,
    )
    return _parse(None, arguments, result, picture, lean)


def _input(array, dtype, shape: Tuple[int, ...], name: str) -> np.ndarray:
    """``array`` as a C-contiguous ``dtype`` array of exactly ``shape`` the
    kernel can walk (itself when it already is one: every array either parse
    engine or the plan codec produces)."""
    array = np.ascontiguousarray(array, dtype=dtype)
    if not array.flags.aligned:  # a view at an odd offset of a wire payload
        array = array.copy()
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array


def build_plan(
    c,
    p_picture: bool,
    mb_width: int,
    mb_height: int,
    idx: Optional[np.ndarray],
    raster: Optional[Tuple[int, int]],
    qscale_of_code: np.ndarray,
) -> Tuple[Dict[str, np.ndarray], int, int]:
    """``plan.assemble_plan`` over rows ``idx`` (ascending; ``None``: all) of
    columns ``c`` -- after ``plan.check_staging`` against the ``(width,
    height)`` ``raster``, unless that is ``None`` -- in one foreign call.
    Returns the plan's arrays by name (``mb_intra`` and ``mb_mv`` only for a
    selection: a plan of all rows shares the columns' own, as numpy's does),
    ``n_intra_blocks`` and ``n_res``; or raises :class:`StagingRefusal` with
    the row of the first macroblock the staging check refuses."""
    _raster(mb_width, mb_height)
    n_mb, n_blocks, n_coefs = len(c.address), len(c.block_slot), len(c.coef_pos)
    inputs = [
        _input(getattr(c, name), dtype, (count,) + tail, f"columns.{name}")
        for name, count, tail, dtype in (
            ("address", n_mb, (), np.int64), ("intra", n_mb, (), np.bool_),
            ("motion", n_mb, (2,), np.bool_), ("mv", n_mb, (2, 2), np.int64),
            ("qscale_code", n_mb, (), np.int64), ("first_block", n_mb, (), np.int64),
            ("n_blocks", n_mb, (), np.int64), ("block_slot", n_blocks, (), np.int64),
            ("block_ncoef", n_blocks, (), np.int64), ("coef_pos", n_coefs, (), np.int64),
            ("coef_level", n_coefs, (), np.int32),
        )
    ]
    if idx is not None:
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"idx has shape {idx.shape}, expected one axis")
    qscale = _input(qscale_of_code, np.int64, (len(qscale_of_code),), "the quantiser scale table")
    picture = _Picture(
        n_mb, n_blocks, n_coefs, *[a.ctypes.data for a in inputs],
        None if idx is None else idx.ctypes.data, 0 if idx is None else len(idx),
        p_picture, mb_width, mb_height,
        raster is not None, *(raster or (0, 0)),
        qscale.ctypes.data, len(qscale),
    )
    allocator = _Allocator(_PICTURE_LAYOUT if idx is None else _ROWS_LAYOUT)
    err = (_I * 2)()
    callback = _ALLOC(allocator)  # kept until the call returns
    code = LIBRARY.build_plan(ctypes.byref(picture), callback, ctypes.addressof(err))
    if code == _STAGING:
        raise StagingRefusal(err[1])
    if code:
        raise allocator.failed() if code == _NO_MEMORY else _refusal(err)
    return allocator.arrays, allocator.counts[3], allocator.counts[4]


def check_vectors(
    mb_x: np.ndarray,
    mb_y: np.ndarray,
    intra: np.ndarray,
    mb_dir: np.ndarray,
    mb_mv: np.ndarray,
    frame_width: int,
    frame_height: int,
) -> Optional[int]:
    """The test of ``plan._check_vectors`` with its arguments: the first
    macroblock it refuses, or ``None``.  Macroblocks outside the raster --
    which that function trusts its caller to have excluded -- are a
    ``ValueError`` here, in ``plan.check_plan``'s words."""
    n = len(mb_x)
    mb_width, mb_height = frame_width // 16, frame_height // 16
    arrays = [
        _input(array, dtype, (n,) + tail, f"plan.{name}")
        for name, array, tail, dtype in (
            ("mb_x", mb_x, (), np.int64), ("mb_y", mb_y, (), np.int64),
            ("mb_intra", intra, (), np.bool_), ("mb_dir", mb_dir, (2,), np.bool_),
            ("mb_mv", mb_mv, (2, 2), np.int64),
        )
    ]
    err = (_I * 2)()
    code = LIBRARY.check_vectors(
        n, *[a.ctypes.data for a in arrays], mb_width, mb_height, frame_width, frame_height,
        ctypes.addressof(err),
    )
    if code == _MB_X_RANGE:
        raise ValueError(f"plan.mb_x outside [0, {mb_width})")
    if code == _MB_Y_RANGE:
        raise ValueError(f"plan.mb_y outside [0, {mb_height})")
    return err[0] if code else None
