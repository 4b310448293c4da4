"""The slice walk as native code: build, cache, load and call ``_walk.c``.

``_walk.c`` (beside this file) is the slice loop of
``MacroblockParser.parse_picture`` and :func:`fast_vlc.parse_slice_columns`
ported to C: one foreign call per picture, filling numpy buffers with what
the Python loop appends to its lists.  Importing this module tries to make
it available (:func:`repro.mpeg2.native.load`: the cached library, else a
compile, else nothing).  Without it :data:`LIBRARY` is ``None``,
:data:`STATUS` says why, and the parser drives the Python loop -- the
specification this port is held to, and the only engine on such a platform.

There is no switch: which engine serves is what the process could observe
(:func:`engine` names it for ``repro info`` and the cluster trace).

Every call allocates its own buffers and the kernel keeps no state, so
threads may parse concurrently (ctypes releases the GIL for the call).
"""

from __future__ import annotations

import ctypes
import mmap
import os
from typing import List, Optional, Tuple

import numpy as np

from repro.bitstream import BitstreamError
from repro.mpeg2 import fast_vlc, native, tables as T
from repro.mpeg2.constants import PictureType
from repro.mpeg2.structures import PictureHeader
from repro.mpeg2.vlc import VLCError

_SOURCE = os.path.join(os.path.dirname(__file__), "_walk.c")


def _load() -> Tuple[Optional[ctypes.CDLL], str]:
    """``(the library, its path)``, or ``(None, why there is none)``."""
    return native.load(_SOURCE, "parsing in Python")


class _Lut(ctypes.Structure):
    _fields_ = [("sym", ctypes.c_void_p), ("len", ctypes.c_void_p), ("bits", ctypes.c_int64)]


class _Tables(ctypes.Structure):
    _fields_ = [
        ("lut", _Lut * 6),  # address, type, motion, cbp, DC luma, DC chroma
        ("stride", ctypes.c_char_p * 2),
        ("esc_prefix", ctypes.c_int64),
        ("esc_len", ctypes.c_int64),
    ]


def _tables(picture_type: int) -> _Tables:
    """``fast_vlc``'s tables as ``_walk.c``'s ``tables_t``: pointers into
    arrays and ``bytes`` that module keeps for the life of the process."""
    flat = (
        fast_vlc._FLAT_ADDR, fast_vlc._FLAT_MB_FLAGS[picture_type], fast_vlc._FLAT_MOTION,
        fast_vlc._FLAT_CBP, fast_vlc._FLAT_DC_LUMA, fast_vlc._FLAT_DC_CHROMA,
    )
    luts = [_Lut(sym.ctypes.data, length.ctypes.data, width) for sym, length, width in flat]
    return _Tables(
        (_Lut * 6)(*luts),
        (ctypes.c_char_p * 2)(fast_vlc._STRIDE_T0, fast_vlc._STRIDE_T1),
        *T.DCT_ESCAPE_CODE,
    )


#: The library, or ``None``; and its path, or why there is none
#: (``no compiler`` | ``compile failed: ...`` | ``load failed: ...``).
LIBRARY, STATUS = _load()
#: ``walk_picture``'s parameters: the picture unit, its length and the bit to
#: start at, the tables, ``pic``, the buffers, their capacities, the result.
WALK_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(_Tables),
    ctypes.c_void_p, ctypes.POINTER(ctypes.c_void_p), ctypes.c_void_p, ctypes.c_void_p,
]
if LIBRARY is not None:
    LIBRARY.walk_picture.restype = ctypes.c_int
    LIBRARY.walk_picture.argtypes = WALK_ARGTYPES
    _TABLES = {int(ptype): _tables(int(ptype)) for ptype in PictureType}


def engine() -> str:
    """Which engine parses in this process, and from where or why."""
    return native.engine(LIBRARY, STATUS)


# _walk.c's return codes, from 1: the exception each raise site of the Python
# loop raises and its text (``pos``: a bit position; ``aux``: the slice row,
# or the 16-bit window no coefficient code matches).
_ERRORS = (
    (BitstreamError, "slice row {aux} beyond picture height"),
    (BitstreamError, "slice quantiser_scale_code of zero"),
    (BitstreamError, "extra_information_slice unsupported"),
    (BitstreamError, "macroblock address beyond slice row"),
    (VLCError, "no address-increment code matches at bit {pos}"),
    (BitstreamError, fast_vlc._PAST_END),
    (VLCError, "no macroblock_type code matches at bit {pos}"),
    (BitstreamError, "quantiser_scale_code of zero"),
    (VLCError, "no motion code matches at bit {pos}"),
    (ValueError, "negative shift count"),
    (VLCError, "no coded_block_pattern code matches at bit {pos}"),
    (VLCError, "no dct_dc_size code matches at bit {pos}"),
    (VLCError, "escape-coded level of zero"),
    (VLCError, "no DCT coefficient code matches bits {aux:016b} at bit {pos}"),
    # not a property of the stream: the bound in ``_buffers`` would be wrong
    (RuntimeError, "native walk: output buffer {aux} full at bit {pos}"),
)


def _buffers(nbits: int) -> List[np.ndarray]:
    """Fresh int64 output buffers for a picture unit of ``nbits`` bits:
    rows, skips, mvd, entries, t1_spans, slices.

    Sized by bits, not by the raster: a stream may code a slice row any
    number of times, so the macroblock count bounds nothing, but every
    record is paid for in bits of the unit, which the walk reads once, front
    to back (a few past the end at most -- the slack).  A motion delta is a
    code of at least one bit.  An entry is a DC size code, a ``1s`` first
    coefficient or a window whose whole symbols the cursor passes -- two
    bits at least -- or the two entries of a 24-bit escape.  A coded
    macroblock is an increment and a type, a bit each at least, and what its
    type calls for: two motion codes, a pattern code (three bits) or six DC
    sizes -- four bits; it brings at most one skipped run and two table-one
    span marks.  A slice is a 32-bit start code.  The kernel still checks
    every write against the capacity it is given.

    That is 40 bytes of address space per bit, of which a picture touches a
    few percent -- so the pages come from an anonymous ``mmap``, not from
    ``np.empty``: untouched they cost nothing, and they go back to the
    kernel with the call.  (Through ``malloc``, freeing a block this size
    raises glibc's mmap threshold to it, every smaller numpy temporary of
    the process then comes from the heap and stays there, and resident
    memory grows by tens of MB.)
    """
    macroblocks = nbits // 4 + 4
    words = (
        fast_vlc.ROW_WIDTH * macroblocks,
        fast_vlc.SKIP_WIDTH * macroblocks,
        nbits + 16,
        nbits // 2 + 16,
        2 * macroblocks,
        fast_vlc.SLICE_WIDTH * (nbits // 32 + 1),
    )
    pages = mmap.mmap(-1, 8 * sum(words), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    whole, buffers, start = np.frombuffer(pages, dtype=np.int64), [], 0
    for n in words:
        buffers.append(whole[start : start + n])
        start += n
    return buffers


def _prepare(data: bytes, pos: int, picture: PictureHeader, mb_width: int, mb_height: int):
    """``walk_picture``'s arguments for picture unit ``data`` from bit
    ``pos``; the output buffers and the result words among them; and the
    arrays the pointers point into, which the caller keeps for the call."""
    if pos < 0:
        raise ValueError("negative bit position")  # the kernel trusts it
    view = np.frombuffer(data, dtype=np.uint8)
    buffers = _buffers(8 * len(view))
    if any(b.dtype != np.int64 or not b.flags.c_contiguous for b in buffers):
        raise TypeError("output buffers must be contiguous int64")
    skip_flags = fast_vlc.MB_SKIPPED | (
        fast_vlc.MB_FORWARD if picture.picture_type == PictureType.P else 0
    )
    r_sizes = [f - 1 for direction in picture.f_code for f in direction]
    pic = np.array(
        [mb_width, mb_height, skip_flags, picture.intra_vlc_format == 1, *r_sizes], dtype=np.int64
    )
    capacity = np.array([len(b) for b in buffers], dtype=np.int64)
    result = np.zeros(len(buffers) + 2, dtype=np.int64)
    arguments = (
        view.ctypes.data, len(view), pos, _TABLES[picture.picture_type], pic.ctypes.data,
        (ctypes.c_void_p * len(buffers))(*[b.ctypes.data for b in buffers]),
        capacity.ctypes.data, result.ctypes.data,
    )
    return arguments, buffers, result, (view, pic, capacity)


def error(code: int, result: np.ndarray) -> Exception:
    """The exception the Python loop raises where the kernel returned
    ``code`` (from 1), from the position and detail in its result words."""
    exception, text = _ERRORS[code - 1]
    error_pos, aux = result[-2:].tolist()
    return exception(text.format(pos=error_pos, aux=aux))


def walk_picture(
    data: bytes, pos: int, picture: PictureHeader, mb_width: int, mb_height: int
) -> Tuple[fast_vlc.ColumnArrays, Optional[Exception]]:
    """Walk the slices of picture unit ``data`` from bit ``pos``, the first
    after its headers.  Returns what was recorded and, if the walk stopped
    at an error, the exception the Python loop raises there (the records
    then end where its lists would)."""
    arguments, buffers, result, _alive = _prepare(data, pos, picture, mb_width, mb_height)
    code = LIBRARY.walk_picture(*arguments)
    rows, skips, mvd, entries, t1_spans, slices = (
        b[:n] for b, n in zip(buffers, result.tolist())
    )
    lists = fast_vlc.ColumnArrays(
        rows=rows.reshape(-1, fast_vlc.ROW_WIDTH),
        skips=skips.reshape(-1, fast_vlc.SKIP_WIDTH),
        mvd=mvd,
        entries=entries,
        t1_spans=t1_spans,
        slices=slices.reshape(-1, fast_vlc.SLICE_WIDTH),
    )
    return lists, error(code, result) if code else None
