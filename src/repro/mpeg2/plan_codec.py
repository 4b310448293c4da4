"""Binary wire codec for splitter-compiled reconstruction plans.

When plan shipping is on, a second-level splitter parses a picture once,
compiles each tile's share into a :class:`ReconstructionPlan`, and ships
the plan itself — the tile decoder never sees bitstream bytes and never
runs VLC.  This module defines the wire format: a fixed little-endian
header (:data:`PLAN_WIRE_VERSION` first) followed by the plan's arrays as
raw ndarray buffers in a fixed order.

Encoding returns a list of buffers (header ``bytes`` + one ``memoryview``
per array) so the socket layer can write them with no intermediate copy;
decoding wraps the received payload with ``np.frombuffer`` views —
zero-copy, read-only, which is safe because ``execute_plan`` only reads
plan arrays.  Quantiser matrices are *not* shipped: both sides derive them
from the sequence header (``QuantMatrices.from_sequence``), so the decoder
injects its own copy at decode time.

See DESIGN.md §9 for the byte-level layout diagram.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.mpeg2.constants import SLICE_START_CODE_MAX, PictureType
from repro.mpeg2.plan import QuantMatrices, ReconstructionPlan

#: Bump on any layout change; decoders reject every other version.
#: 2: sparse coefficients (per-block entry counts + scan position / level
#: per nonzero entry) replace v1's dense ``(n_blocks, 64)`` int32 rows.
PLAN_WIRE_VERSION = 2

# version u8 | picture_type u8 | dc_scaler u8 | pad u8 | tile u16 |
# mb_width u16 | picture_index i32 | n_mb u32 | n_blocks u32 |
# n_intra_blocks u32 | n_res u32 | n_coded u32 | n_skipped u32 | n_coefs u32
_HEAD = "<BBBxHHiIIIIIII"
_HEAD_SIZE = struct.calcsize(_HEAD)

#: Array order on the wire — (attribute, dtype, items per entry, which
#: header count it is sized by).  Widest dtype first, so every array is
#: naturally aligned relative to the start of the record.
_ARRAYS: Tuple[Tuple[str, type, Tuple[int, ...], str], ...] = (
    ("block_qscale", np.int64, (), "n_blocks"),
    ("block_res", np.int64, (), "n_blocks"),
    ("block_slot", np.int64, (), "n_blocks"),
    ("mb_x", np.int64, (), "n_mb"),
    ("mb_y", np.int64, (), "n_mb"),
    ("mb_mv", np.int64, (2, 2), "n_mb"),
    ("mb_res_row", np.int64, (), "n_mb"),
    ("coef_level", np.int16, (), "n_coefs"),
    ("coef_scan", np.uint8, (), "n_coefs"),
    ("block_ncoef", np.uint8, (), "n_blocks"),
    ("mb_intra", np.bool_, (), "n_mb"),
    ("mb_dir", np.bool_, (2,), "n_mb"),
)


def _entry_bytes(count_name: str) -> int:
    return sum(
        math.prod(shape) * np.dtype(dtype).itemsize
        for _name, dtype, shape, sized_by in _ARRAYS
        if sized_by == count_name
    )


_MB_BYTES = _entry_bytes("n_mb")
_BLOCK_BYTES = _entry_bytes("n_blocks")
_COEF_BYTES = _entry_bytes("n_coefs")
# The record carries no picture height; the macroblock rows slice start
# codes can number is the only bound on ``mb_y`` known here.
_MAX_MB_ROWS = SLICE_START_CODE_MAX

Buffers = List[Union[bytes, memoryview]]


def _require_little_endian() -> None:
    # The arrays go on the wire in host order; the format pins little
    # endian, which every supported platform satisfies.  Fail loudly
    # rather than silently byte-swap on an exotic host.
    if sys.byteorder != "little":
        raise NotImplementedError("plan wire codec requires a little-endian host")


@dataclass
class TilePlan:
    """One tile's compiled share of a picture, as shipped by a splitter.

    Carries the counts a decoder needs for stats (a plan has no notion of
    skipped macroblocks — they are plain prediction entries) and, after
    decode, how many payload bytes the plan occupied on the wire.
    """

    picture_index: int
    tile: int
    picture_type: PictureType
    n_coded: int
    n_skipped: int
    plan: ReconstructionPlan
    wire_bytes: int = 0


def encode_plan(tp: TilePlan) -> Buffers:
    """Encode to a buffer list: header bytes + one memoryview per array."""
    _require_little_endian()
    p = tp.plan
    head = struct.pack(
        _HEAD,
        PLAN_WIRE_VERSION,
        int(p.picture_type),
        p.dc_scaler,
        tp.tile,
        p.mb_width,
        tp.picture_index,
        p.n_macroblocks,
        p.n_blocks,
        p.n_intra_blocks,
        p.n_res,
        tp.n_coded,
        tp.n_skipped,
        p.n_coefs,
    )
    bufs: Buffers = [head]
    for name, dtype, _shape, _sized_by in _ARRAYS:
        arr = getattr(p, name)
        if arr.dtype != dtype:
            raise ValueError(f"plan.{name} has dtype {arr.dtype}, wire wants {dtype}")
        bufs.append(memoryview(np.ascontiguousarray(arr)))
    return bufs


def encode_plan_bytes(tp: TilePlan) -> bytes:
    """Single-buffer encoding for in-process queues and tests."""
    return b"".join(bytes(b) for b in encode_plan(tp))


def _wire_size(n_mb: int, n_blocks: int, n_coefs: int) -> int:
    return _HEAD_SIZE + n_mb * _MB_BYTES + n_blocks * _BLOCK_BYTES + n_coefs * _COEF_BYTES


def plan_wire_bound(n_mb: int, n_blocks: int) -> int:
    """Largest wire size of a plan with the given counts — every block
    with all 64 coefficients coded (slab sizing helper)."""
    return _wire_size(n_mb, n_blocks, 64 * n_blocks)


def plan_nbytes(tp: TilePlan) -> int:
    """Exact wire size of ``encode_plan(tp)`` without encoding anything.

    The shm pool path sizes its slab lease with this before writing the
    plan in place with :func:`encode_plan_into`.
    """
    p = tp.plan
    return _wire_size(p.n_macroblocks, p.n_blocks, p.n_coefs)


def encode_plan_into(tp: TilePlan, buf) -> int:
    """Encode straight into a writable buffer (a pool lease), no wire copy.

    ``buf`` must hold at least :func:`plan_nbytes` bytes.  Returns the
    bytes written.  Layout is identical to :func:`encode_plan`, so the
    consumer decodes the slab with the ordinary :func:`decode_plan`.
    """
    mv = memoryview(buf).cast("B")
    total = 0
    for part in encode_plan(tp):
        b = memoryview(part)
        if b.nbytes == 0:
            continue  # empty arrays cannot be cast (zero in shape)
        if b.format != "B" or b.ndim != 1:
            b = b.cast("B")
        n = b.nbytes
        mv[total : total + n] = b
        total += n
    return total


def buffers_nbytes(bufs: Buffers) -> int:
    return sum(memoryview(b).nbytes for b in bufs)


def _check_range(name: str, arr: np.ndarray, low: int, high: int) -> None:
    """``low <= arr < high`` everywhere, or ``ValueError`` naming the field."""
    if arr.size and (int(arr.min()) < low or int(arr.max()) >= high):
        raise ValueError(f"plan.{name} outside [{low}, {high})")


def decode_plan(
    payload: Union[bytes, memoryview],
    matrices: QuantMatrices,
    offset: int = 0,
) -> Tuple[TilePlan, int]:
    """Decode a plan from ``payload`` at ``offset``.

    Returns the :class:`TilePlan` (its arrays are read-only zero-copy views
    into ``payload``) and the offset one past the plan.

    Everything that drives a scatter or a gather in ``execute_plan`` —
    counts, scan positions, slots, residual rows — is range-checked here;
    a record that fails raises ``ValueError`` naming the field.  The record
    carries no raster, so whether a macroblock lands and a motion vector
    reads inside it is the consumer's check, ``plan.check_plan``
    (``TileDecoder.decode_plan`` runs it before executing).
    """
    _require_little_endian()
    available = memoryview(payload).nbytes - offset
    # the version byte first: an older record is shorter than this header
    if available > 0 and payload[offset] != PLAN_WIRE_VERSION:
        raise ValueError(
            f"plan wire version {payload[offset]}, expected {PLAN_WIRE_VERSION}"
        )
    if available < _HEAD_SIZE:
        raise ValueError(f"plan header truncated: {available} of {_HEAD_SIZE} bytes")
    (
        _version,
        ptype,
        dc_scaler,
        tile,
        mb_width,
        picture_index,
        n_mb,
        n_blocks,
        n_intra,
        n_res,
        n_coded,
        n_skipped,
        n_coefs,
    ) = struct.unpack_from(_HEAD, payload, offset)
    if n_intra > n_blocks:
        raise ValueError(f"plan n_intra_blocks {n_intra} exceeds n_blocks {n_blocks}")
    if n_res > n_mb:  # a residual row belongs to one macroblock
        raise ValueError(f"plan n_res {n_res} exceeds n_mb {n_mb}")
    counts = {"n_mb": n_mb, "n_blocks": n_blocks, "n_coefs": n_coefs}
    size = _wire_size(n_mb, n_blocks, n_coefs)
    if available < size:
        raise ValueError(f"plan payload truncated: {available} of {size} bytes")
    off = offset + _HEAD_SIZE
    fields = {}
    for name, dtype, shape, sized_by in _ARRAYS:
        full = (counts[sized_by],) + shape
        n_items = math.prod(full)
        fields[name] = np.frombuffer(
            payload, dtype=dtype, count=n_items, offset=off
        ).reshape(full)
        off += n_items * np.dtype(dtype).itemsize
    block_ncoef = fields["block_ncoef"]
    _check_range("block_ncoef", block_ncoef, 0, 65)
    if int(block_ncoef.sum(dtype=np.int64)) != n_coefs:
        raise ValueError(f"plan.block_ncoef does not sum to n_coefs {n_coefs}")
    _check_range("coef_scan", fields["coef_scan"], 0, 64)
    _check_range("block_slot", fields["block_slot"], 0, 6)
    _check_range("block_res", fields["block_res"], 0, n_res)
    _check_range("mb_res_row", fields["mb_res_row"], -1, n_res)
    _check_range("mb_x", fields["mb_x"], 0, mb_width)
    _check_range("mb_y", fields["mb_y"], 0, _MAX_MB_ROWS)
    plan = ReconstructionPlan(
        picture_type=PictureType(ptype),
        mb_width=mb_width,
        matrices=matrices,
        dc_scaler=dc_scaler,
        n_intra_blocks=n_intra,
        n_res=n_res,
        **fields,
    )
    tp = TilePlan(
        picture_index=picture_index,
        tile=tile,
        picture_type=PictureType(ptype),
        n_coded=n_coded,
        n_skipped=n_skipped,
        plan=plan,
        wire_bytes=off - offset,
    )
    return tp, off
