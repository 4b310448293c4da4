"""Application message types and payload codecs for the cluster runtime.

The channel layer (:mod:`repro.net.channel`) frames every message with a
type + picture-index header; this module defines the types and how each
payload is encoded.  The two high-volume payloads — reference-pixel
blocks and decoded tile frames — use hand-rolled struct + raw-plane
encodings so the runtime moves pixels, not pickles, and the sequence
header travels as its own coded bytes.  The other low-volume control
payload left (MEI programs, inside the sub-picture and plan messages) uses
pickle: every peer is a worker this package spawned itself, so the usual
pickle trust caveat does not bite.  Picture units travel as a fixed head,
the GOP header's own coded bytes and the picture's.
"""

from __future__ import annotations

import json
import pickle
import struct
from typing import Optional, Tuple

import numpy as np

from repro.mem import Handle
from repro.mpeg2 import plan_codec
from repro.mpeg2.frames import Frame
from repro.mpeg2.motion import Rect
from repro.mpeg2.parser import PictureUnit
from repro.mpeg2.plan import QuantMatrices
from repro.mpeg2.plan_codec import Buffers, TilePlan
from repro.mpeg2.structures import GOPHeader, SequenceHeader
from repro.parallel.mei import BlockXfer, MEIProgram, PixelBlock

# ---------------------------- message types ----------------------------- #
# (repro.net.channel.HEARTBEAT is 0; application types start at 1.)

MSG_HELLO = 1  # dialer -> accepter: who is calling           (json)
MSG_SEQ = 2  # root -> splitters -> decoders: SequenceHeader  (its coded bytes)
MSG_PICTURE = 3  # root -> splitter: one coded picture        (struct+coded bytes)
MSG_SUBPICTURE = 4  # splitter -> decoder: SP + MEI program   (struct+pickle)
MSG_ACK = 5  # decoder -> ANID splitter: picture received     (empty)
MSG_BLOCK = 6  # decoder -> decoder: reference pixels         (struct+planes)
MSG_FRAME = 7  # decoder -> collector: displayed tile crop    (struct+planes)
MSG_CREDIT = 8  # splitter -> root: receive buffer freed      (empty)
MSG_EOS = 9  # end of stream, cascaded down the tree          (empty)
MSG_ERROR = 10  # any worker -> collector: fatal diagnostic   (json)
MSG_PLAN = 11  # splitter -> decoder: compiled plan + MEI     (struct+arrays+pickle)

# Handle-bearing twins of the three high-volume payloads.  Same metadata
# headers as the by-value forms, but the pixels/arrays live in a
# shared-memory pool slab (repro.mem) and only a ~30-byte Handle crosses
# the socket.  Negotiated per channel at HELLO time; TCP peers and
# pool-exhausted sends fall back to the by-value types above.
MSG_PLAN_H = 12  # splitter -> decoder: plan handle + MEI     (struct+handle+pickle)
MSG_BLOCK_H = 13  # decoder -> decoder: reference pixel handle (struct+handle)
MSG_FRAME_H = 14  # decoder -> collector: tile crop handle    (struct+handle)

# Adaptive tile repartitioning (repro.parallel.partition): the root
# broadcasts versioned partition changes down the tree, and telemetry
# reports (per-tile busy time, per-picture content profiles) ride the
# existing back-channels upstream.
MSG_LAYOUT = 15  # root -> splitters -> decoders: LayoutUpdate (struct)
MSG_REPORT = 16  # decoder/splitter -> root: partition telemetry (json)


# ------------------------------ hello ----------------------------------- #
#
# HELLO is exchanged symmetrically: the dialer announces itself, the
# accepter replies with its own HELLO.  Both carry a ``features`` dict so
# either end can tell whether its peer accepts shared-memory handles
# (``{"shm_pool": true}``); an empty/absent dict means by-value only,
# which keeps old and new peers interoperable.


def encode_hello(name: str, features: Optional[dict] = None) -> bytes:
    rec = {"name": name}
    if features:
        rec["features"] = features
    return json.dumps(rec).encode()


def decode_hello(payload: bytes) -> str:
    return json.loads(payload.decode())["name"]


def decode_hello_full(payload: bytes) -> Tuple[str, dict]:
    rec = json.loads(payload.decode())
    return rec["name"], rec.get("features", {})


# --------------------------- control payloads --------------------------- #


def encode_sequence(seq: SequenceHeader) -> bytes:
    return seq.to_bytes()


def decode_sequence(payload: bytes) -> SequenceHeader:
    """``BitstreamError`` for anything but one whole coded sequence header."""
    return SequenceHeader.from_bytes(payload)


# nsid, coded_index, new_gop, t_ingress, bytes of the GOP header that follows
_PICTURE_HEAD = "<HIBdB"


def encode_picture(nsid: int, unit: PictureUnit, t_ingress: float = 0.0) -> Buffers:
    """``t_ingress`` is the root's wall-clock stamp (``time.time()``) taken
    when the picture entered the pipeline — the origin of the end-to-end
    latency measurement.  ``time.time()`` is the one clock every process
    on the same host shares; stamps always travel (they never influence
    pixels), so the telemetry kill-switch stays bit-identical.

    A buffer list: the head, the unit's GOP header as its own coded bytes
    (if it opens a GOP with one), and the picture's bytes untouched."""
    gop = unit.gop.to_bytes() if unit.gop is not None else b""
    head = struct.pack(
        _PICTURE_HEAD, nsid, unit.coded_index, bool(unit.new_gop), t_ingress, len(gop)
    )
    return [head + gop, memoryview(unit.data)]


def decode_picture(payload) -> Tuple[int, PictureUnit, float]:
    """``(nsid, unit, t_ingress)``.  The bytes come off a wire: a payload
    too short for its head or its GOP header is a ``ValueError``, a GOP
    header that is not one a ``BitstreamError`` -- nothing in them is
    executed.  What follows the GOP header is the picture, whatever it is
    (the parser's to judge)."""
    payload = memoryview(payload)
    size = struct.calcsize(_PICTURE_HEAD)
    if len(payload) < size:
        raise ValueError(f"picture message of {len(payload)} bytes: shorter than its head")
    nsid, coded_index, new_gop, t_ingress, gop_bytes = struct.unpack_from(_PICTURE_HEAD, payload)
    if new_gop > 1:
        raise ValueError(f"picture message: new_gop flag is {new_gop}")
    if len(payload) < size + gop_bytes:
        raise ValueError("picture message: shorter than the GOP header it announces")
    gop = GOPHeader.from_bytes(payload[size : size + gop_bytes]) if gop_bytes else None
    unit = PictureUnit(
        coded_index=coded_index,
        data=bytes(payload[size + gop_bytes :]),
        new_gop=bool(new_gop),
        gop=gop,
    )
    return nsid, unit, t_ingress


#: Two latency stamps ride every downstream header: ``t_root`` (pipeline
#: ingress at the root) and ``t_split`` (plan/subpicture shipped by the
#: splitter).  Decoder->collector frames add ``t_dec`` (tile shipped).
_SP_HEAD = "<HHIdd"  # anid, expected_recvs, len(sp_bytes), t_root, t_split


def encode_subpicture(
    anid: int,
    sp_bytes: bytes,
    program: MEIProgram,
    stamps: Tuple[float, float] = (0.0, 0.0),
) -> bytes:
    head = struct.pack(
        _SP_HEAD, anid, len(program.recvs), len(sp_bytes), *stamps
    )
    return head + sp_bytes + pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)


def decode_subpicture(
    payload: bytes,
) -> Tuple[int, int, bytes, MEIProgram, Tuple[float, float]]:
    """Return ``(anid, expected_recvs, sp_bytes, program, (t_root, t_split))``."""
    anid, expected, sp_len, t_root, t_split = struct.unpack_from(_SP_HEAD, payload)
    off = struct.calcsize(_SP_HEAD)
    sp_bytes = payload[off : off + sp_len]
    program = pickle.loads(payload[off + sp_len :])
    return anid, expected, sp_bytes, program, (t_root, t_split)


_PLAN_HEAD = "<HHIdd"  # anid, expected_recvs, plan byte count, t_root, t_split


def encode_plan_msg(
    anid: int,
    tp: TilePlan,
    program: MEIProgram,
    stamps: Tuple[float, float] = (0.0, 0.0),
) -> Buffers:
    """Encode a compiled tile plan + its MEI program as a buffer list.

    The plan's ndarray buffers pass through untouched (zero-copy on the
    socket); only the small MEI program is pickled.
    """
    plan_bufs = plan_codec.encode_plan(tp)
    head = struct.pack(
        _PLAN_HEAD,
        anid,
        len(program.recvs),
        plan_codec.buffers_nbytes(plan_bufs),
        *stamps,
    )
    return [head, *plan_bufs, pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)]


def decode_plan_msg(
    payload: bytes, matrices: QuantMatrices
) -> Tuple[int, int, TilePlan, MEIProgram, Tuple[float, float]]:
    """Return ``(anid, expected_recvs, tile_plan, program, (t_root, t_split))``.

    The plan's arrays are zero-copy views into ``payload``; ``matrices``
    is the decoder's own copy (matrices never travel on the wire — see
    :mod:`repro.mpeg2.plan_codec`).
    """
    anid, expected, plan_len, t_root, t_split = struct.unpack_from(
        _PLAN_HEAD, payload
    )
    off = struct.calcsize(_PLAN_HEAD)
    tp, end = plan_codec.decode_plan(payload, matrices, offset=off)
    if end - off != plan_len:
        raise ValueError(
            f"plan payload length mismatch: header says {plan_len}, "
            f"codec consumed {end - off}"
        )
    program = pickle.loads(payload[end:])
    return anid, expected, tp, program, (t_root, t_split)


_PLAN_H_HEAD = "<HHdd"  # anid, expected_recvs, t_root, t_split


def encode_plan_hmsg(
    anid: int,
    handle: Handle,
    program: MEIProgram,
    stamps: Tuple[float, float] = (0.0, 0.0),
) -> bytes:
    """MSG_PLAN_H payload: the plan already sits in a pool slab (written
    there with :func:`~repro.mpeg2.plan_codec.encode_plan_into`); only
    anid + handle + the small pickled MEI program cross the wire."""
    head = struct.pack(_PLAN_H_HEAD, anid, len(program.recvs), *stamps)
    return (
        head
        + handle.pack()
        + pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    )


def decode_plan_hmsg(
    payload: bytes,
) -> Tuple[int, int, Handle, MEIProgram, Tuple[float, float]]:
    """Return ``(anid, expected_recvs, handle, program, (t_root, t_split))``.

    The caller views the handle through its :class:`~repro.mem.PoolRegistry`
    and decodes the slab with the ordinary ``decode_plan`` — the slab
    layout is byte-identical to the by-value wire payload.
    """
    anid, expected, t_root, t_split = struct.unpack_from(_PLAN_H_HEAD, payload)
    handle, off = Handle.unpack(payload, struct.calcsize(_PLAN_H_HEAD))
    program = pickle.loads(payload[off:])
    return anid, expected, handle, program, (t_root, t_split)


# ----------------------- partition telemetry ---------------------------- #
#
# MSG_LAYOUT carries a LayoutUpdate in its own struct codec (see
# repro.parallel.partition); MSG_REPORT is low-volume JSON — one small
# record per picture per reporter, riding the ack/credit back-channels.


def encode_report(rec: dict) -> bytes:
    return json.dumps(rec).encode()


def decode_report(payload: bytes) -> dict:
    return json.loads(payload.decode())


def encode_error(proc: str, error: str) -> bytes:
    return json.dumps({"proc": proc, "error": error}).encode()


def decode_error(payload: bytes) -> Tuple[str, str]:
    rec = json.loads(payload.decode())
    return rec["proc"], rec["error"]


# ------------------------- pixel-block payload -------------------------- #

_BLOCK_FMT = "<HHB8HB"  # src, dest, direction, luma rect, chroma rect, flags


def _rect_shape(r: Rect) -> Tuple[int, int]:
    return (r.y1 - r.y0, r.x1 - r.x0)


def encode_block(block: PixelBlock) -> bytes:
    lr, cr_ = block.xfer.luma, block.xfer.chroma
    flags = (
        (1 if block.y is not None else 0)
        | (2 if block.cb is not None else 0)
        | (4 if block.cr is not None else 0)
    )
    head = struct.pack(
        _BLOCK_FMT,
        block.src,
        block.dest,
        block.xfer.direction,
        lr.x0, lr.y0, lr.x1, lr.y1,
        cr_.x0, cr_.y0, cr_.x1, cr_.y1,
        flags,
    )
    planes = [
        np.ascontiguousarray(p).tobytes()
        for p in (block.y, block.cb, block.cr)
        if p is not None
    ]
    return head + b"".join(planes)


def _block_from(vals, planes_buf, planes_off: int) -> PixelBlock:
    """Build a PixelBlock from unpacked header values + a plane buffer
    (the socket payload tail, or a shared-memory slab view)."""
    src, dest, direction = vals[0], vals[1], vals[2]
    luma = Rect(vals[3], vals[4], vals[5], vals[6])
    chroma = Rect(vals[7], vals[8], vals[9], vals[10])
    flags = vals[11]
    off = planes_off

    def take(rect: Rect, present: bool):
        nonlocal off
        if not present:
            return None
        h, w = _rect_shape(rect)
        plane = np.frombuffer(
            planes_buf, dtype=np.uint8, count=h * w, offset=off
        )
        off += h * w
        return plane.reshape(h, w)

    y = take(luma, bool(flags & 1))
    cb = take(chroma, bool(flags & 2))
    cr = take(chroma, bool(flags & 4))
    return PixelBlock(
        xfer=BlockXfer(luma=luma, chroma=chroma, direction=direction),
        src=src,
        dest=dest,
        y=y,
        cb=cb,
        cr=cr,
    )


def decode_block(payload: bytes) -> PixelBlock:
    vals = struct.unpack_from(_BLOCK_FMT, payload)
    return _block_from(vals, payload, struct.calcsize(_BLOCK_FMT))


def block_nbytes(block: PixelBlock) -> int:
    """Plane payload bytes of one block (slab lease sizing)."""
    return sum(p.nbytes for p in (block.y, block.cb, block.cr) if p is not None)


def write_block_into(block: PixelBlock, buf) -> int:
    """Write the block's planes into a pool slab; returns bytes written."""
    off = 0
    for p in (block.y, block.cb, block.cr):
        if p is None:
            continue
        dst = np.frombuffer(buf, dtype=np.uint8, count=p.nbytes, offset=off)
        np.copyto(dst.reshape(p.shape), p)
        off += p.nbytes
    return off


def encode_block_hmsg(block: PixelBlock, handle: Handle) -> bytes:
    """MSG_BLOCK_H payload: the by-value header + the slab handle; the
    planes were already written with :func:`write_block_into`."""
    lr, cr_ = block.xfer.luma, block.xfer.chroma
    flags = (
        (1 if block.y is not None else 0)
        | (2 if block.cb is not None else 0)
        | (4 if block.cr is not None else 0)
    )
    head = struct.pack(
        _BLOCK_FMT,
        block.src,
        block.dest,
        block.xfer.direction,
        lr.x0, lr.y0, lr.x1, lr.y1,
        cr_.x0, cr_.y0, cr_.x1, cr_.y1,
        flags,
    )
    return head + handle.pack()


def decode_block_hmsg(payload: bytes, view_fn) -> Tuple[PixelBlock, Handle]:
    """Decode a handle-bearing block; ``view_fn`` maps Handle -> memoryview
    (a :meth:`~repro.mem.PoolRegistry.view` bound method).  The returned
    planes are zero-copy views into the slab — release the handle only
    after they have been applied."""
    vals = struct.unpack_from(_BLOCK_FMT, payload)
    handle, _off = Handle.unpack(payload, struct.calcsize(_BLOCK_FMT))
    return _block_from(vals, view_fn(handle), 0), handle


# ------------------------- tile-frame payload --------------------------- #
#
# A decoder's frame is only authoritative on its partition rectangle, so
# only that crop travels to the collector — a 2x2 wall ships one full
# frame's worth of pixels per picture instead of four.

_FRAME_FMT = "<H4Hddd"  # tile id, partition rect, t_root, t_split, t_dec


def encode_tile_frame(
    tid: int,
    partition: Rect,
    frame: Frame,
    stamps: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Buffers:
    """Encode a tile crop as a buffer list (planes go zero-copy to the wire)."""
    p = partition
    head = struct.pack(_FRAME_FMT, tid, p.x0, p.y0, p.x1, p.y1, *stamps)
    y = np.ascontiguousarray(frame.y[p.y0 : p.y1, p.x0 : p.x1])
    cb = np.ascontiguousarray(frame.cb[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2])
    cr = np.ascontiguousarray(frame.cr[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2])
    return [head, memoryview(y), memoryview(cb), memoryview(cr)]


def decode_tile_frame(
    payload: bytes,
) -> Tuple[int, Rect, np.ndarray, np.ndarray, np.ndarray, Tuple[float, float, float]]:
    vals = struct.unpack_from(_FRAME_FMT, payload)
    tid, x0, y0, x1, y1 = vals[:5]
    stamps = vals[5:8]
    rect = Rect(x0, y0, x1, y1)
    off = struct.calcsize(_FRAME_FMT)
    h, w = y1 - y0, x1 - x0
    ch, cw = h // 2, w // 2

    def take(n, shape):
        nonlocal off
        plane = np.frombuffer(payload, dtype=np.uint8, count=n, offset=off)
        off += n
        return plane.reshape(shape)

    y = take(h * w, (h, w))
    cb = take(ch * cw, (ch, cw))
    cr = take(ch * cw, (ch, cw))
    return tid, rect, y, cb, cr, stamps


def tile_frame_nbytes(partition: Rect) -> int:
    """Crop payload bytes for one tile frame (slab lease sizing)."""
    h, w = partition.y1 - partition.y0, partition.x1 - partition.x0
    return h * w + 2 * (h // 2) * (w // 2)


def write_tile_frame_into(frame: Frame, partition: Rect, buf) -> int:
    """Copy the tile's authoritative crop straight into a pool slab.

    One strided copy per plane, from the decoder's frame into shared
    memory — the collector pastes from the slab with no socket transfer.
    """
    p = partition
    h, w = p.y1 - p.y0, p.x1 - p.x0
    ch, cw = h // 2, w // 2
    off = 0
    for src, (ph, pw) in (
        (frame.y[p.y0 : p.y1, p.x0 : p.x1], (h, w)),
        (frame.cb[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2], (ch, cw)),
        (frame.cr[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2], (ch, cw)),
    ):
        dst = np.frombuffer(buf, dtype=np.uint8, count=ph * pw, offset=off)
        np.copyto(dst.reshape(ph, pw), src)
        off += ph * pw
    return off


def encode_tile_frame_hmsg(
    tid: int,
    partition: Rect,
    handle: Handle,
    stamps: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> bytes:
    p = partition
    head = struct.pack(_FRAME_FMT, tid, p.x0, p.y0, p.x1, p.y1, *stamps)
    return head + handle.pack()


def decode_tile_frame_hmsg(
    payload: bytes, view_fn
) -> Tuple[
    int, Rect, np.ndarray, np.ndarray, np.ndarray, Handle,
    Tuple[float, float, float],
]:
    """Handle-bearing tile crop; plane arrays are zero-copy slab views, so
    release the handle only after they have been pasted."""
    vals = struct.unpack_from(_FRAME_FMT, payload)
    tid, x0, y0, x1, y1 = vals[:5]
    stamps = vals[5:8]
    rect = Rect(x0, y0, x1, y1)
    handle, _off = Handle.unpack(payload, struct.calcsize(_FRAME_FMT))
    view = view_fn(handle)
    h, w = y1 - y0, x1 - x0
    ch, cw = h // 2, w // 2
    off = 0

    def take(n, shape):
        nonlocal off
        plane = np.frombuffer(view, dtype=np.uint8, count=n, offset=off)
        off += n
        return plane.reshape(shape)

    y = take(h * w, (h, w))
    cb = take(ch * cw, (ch, cw))
    cr = take(ch * cw, (ch, cw))
    return tid, rect, y, cb, cr, handle, stamps
