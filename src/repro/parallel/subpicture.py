"""Sub-picture streams: the unit of work a second-level splitter ships.

A sub-picture (paper §4.1) carries the macroblocks of one coded picture
that fall inside one tile's display rectangle.  It "does not necessarily
conform to MPEG-2 syntax": it is a sequence of records —

- **RunRecord** — a *partial slice*: a State Propagation Header followed by
  the original bitstream bytes of a contiguous run of macroblocks.  The
  bytes are copied whole (no bit-shifting); the SPH's ``skip_bits`` (0-7)
  says where the first macroblock's ``macroblock_type`` begins inside the
  first byte (paper §4.3, figure 4).  The payload starts at
  ``macroblock_type`` — the first macroblock's address comes from the SPH,
  so its address-increment VLC is *not* copied.  Subsequent macroblocks in
  the run keep their original increment VLCs; increments > 1 reproduce the
  original skipped macroblocks, whose predictor-state side effects replay
  exactly as in the original slice.
- **SkipRecord** — skipped macroblocks whose increment bits travel with a
  macroblock of *another* tile (a skip run crossing a tile boundary).  The
  record is self-contained: it carries the prediction mode and motion
  vectors a decoder needs to reconstruct them.

Both record types serialize to real bytes so the bandwidth experiments
(Figure 9) measure true message sizes, including the SPH overhead the paper
reports as ~20 % of splitter send bandwidth.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Union

from repro.mpeg2.constants import PictureType
from repro.mpeg2.structures import PictureHeader

_MAGIC = 0x5350  # "SP"


@dataclass(frozen=True)
class SPH:
    """State Propagation Header (paper §4.3).

    Snapshot of the decoder-side prediction state immediately before the
    first macroblock of a partial slice: quantiser scale, DC predictors,
    motion-vector predictors, the previous macroblock's prediction mode
    (B-skip semantics), the absolute wall address of the first macroblock,
    and the 0-7 bit skip into the first payload byte.
    """

    address: int
    qscale_code: int
    dc_pred: tuple  # (y, cb, cr)
    pmv: tuple  # ((fh, fv), (bh, bv))
    prev_forward: bool
    prev_backward: bool
    skip_bits: int

    _FMT = "<IB3h4hBB"

    def pack(self) -> bytes:
        flags = (1 if self.prev_forward else 0) | (2 if self.prev_backward else 0)
        return struct.pack(
            self._FMT,
            self.address,
            self.qscale_code,
            *self.dc_pred,
            self.pmv[0][0],
            self.pmv[0][1],
            self.pmv[1][0],
            self.pmv[1][1],
            flags,
            self.skip_bits,
        )

    @classmethod
    def unpack(cls, data: bytes, off: int) -> tuple["SPH", int]:
        size = struct.calcsize(cls._FMT)
        vals = struct.unpack_from(cls._FMT, data, off)
        addr, q, d0, d1, d2, p00, p01, p10, p11, flags, skip = vals
        return (
            cls(
                address=addr,
                qscale_code=q,
                dc_pred=(d0, d1, d2),
                pmv=((p00, p01), (p10, p11)),
                prev_forward=bool(flags & 1),
                prev_backward=bool(flags & 2),
                skip_bits=skip,
            ),
            off + size,
        )

    @classmethod
    def packed_size(cls) -> int:
        return struct.calcsize(cls._FMT)

    def to_state_snapshot(self) -> dict:
        return {
            "qscale_code": self.qscale_code,
            "dc_pred": list(self.dc_pred),
            "pmv": [list(self.pmv[0]), list(self.pmv[1])],
            "prev_forward": self.prev_forward,
            "prev_backward": self.prev_backward,
        }


@dataclass
class RunRecord:
    """A partial slice: SPH + byte-copied macroblock payload."""

    sph: SPH
    n_coded: int  # coded macroblocks in the payload
    n_total: int  # coded + increment-absorbed skipped macroblocks
    nbits: int  # exact payload length in bits (after skip_bits)
    payload: bytes

    _FMT = "<HHI I".replace(" ", "")

    def pack(self) -> bytes:
        head = self.sph.pack() + struct.pack(
            self._FMT, self.n_coded, self.n_total, self.nbits, len(self.payload)
        )
        return b"\x01" + head + self.payload

    @classmethod
    def unpack(cls, data: bytes, off: int) -> tuple["RunRecord", int]:
        sph, off = SPH.unpack(data, off)
        n_coded, n_total, nbits, plen = struct.unpack_from(cls._FMT, data, off)
        off += struct.calcsize(cls._FMT)
        payload = data[off : off + plen]
        return cls(sph, n_coded, n_total, nbits, payload), off + plen


@dataclass
class SkipRecord:
    """Skipped macroblocks shipped explicitly (boundary-crossing skips)."""

    address: int
    count: int
    forward: bool
    backward: bool
    mv_fwd: tuple = (0, 0)
    mv_bwd: tuple = (0, 0)

    _FMT = "<IHB4h"

    def pack(self) -> bytes:
        flags = (1 if self.forward else 0) | (2 if self.backward else 0)
        return b"\x02" + struct.pack(
            self._FMT,
            self.address,
            self.count,
            flags,
            self.mv_fwd[0],
            self.mv_fwd[1],
            self.mv_bwd[0],
            self.mv_bwd[1],
        )

    @classmethod
    def unpack(cls, data: bytes, off: int) -> tuple["SkipRecord", int]:
        addr, count, flags, fh, fv, bh, bv = struct.unpack_from(cls._FMT, data, off)
        return (
            cls(
                address=addr,
                count=count,
                forward=bool(flags & 1),
                backward=bool(flags & 2),
                mv_fwd=(fh, fv),
                mv_bwd=(bh, bv),
            ),
            off + struct.calcsize(cls._FMT),
        )


Record = Union[RunRecord, SkipRecord]


@dataclass
class SubPicture:
    """All macroblocks of one coded picture destined for one tile."""

    picture_index: int
    tile: int
    picture_type: PictureType
    temporal_reference: int
    f_code: tuple
    mb_width: int
    mb_height: int
    intra_dc_precision: int = 8
    intra_vlc_format: int = 0
    records: List[Record] = field(default_factory=list)
    #: bytes :meth:`deserialize` read this from; 0 for one never on the wire
    wire_bytes: int = 0

    _HEAD_FMT = "<HIHBH8BHH I".replace(" ", "")

    def picture_header(self) -> PictureHeader:
        return PictureHeader(
            temporal_reference=self.temporal_reference,
            picture_type=self.picture_type,
            f_code=self.f_code,
            intra_dc_precision=self.intra_dc_precision,
            intra_vlc_format=self.intra_vlc_format,
        )

    @property
    def n_macroblocks(self) -> int:
        """Macroblocks this sub-picture reconstructs (coded + skipped)."""
        total = 0
        for rec in self.records:
            total += rec.n_total if isinstance(rec, RunRecord) else rec.count
        return total

    @property
    def payload_bytes(self) -> int:
        """Bytes of copied original bitstream (excluding SPH/framing)."""
        return sum(
            len(rec.payload) for rec in self.records if isinstance(rec, RunRecord)
        )

    @property
    def overhead_bytes(self) -> int:
        """Framing + SPH + skip-record bytes (the paper's ~20 % overhead)."""
        return len(self.serialize()) - self.payload_bytes

    def serialize(self) -> bytes:
        fc = self.f_code
        head = struct.pack(
            self._HEAD_FMT,
            _MAGIC,
            self.picture_index,
            self.tile,
            int(self.picture_type),
            self.temporal_reference,
            fc[0][0],
            fc[0][1],
            fc[1][0],
            fc[1][1],
            self.intra_dc_precision,
            self.intra_vlc_format,
            0,
            0,
            self.mb_width,
            self.mb_height,
            len(self.records),
        )
        return head + b"".join(rec.pack() for rec in self.records)

    @classmethod
    def deserialize(cls, data: bytes) -> "SubPicture":
        off = struct.calcsize(cls._HEAD_FMT)
        (
            magic,
            pic_idx,
            tile,
            ptype,
            tref,
            f00,
            f01,
            f10,
            f11,
            dc_prec,
            ivf,
            _r2,
            _r3,
            mbw,
            mbh,
            n_rec,
        ) = struct.unpack_from(cls._HEAD_FMT, data, 0)
        if magic != _MAGIC:
            raise ValueError("not a sub-picture buffer")
        sp = cls(
            picture_index=pic_idx,
            tile=tile,
            picture_type=PictureType(ptype),
            temporal_reference=tref,
            f_code=((f00, f01), (f10, f11)),
            mb_width=mbw,
            mb_height=mbh,
            intra_dc_precision=dc_prec or 8,
            intra_vlc_format=ivf,
        )
        for _ in range(n_rec):
            kind = data[off]
            off += 1
            if kind == 1:
                rec, off = RunRecord.unpack(data, off)
            elif kind == 2:
                rec, off = SkipRecord.unpack(data, off)
            else:
                raise ValueError(f"unknown sub-picture record type {kind}")
            sp.records.append(rec)
        sp.wire_bytes = off
        return sp
