"""Header-level syntax elements and their bitstream codecs (§6.2-§6.3).

Each dataclass owns its wire format: ``write(bw)`` emits the element
(including its start code) and ``parse(br)`` consumes it, assuming the start
code has just been read by the caller's scan loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bitstream import BitReader, BitstreamError, BitWriter
from repro.mpeg2.tables import RASTER_OF_SCAN
from repro.mpeg2.constants import (
    EXTENSION_START_CODE,
    FRAME_PICTURE,
    FRAME_RATE_CODES,
    GROUP_START_CODE,
    PICTURE_CODING_EXTENSION_ID,
    PICTURE_START_CODE,
    PROFILE_MAIN_LEVEL_HIGH,
    SEQUENCE_EXTENSION_ID,
    SEQUENCE_HEADER_CODE,
    PictureType,
    frame_rate_code_for,
)


@dataclass
class SequenceHeader:
    """sequence_header + sequence_extension (progressive, 4:2:0).

    ``intra_matrix``/``non_intra_matrix`` carry custom quantization
    matrices (8x8 int arrays, values 1-255); ``None`` means the defaults.
    Custom matrices travel in the header in zigzag order, per §6.2.2.1.
    """

    width: int
    height: int
    frame_rate_code: int = 5  # 30 fps
    bit_rate: int = 0  # in units of 400 bits/s; 0 -> "unspecified" placeholder
    vbv_buffer_size: int = 112
    intra_matrix: Optional[np.ndarray] = None
    non_intra_matrix: Optional[np.ndarray] = None

    def __eq__(self, other: object) -> bool:  # ndarray fields break default eq
        if not isinstance(other, SequenceHeader):
            return NotImplemented
        def _m(x):
            return None if x is None else x.tolist()
        return (
            self.width == other.width
            and self.height == other.height
            and self.frame_rate_code == other.frame_rate_code
            and self.bit_rate == other.bit_rate
            and self.vbv_buffer_size == other.vbv_buffer_size
            and _m(self.intra_matrix) == _m(other.intra_matrix)
            and _m(self.non_intra_matrix) == _m(other.non_intra_matrix)
        )

    @property
    def frame_rate(self) -> float:
        return FRAME_RATE_CODES[self.frame_rate_code]

    @staticmethod
    def _check_matrix(matrix: np.ndarray, name: str) -> np.ndarray:
        m = np.asarray(matrix, dtype=np.int32)
        if m.shape != (8, 8):
            raise ValueError(f"{name} must be 8x8")
        if m.min() < 1 or m.max() > 255:
            raise ValueError(f"{name} values must be in [1, 255]")
        return m

    @staticmethod
    def _write_matrix(bw: BitWriter, matrix: np.ndarray) -> None:
        flat = matrix.reshape(-1)
        for scan_pos in range(64):
            bw.write(int(flat[RASTER_OF_SCAN[scan_pos]]), 8)

    @staticmethod
    def _parse_matrix(br: BitReader) -> np.ndarray:
        flat = np.empty(64, dtype=np.int32)
        for scan_pos in range(64):
            v = br.read(8)
            if v == 0:
                raise BitstreamError("zero entry in quantization matrix")
            flat[RASTER_OF_SCAN[scan_pos]] = v
        return flat.reshape(8, 8)

    @classmethod
    def for_video(cls, width: int, height: int, fps: float = 30.0) -> "SequenceHeader":
        return cls(width=width, height=height, frame_rate_code=frame_rate_code_for(fps))

    def write(self, bw: BitWriter) -> None:
        if self.width >= 1 << 14 or self.height >= 1 << 14:
            raise ValueError("dimensions exceed 14-bit size fields")
        bw.write_start_code(SEQUENCE_HEADER_CODE)
        bw.write(self.width & 0xFFF, 12)
        bw.write(self.height & 0xFFF, 12)
        bw.write(1, 4)  # aspect_ratio_information: square samples
        bw.write(self.frame_rate_code, 4)
        bw.write(max(self.bit_rate, 1) & 0x3FFFF, 18)
        bw.write(1, 1)  # marker bit
        bw.write(self.vbv_buffer_size & 0x3FF, 10)
        bw.write(0, 1)  # constrained_parameters_flag
        if self.intra_matrix is not None:
            bw.write(1, 1)  # load_intra_quantiser_matrix
            self._write_matrix(bw, self._check_matrix(self.intra_matrix, "intra_matrix"))
        else:
            bw.write(0, 1)
        if self.non_intra_matrix is not None:
            bw.write(1, 1)  # load_non_intra_quantiser_matrix
            self._write_matrix(
                bw, self._check_matrix(self.non_intra_matrix, "non_intra_matrix")
            )
        else:
            bw.write(0, 1)
        # sequence_extension
        bw.write_start_code(EXTENSION_START_CODE)
        bw.write(SEQUENCE_EXTENSION_ID, 4)
        bw.write(PROFILE_MAIN_LEVEL_HIGH, 8)
        bw.write(1, 1)  # progressive_sequence
        bw.write(0b01, 2)  # chroma_format 4:2:0
        bw.write((self.width >> 12) & 0x3, 2)
        bw.write((self.height >> 12) & 0x3, 2)
        bw.write((max(self.bit_rate, 1) >> 18) & 0xFFF, 12)
        bw.write(1, 1)  # marker bit
        bw.write((self.vbv_buffer_size >> 10) & 0xFF, 8)
        bw.write(0, 1)  # low_delay
        bw.write(0, 2)  # frame_rate_extension_n
        bw.write(0, 5)  # frame_rate_extension_d

    @classmethod
    def parse(cls, br: BitReader) -> "SequenceHeader":
        """Parse the body following a sequence_header start code."""
        width = br.read(12)
        height = br.read(12)
        br.read(4)  # aspect ratio
        frame_rate_code = br.read(4)
        bit_rate = br.read(18)
        if br.read(1) != 1:
            raise BitstreamError("missing marker in sequence header")
        vbv = br.read(10)
        br.read(1)  # constrained
        intra_matrix = cls._parse_matrix(br) if br.read(1) else None
        non_intra_matrix = cls._parse_matrix(br) if br.read(1) else None
        if br.next_start_code() != EXTENSION_START_CODE:
            raise BitstreamError("sequence_extension missing")
        if br.read(4) != SEQUENCE_EXTENSION_ID:
            raise BitstreamError("expected sequence extension id")
        br.read(8)  # profile/level
        br.read(1)  # progressive
        if br.read(2) != 0b01:
            raise BitstreamError("only 4:2:0 supported")
        width |= br.read(2) << 12
        height |= br.read(2) << 12
        bit_rate |= br.read(12) << 18
        br.read(1)  # marker
        vbv |= br.read(8) << 10
        br.read(1)  # low_delay
        br.read(2)
        br.read(5)
        return cls(
            width=width,
            height=height,
            frame_rate_code=frame_rate_code,
            bit_rate=bit_rate,
            vbv_buffer_size=vbv,
            intra_matrix=intra_matrix,
            non_intra_matrix=non_intra_matrix,
        )


    def to_bytes(self) -> bytes:
        """The header as its own coded bytes (:meth:`write`): how it travels
        between processes.  What a stream cannot say does not survive the
        trip -- a ``bit_rate`` of zero is coded, and comes back, as one."""
        bw = BitWriter()
        self.write(bw)
        bw.align()
        return bw.getvalue()

    @classmethod
    def from_bytes(cls, payload) -> "SequenceHeader":
        """Inverse of :meth:`to_bytes`.  The bytes may come off a wire:
        anything but one whole sequence header, start code first, is a
        :class:`BitstreamError` -- nothing in them is executed."""
        data = bytes(payload)
        if data[:4] != bytes((0, 0, 1, SEQUENCE_HEADER_CODE)):
            raise BitstreamError("sequence header does not start with its start code")
        br = BitReader(data, 32)
        sequence = cls.parse(br)
        if br.pos > 8 * len(data):  # the reader pads a short buffer with zeros
            raise BitstreamError("sequence header truncated")
        return sequence


@dataclass
class GOPHeader:
    """group_of_pictures_header (§6.2.2.6)."""

    closed_gop: bool = True
    broken_link: bool = False
    time_code: int = 0  # raw 25-bit field; we do not model SMPTE time

    def write(self, bw: BitWriter) -> None:
        bw.write_start_code(GROUP_START_CODE)
        bw.write(self.time_code & ((1 << 25) - 1), 25)
        bw.write(1 if self.closed_gop else 0, 1)
        bw.write(1 if self.broken_link else 0, 1)

    @classmethod
    def parse(cls, br: BitReader) -> "GOPHeader":
        time_code = br.read(25)
        closed = bool(br.read(1))
        broken = bool(br.read(1))
        return cls(closed_gop=closed, broken_link=broken, time_code=time_code)

    def to_bytes(self) -> bytes:
        """The header as its own coded bytes (:meth:`write`): how it travels
        between processes, as :meth:`SequenceHeader.to_bytes`."""
        bw = BitWriter()
        self.write(bw)
        bw.align()
        return bw.getvalue()

    @classmethod
    def from_bytes(cls, payload) -> "GOPHeader":
        """Inverse of :meth:`to_bytes`.  The bytes may come off a wire:
        anything but one whole GOP header, start code first, is a
        :class:`BitstreamError` -- nothing in them is executed."""
        data = bytes(payload)
        if data[:4] != bytes((0, 0, 1, GROUP_START_CODE)):
            raise BitstreamError("GOP header does not start with its start code")
        br = BitReader(data, 32)
        gop = cls.parse(br)
        if br.pos > 8 * len(data) or len(data) != (br.pos + 7) // 8:
            raise BitstreamError("GOP header truncated or followed by other bytes")
        return gop


@dataclass
class PictureHeader:
    """picture_header + picture_coding_extension (frame pictures).

    ``f_code[s][t]``: s=0 forward / s=1 backward, t=0 horizontal /
    t=1 vertical.  Value 15 means "unused" for the directions a picture
    type does not carry.

    ``intra_dc_precision`` is 8, 9, or 10 bits; the DC quantizer step is
    ``2**(11 - precision)`` and the DC predictor reset value is
    ``2**(precision - 1)`` (§7.2.1).
    """

    temporal_reference: int
    picture_type: PictureType
    f_code: tuple[tuple[int, int], tuple[int, int]] = ((15, 15), (15, 15))
    vbv_delay: int = 0xFFFF
    intra_dc_precision: int = 8
    intra_vlc_format: int = 0  # 0 = table B.14, 1 = table B.15 for intra AC

    def f_code_for(self, direction: int, component: int) -> int:
        return self.f_code[direction][component]

    @property
    def dc_scaler(self) -> int:
        return 1 << (11 - self.intra_dc_precision)

    @property
    def dc_reset(self) -> int:
        return 1 << (self.intra_dc_precision - 1)

    def write(self, bw: BitWriter) -> None:
        bw.write_start_code(PICTURE_START_CODE)
        bw.write(self.temporal_reference & 0x3FF, 10)
        bw.write(int(self.picture_type), 3)
        bw.write(self.vbv_delay & 0xFFFF, 16)
        if self.picture_type in (PictureType.P, PictureType.B):
            bw.write(0, 1)  # full_pel_forward_vector (MPEG-2: must be 0)
            bw.write(7, 3)  # forward_f_code placeholder (MPEG-2: 111)
        if self.picture_type == PictureType.B:
            bw.write(0, 1)  # full_pel_backward_vector
            bw.write(7, 3)  # backward_f_code placeholder
        bw.write(0, 1)  # extra_bit_picture
        # picture_coding_extension
        bw.write_start_code(EXTENSION_START_CODE)
        bw.write(PICTURE_CODING_EXTENSION_ID, 4)
        if not 8 <= self.intra_dc_precision <= 10:
            raise ValueError("intra_dc_precision must be 8, 9, or 10")
        for s in range(2):
            for t in range(2):
                bw.write(self.f_code[s][t], 4)
        bw.write(self.intra_dc_precision - 8, 2)
        bw.write(FRAME_PICTURE, 2)
        bw.write(0, 1)  # top_field_first
        bw.write(1, 1)  # frame_pred_frame_dct
        bw.write(0, 1)  # concealment_motion_vectors
        bw.write(0, 1)  # q_scale_type
        bw.write(self.intra_vlc_format & 1, 1)
        bw.write(0, 1)  # alternate_scan
        bw.write(0, 1)  # repeat_first_field
        bw.write(1, 1)  # chroma_420_type
        bw.write(1, 1)  # progressive_frame
        bw.write(0, 1)  # composite_display_flag

    @classmethod
    def parse(cls, br: BitReader) -> "PictureHeader":
        temporal_reference = br.read(10)
        ptype = PictureType(br.read(3))
        vbv_delay = br.read(16)
        if ptype in (PictureType.P, PictureType.B):
            br.read(1)
            br.read(3)
        if ptype == PictureType.B:
            br.read(1)
            br.read(3)
        if br.read(1):
            raise BitstreamError("extra_information_picture unsupported")
        if br.next_start_code() != EXTENSION_START_CODE:
            raise BitstreamError("picture_coding_extension missing")
        if br.read(4) != PICTURE_CODING_EXTENSION_ID:
            raise BitstreamError("expected picture coding extension id")
        f_code = tuple(
            tuple(br.read(4) for _ in range(2)) for _ in range(2)
        )
        dc_precision = br.read(2) + 8
        if dc_precision > 10:
            raise BitstreamError("intra_dc_precision 11 unsupported")
        if br.read(2) != FRAME_PICTURE:
            raise BitstreamError("only frame pictures supported")
        br.read(1)  # top_field_first
        if br.read(1) != 1:
            raise BitstreamError("only frame_pred_frame_dct=1 supported")
        if br.read(1):
            raise BitstreamError("concealment motion vectors unsupported")
        br.read(1)  # q_scale_type
        intra_vlc_format = br.read(1)
        if br.read(1):
            raise BitstreamError("alternate_scan unsupported")
        br.read(1)  # repeat_first_field
        br.read(1)  # chroma_420_type
        br.read(1)  # progressive_frame
        br.read(1)  # composite_display_flag
        return cls(
            temporal_reference=temporal_reference,
            picture_type=ptype,
            f_code=f_code,  # type: ignore[arg-type]
            vbv_delay=vbv_delay,
            intra_dc_precision=dc_precision,
            intra_vlc_format=intra_vlc_format,
        )
