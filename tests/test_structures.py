"""Header syntax round-trips (sequence, GOP, picture)."""

import numpy as np
import pytest

from repro.bitstream import BitReader, BitstreamError, BitWriter
from repro.mpeg2.constants import (
    EXTENSION_START_CODE,
    GROUP_START_CODE,
    PICTURE_START_CODE,
    SEQUENCE_HEADER_CODE,
    PictureType,
)
from repro.mpeg2.structures import GOPHeader, PictureHeader, SequenceHeader


def _roundtrip_sequence(seq: SequenceHeader) -> SequenceHeader:
    bw = BitWriter()
    seq.write(bw)
    br = BitReader(bw.getvalue())
    assert br.next_start_code() == SEQUENCE_HEADER_CODE
    return SequenceHeader.parse(br)


class TestSequenceHeader:
    def test_roundtrip_basic(self):
        seq = SequenceHeader(width=1280, height=720, frame_rate_code=8)
        out = _roundtrip_sequence(seq)
        assert (out.width, out.height) == (1280, 720)
        assert out.frame_rate_code == 8
        assert out.frame_rate == 60.0

    def test_roundtrip_large_dimensions(self):
        """3840x2800 needs the sequence-extension size bits (>12 bits)."""
        seq = SequenceHeader(width=3840, height=2800)
        out = _roundtrip_sequence(seq)
        assert (out.width, out.height) == (3840, 2800)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            _roundtrip_sequence(SequenceHeader(width=1 << 14, height=16))

    def test_for_video_picks_nearest_rate(self):
        assert SequenceHeader.for_video(64, 48, fps=30.0).frame_rate_code == 5
        assert SequenceHeader.for_video(64, 48, fps=24.0).frame_rate_code == 2
        assert SequenceHeader.for_video(64, 48, fps=59.0).frame_rate_code in (7, 8)

    def test_bit_rate_and_vbv_roundtrip(self):
        seq = SequenceHeader(width=64, height=48, bit_rate=123456, vbv_buffer_size=777)
        out = _roundtrip_sequence(seq)
        assert out.bit_rate == 123456
        assert out.vbv_buffer_size == 777


def _custom_matrices():
    rng = np.random.default_rng(5)
    return (rng.integers(1, 256, (8, 8)).astype(np.int32) for _ in range(2))


class TestSequenceHeaderAsBytes:
    """How the header crosses a process boundary (the cluster's ``MSG_SEQ``,
    the wall's ``W_SEQ``): its own coded bytes, parsed on the other side."""

    CASES = [
        SequenceHeader(width=96, height=64, bit_rate=1),
        SequenceHeader(width=3840, height=2800, frame_rate_code=8, bit_rate=123456,
                       vbv_buffer_size=777),
        SequenceHeader(64, 48, bit_rate=9, intra_matrix=next(_custom_matrices())),
        SequenceHeader(64, 48, bit_rate=9, non_intra_matrix=next(_custom_matrices())),
        SequenceHeader(64, 48, 5, 9, 112, *_custom_matrices()),
    ]

    @pytest.mark.parametrize("seq", CASES)
    def test_roundtrip_through_both_message_layers(self, seq):
        from repro.cluster.runtime.messages import decode_sequence, encode_sequence
        from repro.wall.broadcast import decode_seq_payload, encode_seq_payload

        assert SequenceHeader.from_bytes(seq.to_bytes()) == seq
        assert decode_sequence(encode_sequence(seq)) == seq
        assert decode_sequence(memoryview(encode_sequence(seq))) == seq
        meta = {"width": seq.width, "anchors": [0, 6], "name": "w\u00e4ll"}
        assert decode_seq_payload(encode_seq_payload(meta, seq)) == (meta, seq)

    def test_a_stream_cannot_say_bit_rate_zero(self):
        out = SequenceHeader.from_bytes(SequenceHeader(64, 48).to_bytes())
        assert out == SequenceHeader(64, 48, bit_rate=1)

    @pytest.mark.parametrize("seq", CASES[1::3])
    def test_every_truncation_is_a_bitstream_error(self, seq):
        coded = seq.to_bytes()
        for cut in range(len(coded)):
            with pytest.raises(BitstreamError):
                SequenceHeader.from_bytes(coded[:cut])

    def test_what_is_not_a_sequence_header_is_refused_not_run(self, tmp_path):
        import pickle

        class Touch:
            def __reduce__(self):
                return (open, (str(tmp_path / "ran"), "w"))

        for payload in (pickle.dumps(Touch()), pickle.dumps(self.CASES[0]), b"", b"\x00" * 40,
                        b"junk" + self.CASES[0].to_bytes()):
            with pytest.raises(BitstreamError):
                SequenceHeader.from_bytes(payload)
        assert not (tmp_path / "ran").exists()


class TestGOPHeader:
    @pytest.mark.parametrize("closed,broken", [(True, False), (False, True)])
    def test_roundtrip(self, closed, broken):
        bw = BitWriter()
        GOPHeader(closed_gop=closed, broken_link=broken, time_code=12345).write(bw)
        br = BitReader(bw.getvalue())
        assert br.next_start_code() == GROUP_START_CODE
        out = GOPHeader.parse(br)
        assert out.closed_gop == closed
        assert out.broken_link == broken
        assert out.time_code == 12345


class TestPictureUnitAsBytes:
    """How a coded picture crosses from the root to a splitter (the
    cluster's ``MSG_PICTURE``): a fixed head, the GOP header as its own coded
    bytes, the picture's bytes -- no pickle."""

    DATA = bytes(range(256)) * 3

    @staticmethod
    def _units():
        from repro.mpeg2.parser import PictureUnit

        data = TestPictureUnitAsBytes.DATA
        return [
            PictureUnit(0, data, new_gop=True, gop=GOPHeader(True, False, 12345)),
            PictureUnit(7, data[:5], new_gop=True, gop=GOPHeader(False, True, (1 << 25) - 1)),
            PictureUnit(2**32 - 1, data, new_gop=False, gop=None),
            PictureUnit(3, b"", new_gop=True, gop=None),
        ]

    def test_roundtrip_with_and_without_a_gop_header(self):
        from repro.cluster.runtime.messages import decode_picture, encode_picture

        for nsid, unit in enumerate(self._units()):
            buffers = encode_picture(nsid, unit, 1234.5 + nsid)
            assert buffers[-1].obj is unit.data  # the picture's bytes are not copied
            payload = b"".join(bytes(b) for b in buffers)
            for wire in (payload, memoryview(payload), bytearray(payload)):
                assert decode_picture(wire) == (nsid, unit, 1234.5 + nsid)
            assert type(decode_picture(payload)[1].data) is bytes
        assert GOPHeader.from_bytes(GOPHeader(False, True, 99).to_bytes()) == GOPHeader(False, True, 99)

    def test_every_truncation_and_byte_mutation_is_refused_or_a_record(self):
        from repro.cluster.runtime.messages import decode_picture, encode_picture
        from repro.mpeg2.parser import PictureUnit

        outcomes = {"refused": 0, "record": 0}

        def drive(wire):
            try:
                nsid, unit, stamp = decode_picture(wire)
            except (ValueError, BitstreamError):
                outcomes["refused"] += 1
                return
            assert isinstance(unit, PictureUnit) and type(unit.data) is bytes
            assert unit.gop is None or isinstance(unit.gop, GOPHeader)
            assert isinstance(stamp, float) and isinstance(unit.new_gop, bool)
            outcomes["record"] += 1

        for unit in self._units()[:3]:
            payload = b"".join(bytes(b) for b in encode_picture(1, unit, 2.0))
            head = len(payload) - len(unit.data)
            for cut in range(len(payload)):
                drive(payload[:cut])
            for at in range(head + 2):  # the head, the GOP header, into the picture
                for value in (0, 1, 2, 8, 0x7F, 0x80, 0xB8, 0xFF):
                    damaged = bytearray(payload)
                    damaged[at] = value
                    drive(bytes(damaged))
        assert outcomes["refused"] > 100 and outcomes["record"] > 100

    def test_what_is_not_a_picture_message_is_refused_not_run(self, tmp_path):
        import pickle

        from repro.cluster.runtime.messages import decode_picture

        class Touch:
            def __reduce__(self):
                return (open, (str(tmp_path / "ran"), "w"))

        unit = self._units()[0]
        for payload in (pickle.dumps(Touch()), pickle.dumps((1, unit, 0.0)), pickle.dumps((1, unit)), b""):
            with pytest.raises((ValueError, BitstreamError)):
                decode_picture(payload)
        for junk in (b"", b"\x00" * 8, b"junk" + GOPHeader().to_bytes(), GOPHeader().to_bytes() + b"\x00"):
            with pytest.raises(BitstreamError):
                GOPHeader.from_bytes(junk)
        assert not (tmp_path / "ran").exists()


class TestPictureHeader:
    def _roundtrip(self, hdr: PictureHeader) -> PictureHeader:
        bw = BitWriter()
        hdr.write(bw)
        br = BitReader(bw.getvalue())
        assert br.next_start_code() == PICTURE_START_CODE
        return PictureHeader.parse(br)

    def test_i_picture(self):
        out = self._roundtrip(PictureHeader(5, PictureType.I))
        assert out.picture_type == PictureType.I
        assert out.temporal_reference == 5
        assert out.f_code == ((15, 15), (15, 15))

    def test_p_picture_f_codes(self):
        hdr = PictureHeader(9, PictureType.P, f_code=((3, 2), (15, 15)))
        out = self._roundtrip(hdr)
        assert out.picture_type == PictureType.P
        assert out.f_code == ((3, 2), (15, 15))
        assert out.f_code_for(0, 0) == 3
        assert out.f_code_for(0, 1) == 2

    def test_b_picture_f_codes(self):
        hdr = PictureHeader(2, PictureType.B, f_code=((2, 2), (3, 3)))
        out = self._roundtrip(hdr)
        assert out.picture_type == PictureType.B
        assert out.f_code == ((2, 2), (3, 3))

    def test_temporal_reference_wraps_at_10_bits(self):
        out = self._roundtrip(PictureHeader(1023, PictureType.I))
        assert out.temporal_reference == 1023

    def test_missing_extension_rejected(self):
        bw = BitWriter()
        bw.write_start_code(PICTURE_START_CODE)
        bw.write(0, 10)
        bw.write(int(PictureType.I), 3)
        bw.write(0xFFFF, 16)
        bw.write(0, 1)  # extra_bit_picture
        bw.write_start_code(GROUP_START_CODE)  # wrong: not an extension
        br = BitReader(bw.getvalue())
        br.next_start_code()
        with pytest.raises(BitstreamError):
            PictureHeader.parse(br)
