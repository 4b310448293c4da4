"""Table B.15 (intra_vlc_format = 1) end to end."""

import pytest

from repro.bitstream import BitReader, BitWriter
from repro.mpeg2 import psnr, vlc
from repro.mpeg2.constants import PICTURE_START_CODE, PictureType
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.structures import PictureHeader
from repro.parallel.pipeline import ParallelDecoder
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames


class TestCoefficientCodec:
    @pytest.mark.parametrize(
        "rl",
        [
            [(0, 1)],
            [(0, 3), (1, 1), (2, -2)],
            [(0, -1), (5, 1), (0, 7)],
            [(13, 1), (0, 200)],  # (0, 200) escapes
            [(63, 1)],  # escapes (run beyond table)
        ],
    )
    def test_roundtrip(self, rl):
        bw = BitWriter()
        vlc.encode_coefficients(bw, rl, intra=True, table_one=True)
        out = vlc.decode_coefficients(
            BitReader(bw.getvalue()), intra=True, table_one=True
        )
        assert out == rl

    def test_short_codes_shorter_than_b14(self):
        """B.15's raison d'etre: common intra pairs cost fewer bits."""
        def bits(table_one):
            bw = BitWriter()
            vlc.encode_coefficients(
                bw, [(0, 3), (0, 5), (0, 7)], intra=True, table_one=table_one
            )
            return len(bw)

        assert bits(True) < bits(False)

    def test_table_one_rejected_for_non_intra(self):
        with pytest.raises(ValueError):
            vlc.encode_coefficients(BitWriter(), [(0, 1)], intra=False, table_one=True)
        with pytest.raises(ValueError):
            vlc.decode_coefficients(BitReader(b"\x00"), intra=False, table_one=True)

    def test_distinct_eob(self):
        """Table one's EOB is 4 bits ('0110'), not 2."""
        bw = BitWriter()
        vlc.encode_coefficients(bw, [], intra=True, table_one=True)
        assert len(bw) == 4
        bw0 = BitWriter()
        vlc.encode_coefficients(bw0, [], intra=True, table_one=False)
        assert len(bw0) == 2


class TestHeaderField:
    def test_roundtrip(self):
        hdr = PictureHeader(0, PictureType.I, intra_vlc_format=1)
        bw = BitWriter()
        hdr.write(bw)
        br = BitReader(bw.getvalue())
        assert br.next_start_code() == PICTURE_START_CODE
        assert PictureHeader.parse(br).intra_vlc_format == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(intra_vlc_format=2)


#: The slice walk under ``TestEndToEnd`` (conftest's ``parse_engine``);
#: ``tests/test_python_engine.py`` collects the class again on the other.
PARSE_ENGINE = "native"


@pytest.mark.usefixtures("parse_engine")
class TestEndToEnd:
    @pytest.fixture(scope="class")
    def clip(self):
        return moving_pattern_frames(96, 64, 6, seed=7)

    def test_roundtrip_decodes(self, clip):
        enc = Encoder(EncoderConfig(gop_size=3, b_frames=1, intra_vlc_format=1))
        data = enc.encode(clip)
        out = decode_stream(data)
        assert len(out) == len(clip)
        assert min(psnr(a, b) for a, b in zip(clip, out)) > 30

    def test_identical_pixels_to_format_zero(self, clip):
        """The table changes bits, never reconstruction."""
        d0 = Encoder(EncoderConfig(gop_size=3, b_frames=1, intra_vlc_format=0)).encode(clip)
        d1 = Encoder(EncoderConfig(gop_size=3, b_frames=1, intra_vlc_format=1)).encode(clip)
        f0 = decode_stream(d0)
        f1 = decode_stream(d1)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(f0, f1))
        assert len(d0) != len(d1)  # but the bitstreams differ

    def test_parallel_decode_matches(self, clip):
        """intra_vlc_format rides the sub-picture header; the tile decoders
        must parse the copied intra macroblock bits with the right table."""
        enc = Encoder(EncoderConfig(gop_size=6, b_frames=2, intra_vlc_format=1))
        data = enc.encode(clip)
        ref = decode_stream(data)
        layout = TileLayout(96, 64, 2, 2, overlap=4)
        out = ParallelDecoder(layout, k=2, verify_overlaps=True).decode(data)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, out))
