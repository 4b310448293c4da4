"""VBV buffer model, GOP random access, and error concealment."""

import numpy as np
import pytest

from repro.mpeg2.decoder import Decoder, decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import PictureScanner
from repro.mpeg2.ratecontrol import RateControlConfig, RateControlledEncoder
from repro.mpeg2.vbv import check_stream, simulate_vbv
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.pdecoder import TileDecoder
from repro.parallel.subpicture import RunRecord
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import fish_tank_frames


class TestVBVModel:
    def test_steady_stream_ok(self):
        # constant-size pictures exactly at the channel rate
        res = simulate_vbv([1000] * 50, bit_rate=30_000, fps=30.0, buffer_bits=50_000)
        assert res.ok
        assert res.min_occupancy >= 1000

    def test_oversized_picture_underflows(self):
        sizes = [1000] * 10 + [100_000]
        res = simulate_vbv(sizes, bit_rate=30_000, fps=30.0, buffer_bits=50_000)
        assert not res.ok
        assert res.underflows == [10]

    def test_starved_channel_underflows_everywhere(self):
        res = simulate_vbv(
            [2000] * 20, bit_rate=30_000, fps=30.0,
            buffer_bits=8_000, initial_delay=0.1,
        )
        assert res.underflows  # 2000 bits/frame > 1000 arriving per tick

    def test_tiny_pictures_overflow(self):
        res = simulate_vbv(
            [10] * 30, bit_rate=300_000, fps=30.0, buffer_bits=20_000
        )
        assert res.overflows  # channel outpaces consumption; buffer clamps

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            simulate_vbv([1], bit_rate=0, fps=30)

    def test_rate_controlled_stream_fits_vbv(self):
        """The rate controller's output survives the VBV at ~1.3x its
        average rate with a standard MP@ML buffer."""
        frames = fish_tank_frames(160, 96, 24, seed=9)
        enc = RateControlledEncoder(
            EncoderConfig(gop_size=6, b_frames=2),
            RateControlConfig(target_bpp=0.3),
        )
        data = enc.encode(frames)
        nominal = 8 * len(data) / (len(frames) / 30.0)  # bits per second
        res = check_stream(data, bit_rate=1.3 * nominal, fps=30.0)
        assert res.ok, (res.underflows, res.overflows)


class TestGOPSeek:
    @pytest.fixture(scope="class")
    def clip_stream(self):
        frames = fish_tank_frames(96, 64, 18, seed=2)
        return frames, Encoder(EncoderConfig(gop_size=6, b_frames=2)).encode(frames)

    def test_seek_points(self, clip_stream):
        _, stream = clip_stream
        points = Decoder.seek_points(stream)
        assert points[0] == 0
        assert len(points) == 3  # 18 frames / gop 6

    def test_decode_from_each_gop(self, clip_stream):
        frames, stream = clip_stream
        full = decode_stream(stream)
        for g in range(3):
            tail = Decoder().decode_from_gop(stream, g)
            expect = full[g * 6 :]
            assert len(tail) == len(expect)
            for a, b in zip(expect, tail):
                assert a.max_abs_diff(b) == 0

    def test_seek_past_end_rejected(self, clip_stream):
        _, stream = clip_stream
        with pytest.raises(ValueError):
            Decoder().decode_from_gop(stream, 99)

    def test_open_gop_seek_rejected(self):
        frames = fish_tank_frames(96, 64, 12, seed=3)
        stream = Encoder(
            EncoderConfig(gop_size=6, b_frames=2, closed_gop=False)
        ).encode(frames)
        with pytest.raises(ValueError):
            Decoder().decode_from_gop(stream, 1)


class TestErrorConcealment:
    @pytest.fixture(scope="class")
    def split_setup(self):
        frames = fish_tank_frames(96, 64, 6, seed=4)
        stream = Encoder(EncoderConfig(gop_size=6, b_frames=1)).encode(frames)
        seq, pics = PictureScanner(stream).scan()
        layout = TileLayout(seq.width, seq.height, 2, 1)
        splitter = MacroblockSplitter(seq, layout)
        return seq, layout, splitter, pics

    def _corrupt(self, sp):
        """Flip bits inside the largest run record's payload."""
        runs = [r for r in sp.records if isinstance(r, RunRecord)]
        rec = max(runs, key=lambda r: len(r.payload))
        bad = bytearray(rec.payload)
        for i in range(min(6, len(bad))):
            bad[i] ^= 0xFF
        rec.payload = bytes(bad)
        return sp

    def test_strict_decoder_raises(self, split_setup):
        seq, layout, splitter, pics = split_setup
        dec = TileDecoder(layout.tile(0), layout, seq)
        result = splitter.split(pics[0], 0)
        with pytest.raises(Exception):
            dec.decode_subpicture(self._corrupt(result.subpictures[0]))

    def test_concealing_decoder_survives(self, split_setup):
        seq, layout, splitter, pics = split_setup
        dec = TileDecoder(layout.tile(0), layout, seq, conceal_errors=True)
        # picture 0 decodes cleanly (builds a reference)...
        r0 = splitter.split(pics[0], 0)
        dec.decode_subpicture(r0.subpictures[0])
        # ...picture 1 arrives corrupted
        r1 = splitter.split(pics[1], 1)
        dec.decode_subpicture(self._corrupt(r1.subpictures[0]))
        assert dec.stats.records_failed >= 1
        assert dec.stats.macroblocks_concealed > 0

    def test_concealment_copies_reference(self, split_setup):
        """Concealed macroblocks show the previous anchor's pixels."""
        seq, layout, splitter, pics = split_setup
        dec = TileDecoder(layout.tile(0), layout, seq, conceal_errors=True)
        r0 = splitter.split(pics[0], 0)
        dec.decode_subpicture(r0.subpictures[0])
        anchor = dec.chain.held.copy()
        r1 = splitter.split(pics[1], 1)
        sp = r1.subpictures[0]
        # corrupt every run so the whole tile conceals
        for rec in sp.records:
            if isinstance(rec, RunRecord):
                rec.payload = b"\xff" * len(rec.payload)
        dec.decode_subpicture(sp)
        part = layout.tile(0).partition
        a = dec.chain.held.y[part.y0 : part.y1, part.x0 : part.x1]
        b = anchor.y[part.y0 : part.y1, part.x0 : part.x1]
        assert np.array_equal(a, b)
