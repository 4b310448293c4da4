"""Tile decoder unit tests: routing, ordering, references, MEI execution."""

import numpy as np
import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.mei import BWD, FWD, MEIProgram, PixelBlock
from repro.parallel.pdecoder import TileDecoder
from repro.parallel.subpicture import SubPicture
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames


@pytest.fixture(scope="module")
def setup():
    frames = moving_pattern_frames(96, 64, 7, seed=8)
    stream = Encoder(EncoderConfig(gop_size=7, b_frames=2)).encode(frames)
    seq, pics = PictureScanner(stream).scan()
    layout = TileLayout(seq.width, seq.height, 2, 1)
    splitter = MacroblockSplitter(seq, layout)
    results = [splitter.split(u, i) for i, u in enumerate(pics)]
    return seq, layout, results


def _decoder(setup, tid=0, **kw):
    seq, layout, _ = setup
    return TileDecoder(layout.tile(tid), layout, seq, **kw)


class TestRouting:
    def test_wrong_tile_rejected(self, setup):
        _, _, results = setup
        dec = _decoder(setup, tid=0)
        with pytest.raises(ValueError):
            dec.decode_subpicture(results[0].subpictures[1])

    def test_out_of_order_rejected(self, setup):
        _, _, results = setup
        dec = _decoder(setup, tid=0)
        with pytest.raises(ValueError, match="out of order"):
            dec.decode_subpicture(results[1].subpictures[0])

    def test_misdelivered_block_rejected(self, setup):
        dec = _decoder(setup, tid=0)
        blk = PixelBlock(
            src=1,
            dest=1,  # not this decoder
            rows=np.array([[0, 0, 4, 4, 0, 0, 0, 0, FWD, 1]], np.int32),
            pixels=np.zeros(16, np.uint8),
        )
        with pytest.raises(ValueError):
            dec.apply_recv(blk, PictureType.P)


    def test_subpicture_bytes_are_the_wire_length(self, small_stream):
        """``deserialize`` records what it read, the way ``TilePlan.wire_bytes``
        does, and the decoder counts that: every tile of a 2x2 split."""
        sequence, pictures = PictureScanner(small_stream).scan()
        layout = TileLayout(sequence.width, sequence.height, 2, 2)
        splitter = MacroblockSplitter(sequence, layout)
        decoders = {t.tid: TileDecoder(t, layout, sequence) for t in layout}
        for i, unit in enumerate(pictures):
            for tid, sp in splitter.split(unit, i).subpictures.items():
                assert sp.wire_bytes == 0  # never crossed a wire
                data = sp.serialize()
                received = SubPicture.deserialize(data)
                assert received.wire_bytes == len(data)
                before = decoders[tid].stats.subpicture_bytes
                decoders[tid].decode_subpicture(received)
                assert decoders[tid].stats.subpicture_bytes - before == received.wire_bytes


class TestReferences:
    def test_p_before_i_rejected(self, setup):
        _, _, results = setup
        dec = _decoder(setup, tid=0)
        # force the first delivery to be the P picture (index mismatch is
        # checked first, so rewrite its index)
        sp = results[1].subpictures[0]
        sp.picture_index = 0
        try:
            with pytest.raises(ValueError):
                dec.decode_subpicture(sp)
        finally:
            sp.picture_index = 1  # shared fixture: undo the mutation

    def test_reference_for_direction(self, setup):
        dec = _decoder(setup, tid=0)
        a = Frame.blank(96, 64, y=10)
        b = Frame.blank(96, 64, y=20)
        dec.chain.prev_anchor, dec.chain.held = a, b
        assert dec._ref_for_direction(FWD, PictureType.P) is b
        assert dec._ref_for_direction(FWD, PictureType.B) is a
        assert dec._ref_for_direction(BWD, PictureType.B) is b
        with pytest.raises(ValueError):
            dec._ref_for_direction(BWD, PictureType.P)
        with pytest.raises(ValueError):
            dec._ref_for_direction(7, PictureType.P)

    def test_missing_reference_detected(self, setup):
        dec = _decoder(setup, tid=0)
        with pytest.raises(ValueError):
            dec._ref_for_direction(FWD, PictureType.P)


class TestMEIExecution:
    def test_send_then_recv_moves_pixels(self, setup):
        seq, layout, _ = setup
        src = _decoder(setup, tid=0)
        dst = _decoder(setup, tid=1)
        ref_src = Frame.blank(96, 64, y=99)
        src.chain.held = ref_src
        dst.chain.held = Frame.blank(96, 64, y=0)
        row = [40, 8, 48, 24, 20, 4, 24, 12, FWD, 1]
        prog = MEIProgram(tile=0, picture_index=1, sends=np.array([row], np.int32))
        blocks = src.execute_sends(prog, PictureType.P)
        assert len(blocks) == 1
        assert blocks[0].nbytes == prog.send_payload_bytes == 8 * 16 + 2 * 4 * 8
        dst.apply_recv(blocks[0], PictureType.P)
        assert (dst.chain.held.y[8:24, 40:48] == 99).all()
        assert src.stats.serve_bytes == dst.stats.fetch_bytes == prog.send_payload_bytes

    def test_one_block_per_destination_packs_planes_in_row_order(self, setup):
        """Rows for two peers, both directions and a luma-only piece: one
        block per peer, its samples luma pieces first, then Cb, then Cr,
        each in row order; the receiver writes each back where it was."""
        seq = setup[0]
        layout = TileLayout(seq.width, seq.height, 3, 1)
        src = TileDecoder(layout.tile(0), layout, seq)
        rng = np.random.default_rng(3)
        fwd = Frame.blank(96, 64)
        bwd = Frame.blank(96, 64)
        for f in (fwd, bwd):
            for plane in (f.y, f.cb, f.cr):
                plane[...] = rng.integers(0, 256, plane.shape)
        src.chain.prev_anchor, src.chain.held = fwd, bwd
        rows = [
            [40, 8, 48, 24, 20, 4, 24, 12, FWD, 2],
            [60, 40, 77, 57, 30, 20, 39, 29, BWD, 1],
            [50, 0, 56, 2, 0, 0, 0, 0, FWD, 2],
            [0, 48, 3, 64, 0, 24, 2, 32, BWD, 2],
        ]
        prog = MEIProgram(tile=0, picture_index=2, sends=np.array(rows, np.int32))
        blocks = src.execute_sends(prog, PictureType.B)
        assert [(b.src, b.dest) for b in blocks] == [(0, 1), (0, 2)]
        for block in blocks:
            mine = [r for r in rows if r[9] == block.dest]
            assert block.rows.tolist() == mine
            refs = {FWD: fwd, BWD: bwd}
            want = [refs[r[8]].y[r[1]:r[3], r[0]:r[2]].ravel() for r in mine]
            for plane in ("cb", "cr"):
                want += [
                    getattr(refs[r[8]], plane)[r[5]:r[7], r[4]:r[6]].ravel() for r in mine
                ]
            assert np.array_equal(block.pixels, np.concatenate(want))
            dst = TileDecoder(layout.tile(block.dest), layout, seq)
            dst.chain.prev_anchor, dst.chain.held = Frame.blank(96, 64), Frame.blank(96, 64)
            dst.apply_recv(block, PictureType.B)
            got = {FWD: dst.chain.prev_anchor, BWD: dst.chain.held}
            for r in mine:
                for plane, (x0, y0, x1, y1) in (("y", r[0:4]), ("cb", r[4:8]), ("cr", r[4:8])):
                    assert np.array_equal(
                        getattr(got[r[8]], plane)[y0:y1, x0:x1],
                        getattr(refs[r[8]], plane)[y0:y1, x0:x1],
                    )

    @pytest.mark.parametrize(
        "row, n_pixels, match",
        [
            ([90, 0, 97, 4, 0, 0, 0, 0, FWD, 0], 28, "raster"),  # luma past the edge
            ([0, 0, 4, 4, 0, 30, 2, 33, FWD, 0], 16 + 2 * 6, "raster"),  # chroma past it
            ([8, 0, 4, 4, 0, 0, 0, 0, FWD, 0], 0, "inverted"),
            ([0, 0, 4, 4, 0, 0, 0, 0, 3, 0], 16, "direction"),
            ([0, 0, 4, 4, 0, 0, 0, 0, BWD, 0], 16, "backward reference"),  # in a P picture
            ([0, 0, 4, 4, 0, 0, 0, 0, FWD, 0], 15, "samples"),  # one sample short
        ],
    )
    def test_a_block_that_does_not_fit_is_refused(self, setup, row, n_pixels, match):
        dec = _decoder(setup, tid=0)
        dec.chain.held = Frame.blank(96, 64, y=7)
        before = dec.chain.held.y.copy()
        blk = PixelBlock(1, 0, np.array([row], np.int32), np.zeros(n_pixels, np.uint8))
        with pytest.raises(ValueError, match=match):
            dec.apply_recv(blk, PictureType.P)
        assert np.array_equal(dec.chain.held.y, before)

    def test_display_reorder_matches_sequential(self, setup):
        """Anchors are held one picture; B frames emit immediately."""
        _, _, results = setup
        dec = _decoder(setup, tid=0)
        emitted = []
        for r in results:
            out = dec.decode_subpicture(r.subpictures[0])
            emitted.append(out is not None)
        tail = dec.flush()
        assert tail is not None
        # coded order I P B B P B B -> ready flags F T T T T T T
        assert emitted == [False, True, True, True, True, True, True]

    def test_stats_accumulate(self, setup):
        _, _, results = setup
        dec = _decoder(setup, tid=0)
        for r in results:  # through the wire: bytes are counted on receipt
            dec.decode_subpicture(SubPicture.deserialize(r.subpictures[0].serialize()))
        assert dec.stats.pictures_decoded == len(results)
        assert dec.stats.macroblocks_decoded > 0
        assert dec.stats.subpicture_bytes > 0
