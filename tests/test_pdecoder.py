"""Tile decoder unit tests: routing, ordering, references, MEI execution."""

import numpy as np
import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.motion import Rect
from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.mei import BWD, FWD, BlockXfer
from repro.parallel.pdecoder import PixelBlock, TileDecoder
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
            xfer=BlockXfer(Rect(0, 0, 4, 4), Rect(0, 0, 2, 2), FWD),
            src=1,
            dest=1,  # not this decoder
            y=np.zeros((4, 4), np.uint8),
            cb=None,
            cr=None,
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
        xfer = BlockXfer(Rect(40, 8, 48, 24), Rect(20, 4, 24, 12), FWD)
        from repro.parallel.mei import MEIProgram

        prog = MEIProgram(tile=0, picture_index=1, sends=[(xfer, 1)])
        blocks = src.execute_sends(prog, PictureType.P)
        assert len(blocks) == 1
        assert blocks[0].nbytes == xfer.payload_bytes
        dst.apply_recv(blocks[0], PictureType.P)
        assert (dst.chain.held.y[8:24, 40:48] == 99).all()
        assert src.stats.serve_bytes == dst.stats.fetch_bytes == xfer.payload_bytes

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
