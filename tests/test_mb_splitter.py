"""Second-level splitter: sub-picture construction and MEI derivation."""

import pytest

from repro.mpeg2.constants import MB_SIZE, PictureType
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.subpicture import RunRecord, SkipRecord
from repro.wall.layout import TileLayout

#: What checks and assembles every plan of this module (conftest's
#: ``plan_engine``): the C kernel here, and the numpy bodies it is a port of
#: in ``tests/test_python_engine.py``, which collects these cases again.
PLAN_ENGINE = "native"
pytestmark = pytest.mark.usefixtures("plan_engine")


@pytest.fixture(scope="module")
def split_setup(small_stream):
    seq, pics = PictureScanner(small_stream).scan()
    layout = TileLayout(seq.width, seq.height, 3, 2, overlap=0)
    splitter = MacroblockSplitter(seq, layout)
    results = [splitter.split(u, i) for i, u in enumerate(pics)]
    parser = MacroblockParser(seq)
    parsed = [parser.parse_picture(u.data) for u in pics]
    return seq, layout, results, parsed


class TestSubPictureConstruction:
    def test_every_tile_gets_a_subpicture(self, split_setup):
        _, layout, results, _ = split_setup
        for res in results:
            assert set(res.subpictures) == {t.tid for t in layout}

    def test_macroblock_coverage_per_tile(self, split_setup):
        """Each tile's sub-picture reconstructs exactly the macroblocks
        whose squares intersect its display rect."""
        seq, layout, results, parsed = split_setup
        mb_w = seq.width // MB_SIZE
        for res, pic in zip(results, parsed):
            for tile in layout:
                expected = {
                    it.mb.address
                    for it in pic.items
                    if tile.tid
                    in layout.tiles_for_mb(
                        it.mb.address % mb_w, it.mb.address // mb_w
                    )
                }
                sp = res.subpictures[tile.tid]
                got = set()
                for rec in sp.records:
                    if isinstance(rec, RunRecord):
                        # runs are contiguous from the SPH address
                        got.update(
                            range(rec.sph.address, rec.sph.address + rec.n_total)
                        )
                    else:
                        got.update(range(rec.address, rec.address + rec.count))
                assert got == expected, f"tile {tile.tid}"

    def test_runs_start_with_coded_macroblock(self, split_setup):
        _, _, results, parsed = split_setup
        for res, pic in zip(results, parsed):
            coded = {it.mb.address for it in pic.items if not it.mb.skipped}
            for sp in res.subpictures.values():
                for rec in sp.records:
                    if isinstance(rec, RunRecord):
                        assert rec.sph.address in coded
                        assert 1 <= rec.n_coded <= rec.n_total

    def test_runs_stay_within_one_row(self, split_setup):
        seq, _, results, _ = split_setup
        mb_w = seq.width // MB_SIZE
        for res in results:
            for sp in res.subpictures.values():
                for rec in sp.records:
                    if isinstance(rec, RunRecord):
                        first_row = rec.sph.address // mb_w
                        last_row = (rec.sph.address + rec.n_total - 1) // mb_w
                        assert first_row == last_row

    def test_skip_records_reference_skipped_macroblocks(self, split_setup):
        _, _, results, parsed = split_setup
        for res, pic in zip(results, parsed):
            skipped = {it.mb.address for it in pic.items if it.mb.skipped}
            for sp in res.subpictures.values():
                for rec in sp.records:
                    if isinstance(rec, SkipRecord):
                        for a in range(rec.address, rec.address + rec.count):
                            assert a in skipped

    def test_skip_bits_in_range(self, split_setup):
        _, _, results, _ = split_setup
        for res in results:
            for sp in res.subpictures.values():
                for rec in sp.records:
                    if isinstance(rec, RunRecord):
                        assert 0 <= rec.sph.skip_bits <= 7
                        assert len(rec.payload) >= (rec.sph.skip_bits + rec.nbits + 7) // 8 - 1

    def test_payload_is_substring_of_picture(self, split_setup):
        _, _, results, parsed = split_setup
        for res, pic in zip(results, parsed):
            for sp in res.subpictures.values():
                for rec in sp.records:
                    if isinstance(rec, RunRecord):
                        assert rec.payload in pic.data

    def test_sph_carries_picture_state(self, split_setup):
        """SPH predictors match the parser's snapshot for the first coded
        macroblock of the run."""
        _, _, results, parsed = split_setup
        for res, pic in zip(results, parsed):
            snaps = {
                it.mb.address: it.state_before
                for it in pic.items
                if not it.mb.skipped
            }
            for sp in res.subpictures.values():
                for rec in sp.records:
                    if isinstance(rec, RunRecord):
                        snap = snaps[rec.sph.address]
                        assert rec.sph.qscale_code == snap["qscale_code"]
                        assert list(rec.sph.dc_pred) == snap["dc_pred"]
                        assert [list(p) for p in rec.sph.pmv] == snap["pmv"]


class TestMEIDerivation:
    def test_duality(self, split_setup):
        _, layout, results, _ = split_setup
        for res in results:
            sends = sorted(
                (src, dst, repr(x))
                for src in range(layout.n_tiles)
                for x, dst in res.mei.program(src).sends
            )
            recvs = sorted(
                (src, dst, repr(x))
                for dst in range(layout.n_tiles)
                for x, src in res.mei.program(dst).recvs
            )
            assert sends == recvs

    def test_i_pictures_have_no_exchanges(self, split_setup):
        _, _, results, _ = split_setup
        for res in results:
            if res.picture_type == PictureType.I:
                assert res.mei.total_exchanges() == 0

    def test_pieces_lie_in_sender_partition(self, split_setup):
        _, layout, results, _ = split_setup
        for res in results:
            for src in range(layout.n_tiles):
                part = layout.tile(src).partition
                for x, _ in res.mei.program(src).sends:
                    if x.luma.area:
                        assert part.contains(x.luma)

    def test_recv_pieces_outside_coverage(self, split_setup):
        """A tile never receives what it already reconstructs itself."""
        _, layout, results, _ = split_setup
        for res in results:
            for dst in range(layout.n_tiles):
                cov = layout.tile(dst).coverage
                for x, _ in res.mei.program(dst).recvs:
                    if x.luma.area:
                        assert not cov.contains(x.luma)

    def test_single_tile_has_no_exchanges(self, small_stream):
        seq, pics = PictureScanner(small_stream).scan()
        layout = TileLayout(seq.width, seq.height, 1, 1)
        splitter = MacroblockSplitter(seq, layout)
        for i, u in enumerate(pics):
            assert splitter.split(u, i).mei.total_exchanges() == 0


class TestLayoutMismatch:
    def test_wrong_raster_rejected(self, small_stream):
        seq, _ = PictureScanner(small_stream).scan()
        bad = TileLayout(seq.width * 2, seq.height, 2, 1)
        with pytest.raises(ValueError):
            MacroblockSplitter(seq, bad)
