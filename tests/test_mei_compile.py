"""The splitter's array pass against the per-macroblock walk.

``MacroblockSplitter._exchanges`` builds every picture's MEI programs as
integer tables in one array pass; ``tests.oracles.add_exchanges`` is the
scalar walk it replaced.  Both must give the same exchanges -- content and
order, hence the same programs row for row -- on uniform, non-uniform and
overlapping layouts, on encoded streams and on drawn vectors (half-pel,
zero, bidirectional, reads that touch the raster edge).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import ParsedPicture, PictureScanner
from repro.mpeg2.structures import SequenceHeader
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.mei import BWD, FWD, MEIBatch
from repro.parallel.partition import build_controller
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import localized_detail_frames, moving_pattern_frames
from tests.oracles import add_exchanges

#: Tile grids, (m, n): the spine's 2x1 and 2x2, and shapes around them.
GRIDS = [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3), (4, 3), (4, 4)]


def walk(layout: TileLayout, parsed, picture_index: int) -> MEIBatch:
    """The scalar MEI derivation: macroblock by macroblock in stream order,
    each tile it belongs to in tile order."""
    mei = MEIBatch(picture_index, layout.n_tiles)
    for item in parsed.items:
        mb_x = item.mb.address % parsed.mb_width
        mb_y = item.mb.address // parsed.mb_width
        for t in layout.tiles_for_mb(mb_x, mb_y):
            add_exchanges(layout, mei, item, t, mb_x, mb_y)
    return mei


def assert_same_mei(got: MEIBatch, want: MEIBatch, where=None) -> None:
    assert np.array_equal(got.exchanges, want.exchanges), where
    assert got.exchanges.dtype == np.int32
    assert got.total_exchanges() == want.total_exchanges(), where
    for t in range(want.n_tiles):
        a, b = got.program(t), want.program(t)
        assert np.array_equal(a.sends, b.sends), (where, t)
        assert np.array_equal(a.recvs, b.recvs), (where, t)


# ---------------------------------------------------------------------- #
# encoded streams: the spine's two kinds of content, small
# ---------------------------------------------------------------------- #


def _stream(kind: str) -> bytes:
    # 192x144: 12x9 macroblocks, so every grid above has whole-macroblock
    # tiles; a search range of 7 puts vectors across every cut.
    gen = {"pattern": moving_pattern_frames, "detail": localized_detail_frames}[kind]
    clip = gen(192, 144, 7, seed=4)
    return Encoder(EncoderConfig(gop_size=6, b_frames=2, search_range=7)).encode(clip)


@pytest.fixture(scope="module", params=["pattern", "detail"])
def parsed_stream(request):
    sequence, pictures = PictureScanner(_stream(request.param)).scan()
    splitter = MacroblockSplitter(sequence, TileLayout(sequence.width, sequence.height, 1, 1))
    return sequence, pictures, [splitter.parser.parse_picture(u.data) for u in pictures]


@pytest.mark.parametrize("grid", GRIDS)
def test_programs_equal_the_walk_on_every_grid(parsed_stream, grid):
    sequence, pictures, parsed = parsed_stream
    layout = TileLayout(sequence.width, sequence.height, *grid)
    splitter = MacroblockSplitter(sequence, layout)
    moved = 0
    for i, p in enumerate(parsed):
        want = walk(layout, p, i)
        assert_same_mei(splitter._exchanges(p, i), want, (grid, i))
        # both splitter paths ship the same programs
        assert_same_mei(splitter.compile_plans(p, i).mei, want, (grid, i))
        assert_same_mei(splitter.split(pictures[i], i).mei, want, (grid, i))
        moved += want.total_exchanges()
    # premise: on a wall, vectors do cross the cuts
    assert (moved > 0) == (grid != (1, 1))


def test_programs_equal_the_walk_with_overlap(parsed_stream):
    sequence, _, parsed = parsed_stream
    layout = TileLayout(sequence.width, sequence.height, 3, 3, overlap=16)
    splitter = MacroblockSplitter(sequence, layout)
    for i, p in enumerate(parsed):
        assert_same_mei(splitter._exchanges(p, i), walk(layout, p, i), i)


@pytest.mark.parametrize("policy", ["content", "feedback"])
def test_programs_equal_the_walk_on_adaptive_partitions(policy):
    """Non-uniform layouts as the partition controller issues them: the
    content policy fed the splitter's bit profile, the feedback policy fed
    a skewed busy time per tile."""
    stream = Encoder(EncoderConfig(gop_size=3, b_frames=1, search_range=7)).encode(
        localized_detail_frames(192, 144, 12, seed=2)
    )
    sequence, pictures = PictureScanner(stream).scan()
    base = TileLayout(sequence.width, sequence.height, 3, 2)
    controller = build_controller(policy, base)
    splitter = MacroblockSplitter(sequence, base, collect_content=policy == "content")
    seen = set()
    for i, unit in enumerate(pictures):
        controller.maybe_update(i, unit)
        layout = controller.schedule.layout_for(i)
        splitter.set_layout(layout)
        parsed = splitter.parser.parse_picture(unit.data)
        splitter._note_content(parsed)
        assert_same_mei(splitter._exchanges(parsed, i), walk(layout, parsed, i), (policy, i))
        seen.add((tuple(layout.x_bounds), tuple(layout.y_bounds)))
        if policy == "content":
            controller.observe_content(i, *splitter.last_content)
        else:
            for t in layout:
                controller.observe_execute(i, t.tid, 0.9 if t.tid == 0 else 0.1)
    # premise: the controller did move the cuts
    assert len(seen) > 1


# ---------------------------------------------------------------------- #
# drawn vectors
# ---------------------------------------------------------------------- #


class _Picture:
    """What the splitter and the walk read of a parsed picture, built from
    drawn macroblocks."""

    rows_in = ParsedPicture.rows_in

    def __init__(self, mb_width: int, mb_height: int, mbs: list):
        self.mb_width, self.mb_height = mb_width, mb_height
        n = len(mbs)
        motion = np.zeros((n, 2), bool)
        mv = np.zeros((n, 2, 2), np.int64)
        for i, mb in enumerate(mbs):
            for d, vec in ((FWD, mb.mv_fwd), (BWD, mb.mv_bwd)):
                if vec is not None:
                    motion[i, d] = True
                    mv[i, d] = vec
        self.columns = SimpleNamespace(
            address=np.array([mb.address for mb in mbs], np.int64),
            intra=np.array([mb.intra for mb in mbs], bool),
            motion=motion,
            mv=mv,
        )
        self.items = [SimpleNamespace(mb=mb) for mb in mbs]


def _vector(draw, pos: int, size: int):
    """A half-pel component whose read stays inside ``[0, size)``: often at
    or next to the edges, or zero."""
    lo, hi = -2 * 16 * pos, 2 * (size - 16 - 16 * pos)
    return draw(st.one_of(st.sampled_from([lo, lo + 1, 0, hi - 1, hi]), st.integers(lo, hi)))


@st.composite
def pictures(draw):
    mb_w, mb_h = draw(st.integers(2, 7)), draw(st.integers(2, 6))
    width, height = 16 * mb_w, 16 * mb_h
    bidirectional = draw(st.booleans())  # a B picture
    mbs = []
    for address in range(mb_w * mb_h):
        mb_x, mb_y = address % mb_w, address // mb_w
        intra = draw(st.integers(0, 5)) == 0
        fwd = bwd = None
        if not intra:
            kind = draw(st.sampled_from(["fwd", "bwd", "both"] if bidirectional else ["fwd"]))
            if kind in ("fwd", "both"):
                fwd = (_vector(draw, mb_x, width), _vector(draw, mb_y, height))
            if kind in ("bwd", "both"):
                bwd = (_vector(draw, mb_x, width), _vector(draw, mb_y, height))
        mbs.append(
            SimpleNamespace(
                address=address,
                intra=intra,
                motion_forward=fwd is not None,
                motion_backward=bwd is not None,
                mv_fwd=fwd,
                mv_bwd=bwd,
            )
        )
    m, n = draw(st.integers(1, min(4, mb_w))), draw(st.integers(1, min(4, mb_h)))
    overlap = draw(st.sampled_from([0, 0, 8]))
    if (m > 1 and overlap >= width // m) or (n > 1 and overlap >= height // n):
        overlap = 0
    return TileLayout(width, height, m, n, overlap=overlap), _Picture(mb_w, mb_h, mbs)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pictures())
def test_programs_equal_the_walk_on_drawn_vectors(case):
    layout, picture = case
    splitter = MacroblockSplitter(SequenceHeader(layout.width, layout.height), layout)
    assert_same_mei(splitter._exchanges(picture, 3), walk(layout, picture, 3))
