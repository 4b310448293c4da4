"""The columnar entropy decode against the object parser it replaced.

``MacroblockParser.parse_picture`` runs the fused slice parser
(``fast_vlc.parse_slice_columns``) and returns columns; plans are built from
them with numpy (``batch_reconstruct.plan_from_columns``,
``MacroblockSplitter.compile_plans``).  The macroblock-at-a-time paths in
:mod:`tests.oracles` — the object parser, :class:`PlanBuilder`, the scalar
plan compiler — are the references: same output on every valid stream, and
on damaged ones the same exception or the same output.
"""

import base64
import hashlib
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bitstream import BitstreamError, BitWriter
from repro.mpeg2 import fast_vlc, parser as parser_module, tables as T, vlc
from repro.mpeg2.constants import SEQUENCE_END_CODE, PictureType
from repro.mpeg2.decoder import decode_stream, reconstruct_picture
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.plan import QuantMatrices, plan_from_columns
from repro.mpeg2.structures import PictureHeader, SequenceHeader
from repro.mpeg2.vlc import VLCError
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import GENERATORS
from tests.oracles import (
    assert_same_plan,
    builder_plan,
    chen_wang_idct,
    compile_plans_reference,
    object_parse_picture,
    reference_decode,
    use_parse_engine,
)

#: The engines under every ``parse_picture`` and every plan of this module
#: (conftest's ``parse_engine`` and ``plan_engine``): the C kernels here, and
#: the Python loop and numpy bodies they are ports of in ``tests/
#: test_python_engine.py``, which collects these cases again.
PARSE_ENGINE = PLAN_ENGINE = "native"
pytestmark = pytest.mark.usefixtures("parse_engine", "plan_engine")


def test_the_engines_this_module_names_are_the_ones_that_serve(request, parse_engine, plan_engine):
    """No call made while a test of this module runs reaches the other
    engine: every dispatching name is bound to the named one."""
    from repro.mpeg2 import parser as parser_module, plan as plan_module

    named = request.module  # this one, or the one that collected its cases
    assert parse_engine == named.PARSE_ENGINE and plan_engine == named.PLAN_ENGINE
    suffix = "_native" if parse_engine == "native" else "_python"
    assert parser_module._parse.__name__ == "_parse" + suffix
    assert parser_module._walk_picture.__name__ == (
        "walk_picture" if parse_engine == "native" else "_walk_python"
    )
    assert (plan_module._build.__name__, plan_module._check.__name__) == (
        ("_build_native", "_check_native")
        if plan_engine == "native"
        else ("_build_numpy", "_check_vectors")
    )


# ---------------------------------------------------------------------- #
# comparisons
# ---------------------------------------------------------------------- #


def assert_same_parse(columnar, reference, lean):
    """Every field of every macroblock, through the ``items`` view."""
    assert columnar.n_coded == reference.n_coded
    assert columnar.n_skipped == reference.n_skipped
    assert len(columnar.items) == len(reference.items) == len(columnar.columns)
    for a, b in zip(columnar.items, reference.items):
        ma, mb = a.mb, b.mb
        assert (ma.address, ma.skipped, ma.type_flags()) == (
            mb.address, mb.skipped, mb.type_flags(),
        )
        assert (ma.qscale_code, ma.cbp) == (mb.qscale_code, mb.cbp)
        assert (ma.mv_fwd, ma.mv_bwd) == (mb.mv_fwd, mb.mv_bwd)
        assert (ma.bit_start, ma.body_start, ma.bit_end) == (
            mb.bit_start, mb.body_start, mb.bit_end,
        )
        assert (a.slice_row, a.slice_index) == (b.slice_row, b.slice_index)
        for sa, sb in zip(ma.blocks, mb.blocks):
            assert (sa is None) == (sb is None)
            if sa is not None:
                assert sa.dtype == sb.dtype and np.array_equal(sa, sb)
        if lean:
            assert a.state_before is None and b.state_before is None
        else:
            assert a.state_before == b.state_before


def assert_same_split(a, b, layout):
    assert a.mei._seen == b.mei._seen
    for tid in range(layout.n_tiles):
        pa, pb = a.mei.program(tid), b.mei.program(tid)
        assert pa.sends == pb.sends and pa.recvs == pb.recvs
        ta, tb = a.plans[tid], b.plans[tid]
        assert (ta.n_coded, ta.n_skipped) == (tb.n_coded, tb.n_skipped)
        assert_same_plan(ta.plan, tb.plan)


def outcome(fn):
    """``("ok", value)`` or ``("raised", class, message)``."""
    try:
        return ("ok", fn())
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc))


def assert_same_outcome(data, parser, sequence, matrices):
    """Both parsers on one (possibly damaged) picture unit: the same
    exception, or the same parse and then the same plan or staging error."""
    col = outcome(lambda: parser.parse_picture(data))
    ref = outcome(lambda: object_parse_picture(parser, data))
    assert col[0] == ref[0], (col, ref)
    if col[0] == "raised":
        assert col[1:] == ref[1:]
        return col[1]
    assert_same_parse(col[1], ref[1], lean=False)
    plan_c = outcome(
        lambda: plan_from_columns(col[1], sequence.width, sequence.height, matrices)
    )
    plan_r = outcome(lambda: builder_plan(ref[1], sequence, matrices))
    assert plan_c[0] == plan_r[0], (plan_c, plan_r)
    if plan_c[0] == "raised":
        assert plan_c[1:] == plan_r[1:]
        return plan_c[1]
    assert_same_plan(plan_c[1], plan_r[1])
    return None


# ---------------------------------------------------------------------- #
# valid streams: a differential over encoder configurations
# ---------------------------------------------------------------------- #


def _busy_quant(mb_x, mb_y, activity):
    """Quantiser changes on most macroblocks, down to escape-coded levels."""
    return (1, 3, 9, 30)[(mb_x + 2 * mb_y) % 4]


@st.composite
def encoder_cases(draw):
    b_frames = draw(st.integers(0, 2))
    cfg = EncoderConfig(
        gop_size=draw(st.integers(1, 4)),
        b_frames=b_frames,
        qscale_code_intra=draw(st.sampled_from([1, 2, 6, 20])),
        qscale_code_inter=draw(st.sampled_from([1, 3, 8, 24])),
        search_range=draw(st.sampled_from([1, 3, 7])),
        allow_skips=draw(st.booleans()),
        quant_modulator=draw(st.sampled_from([None, _busy_quant])),
        intra_dc_precision=draw(st.sampled_from([8, 9, 10])),
        intra_vlc_format=draw(st.integers(0, 1)),
        slices_per_row=draw(st.integers(1, 3)),
    )
    generator = draw(st.sampled_from(sorted(GENERATORS)))
    n_frames = draw(st.integers(1, 4))
    clip = GENERATORS[generator](64, 48, n_frames, seed=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        clip = clip[:1] * n_frames  # a still: skipped runs in P and B
    return cfg, clip


def _check_stream(stream, layout):
    sequence, pictures = PictureScanner(stream).scan()
    parser = MacroblockParser(sequence)
    splitter = MacroblockSplitter(sequence, layout)
    for i, unit in enumerate(pictures):
        reference = object_parse_picture(parser, unit.data)
        assert_same_parse(parser.parse_picture(unit.data), reference, lean=False)
        lean = parser.parse_picture(unit.data, lean=True)
        assert lean.columns.state is None
        assert_same_parse(lean, object_parse_picture(parser, unit.data, lean=True), True)
        assert_same_plan(
            plan_from_columns(lean, sequence.width, sequence.height, splitter.matrices),
            builder_plan(reference, sequence, splitter.matrices),
        )
        assert_same_split(
            splitter.compile_plans(lean, i),
            compile_plans_reference(splitter, reference, i),
            layout,
        )


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(encoder_cases())
def test_columnar_parse_and_plans_match_the_object_path(case):
    cfg, clip = case
    _check_stream(Encoder(cfg).encode(clip), TileLayout(64, 48, 2, 2))


def test_the_differential_reaches_every_syntax_shape():
    """Two fixed configurations that provably contain what the hypothesis
    test is meant to cover, so a generator change cannot hollow it out."""
    fine = EncoderConfig(
        gop_size=6, b_frames=2, qscale_code_intra=1, qscale_code_inter=1,
        search_range=3, quant_modulator=_busy_quant, intra_vlc_format=1,
        slices_per_row=2,
    )
    coarse = EncoderConfig(gop_size=6, b_frames=2, search_range=3, slices_per_row=2)
    moving = GENERATORS["broadcast"](128, 64, 6, seed=2)
    seen = {"escape": False, "quant": False}
    skipped = {PictureType.P: 0, PictureType.B: 0}
    for cfg, clip in ((fine, moving), (coarse, moving[:1] * 6)):
        stream = Encoder(cfg).encode(clip)
        _check_stream(stream, TileLayout(128, 64, 2, 2))
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        for unit in pictures:
            parsed = parser.parse_picture(unit.data)
            c = parsed.columns
            assert c.slice_index.max() + 1 == 2 * parser.mb_height
            ac = c.coef_level[c.coef_pos % 64 > 0]
            seen["escape"] |= bool((np.abs(ac) > 40).any())  # no code past 40
            seen["quant"] |= bool(c.quant.any())
            if parsed.header.picture_type in skipped:
                skipped[parsed.header.picture_type] += parsed.n_skipped
    assert all(seen.values()), seen
    assert skipped[PictureType.P] > 0 and skipped[PictureType.B] > 0


# ---------------------------------------------------------------------- #
# damaged input: same exception or same output, never a silent difference
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def busy_stream():
    cfg = EncoderConfig(
        gop_size=4, b_frames=1, search_range=3, quant_modulator=_busy_quant,
        slices_per_row=2,
    )
    stream = Encoder(cfg).encode(GENERATORS["pattern"](48, 32, 4, seed=11))
    sequence, pictures = PictureScanner(stream).scan()
    assert [u.data[5] >> 3 & 7 for u in pictures[:3]] == [1, 2, 3]  # I, P, B
    return sequence, pictures[:3]


def test_truncation_parity_at_every_byte(busy_stream):
    """Cutting a picture unit after any byte lands in every place a parser
    can run dry: picture header, extension, slice header, increment, type,
    quantiser, vectors, pattern, DC size and differential, run/level codes,
    escapes, and the zero padding before the next start code."""
    sequence, pictures = busy_stream
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    raised = set()
    for unit in pictures:
        for cut in range(len(unit.data)):
            raised.add(assert_same_outcome(unit.data[:cut], parser, sequence, matrices))
    assert {cls.__name__ for cls in raised if cls} >= {"BitstreamError", "VLCError"}


def test_bit_flip_parity(busy_stream):
    sequence, pictures = busy_stream
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    rng = random.Random(20260928)
    raised = {}
    for unit in pictures:
        for _ in range(1000):
            bit = rng.randrange(8 * len(unit.data))
            data = bytearray(unit.data)
            data[bit >> 3] ^= 0x80 >> (bit & 7)
            cls = assert_same_outcome(bytes(data), parser, sequence, matrices)
            raised[cls] = raised.get(cls, 0) + 1
    names = {cls.__name__ for cls in raised if cls}
    assert names >= {"BitstreamError", "VLCError", "ValueError"}, raised
    assert raised.get(None, 0) > 0  # some flips still parse, to equal output


def test_zero_quantiser_and_address_checks(busy_stream):
    """The checks a flip rarely hits, forced: a slice quantiser of zero and
    a slice placed beyond the last macroblock row."""
    sequence, pictures = busy_stream
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    data = pictures[0].data
    first = data.index(b"\x00\x00\x01\x01")
    zero_q = bytearray(data)
    zero_q[first + 4] &= 0x07
    low_row = bytearray(data)
    low_row[first + 3] = sequence.height // 16 + 1
    for damaged in (zero_q, low_row):
        assert assert_same_outcome(bytes(damaged), parser, sequence, matrices) is not None


def test_missing_macroblocks_are_reported(busy_stream):
    sequence, pictures = busy_stream
    parser = MacroblockParser(sequence)
    data = pictures[0].data
    last = data.rindex(b"\x00\x00\x01")
    parsed = parser.parse_picture(data[:last])  # drop the last slice
    reference = object_parse_picture(parser, data[:last])
    missing = parser.mb_width * parser.mb_height - len(
        {it.mb.address for it in reference.items}
    )
    assert missing > 0
    with pytest.raises(ValueError, match=f"picture is missing {missing} macro"):
        reconstruct_picture(parsed, sequence, None, None)

    # the last slice twice: nothing is missing, its addresses are coded twice
    twice = parser.parse_picture(data + data[last:])
    with pytest.raises(
        ValueError, match=f"picture codes {missing} macroblock addresses more than once"
    ):
        reconstruct_picture(twice, sequence, None, None)


def test_rect_plan_matches_builder_over_the_same_macroblocks(busy_stream):
    """``reconstruct_rect``'s box mask: the plan over a rect's macroblocks
    is the plan ``PlanBuilder`` makes from exactly those macroblocks."""
    sequence, pictures = busy_stream
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    for unit in pictures:
        parsed = parser.parse_picture(unit.data, lean=True)
        reference = object_parse_picture(parser, unit.data, lean=True)
        members = [
            it for it in reference.items if it.mb.address % parser.mb_width >= 1
        ]
        idx = np.flatnonzero(parsed.columns.address % parser.mb_width >= 1)
        assert_same_plan(
            plan_from_columns(parsed, sequence.width, sequence.height, matrices, idx),
            builder_plan(reference, sequence, matrices, members),
        )


def test_view_blocks_are_read_only_rows_of_the_stack(busy_stream):
    """A consumer of ``items`` cannot alter later plans: its blocks are rows
    of the picture's one coefficient stack, and that stack refuses writes."""
    sequence, pictures = busy_stream
    parsed = MacroblockParser(sequence).parse_picture(pictures[0].data)
    block = next(b for b in parsed.items[0].mb.blocks if b is not None)
    assert np.shares_memory(block, parsed.columns.scans)
    with pytest.raises(ValueError, match="read-only"):
        block[0] = 1


# ---------------------------------------------------------------------- #
# coefficient entries: what the slice loop defers to the expansion
# ---------------------------------------------------------------------- #

_LONG_RUN = (26, 1)  # three of them pass scan position 63
_MISS_BITS = 16  # sixteen zero bits where a coefficient code is due


class HandPicture:
    """One picture written a syntax element at a time, so a test can put a
    particular fault in a particular block."""

    def __init__(
        self, width, height, picture_type, intra_vlc_format=0, f_code=None,
        intra_dc_precision=8,
    ):
        self.sequence = SequenceHeader.for_video(width, height)
        if f_code is None:
            f_code = ((15, 15), (15, 15)) if picture_type == PictureType.I else ((1, 1), (15, 15))
        self.header = PictureHeader(
            0, picture_type, f_code=f_code, intra_vlc_format=intra_vlc_format,
            intra_dc_precision=intra_dc_precision,
        )
        self.bw = BitWriter()
        self.header.write(self.bw)

    def slice(self, row, qcode=4):
        self.bw.write_start_code(row + 1)
        self.bw.write(qcode, 5)  # quantiser_scale_code
        self.bw.write(0, 1)  # extra_bit_slice

    def intra_mb(self, blocks):
        """``blocks``: six ``(dc differential, [(run, level)...], closed)``."""
        vlc.encode_address_increment(self.bw, 1)
        vlc.mb_type_table(self.header.picture_type).encode(self.bw, (0, 0, 0, 0, 1))
        for b, (diff, pairs, closed) in enumerate(blocks):
            self._dc(b, diff)
            self._pairs(pairs, closed, True)

    def _dc(self, b, diff):
        size = abs(diff).bit_length()
        (vlc.DC_SIZE_LUMA if b < 4 else vlc.DC_SIZE_CHROMA).encode(self.bw, size)
        if size:
            self.bw.write(diff if diff > 0 else diff + (1 << size) - 1, size)

    def mb(self, increment=1, quant=None, fwd=None, bwd=None, dc=None, cbp=0):
        """Any macroblock, as the stream codes it: ``fwd`` / ``bwd`` are the
        motion *deltas* ``(dx, dy)`` of a direction, ``dc`` the six DC
        *differentials* of an intra macroblock (no AC), ``cbp`` the pattern
        of a coded one (each coded block one level at position 0), ``quant``
        a new quantiser_scale_code.  The type follows from what is given."""
        vlc.encode_address_increment(self.bw, increment)
        kind = (quant is not None, fwd is not None, bwd is not None, cbp != 0, dc is not None)
        vlc.mb_type_table(self.header.picture_type).encode(self.bw, tuple(map(int, kind)))
        if quant is not None:
            self.bw.write(quant, 5)
        for direction, deltas in enumerate((fwd, bwd)):
            for component, delta in enumerate(deltas or ()):
                r_size = self.header.f_code[direction][component] - 1
                vlc.encode_motion_delta(self.bw, delta, r_size)
        if dc is not None:
            for b, diff in enumerate(dc):
                self._dc(b, diff)
                self._pairs([], True, True)
        elif cbp:
            vlc.CBP.encode(self.bw, cbp)
            for _ in range(bin(cbp).count("1")):
                self._pairs([(0, 1)], True, False)

    def coded_mb(self, pairs, closed=True):
        """A P-picture "No MC, coded" macroblock whose one block is Y0."""
        vlc.encode_address_increment(self.bw, 1)
        vlc.mb_type_table(self.header.picture_type).encode(self.bw, (0, 0, 0, 1, 0))
        vlc.CBP.encode(self.bw, 32)
        self._pairs(pairs, closed, False)

    def _pairs(self, pairs, closed, intra):
        table_one = intra and self.header.intra_vlc_format == 1
        if closed:
            vlc.encode_coefficients(self.bw, pairs, intra, table_one)
            return
        scratch = BitWriter()  # the same codes without the EOB, then no code
        vlc.encode_coefficients(scratch, pairs, intra, table_one)
        eob_len = (T.EOB_CODE_T1 if table_one else T.EOB_CODE)[1]
        n = len(scratch) - eob_len
        codes = int.from_bytes(scratch.getvalue(), "big") >> (-len(scratch) % 8 + eob_len)
        self.bw.write(codes, n)
        self.bw.write(0, _MISS_BITS)

    def data(self):
        self.bw.write_start_code(SEQUENCE_END_CODE)  # what ends a slice
        return self.bw.getvalue()[:-4]

    def parse_both(self):
        data = self.data()
        parser = MacroblockParser(self.sequence)
        matrices = QuantMatrices.from_sequence(self.sequence)
        raised = assert_same_outcome(data, parser, self.sequence, matrices)
        return parser, data, raised


_FLAT = (0, [], True)  # a block of its DC alone


@pytest.mark.parametrize("layout", ["same block", "same slice", "two slices"])
@pytest.mark.parametrize("intra", [True, False])
def test_a_run_overrun_is_raised_before_a_later_unmatched_code(layout, intra):
    """The slice loop no longer watches scan positions, so it runs on past
    an overrun to the next thing it cannot parse; the object parser stops at
    the overrun.  The first error in stream order is the one reported."""
    two_rows = layout == "two slices"
    hand = HandPicture(
        16 if two_rows else 32,
        32 if two_rows else 16,
        PictureType.I if intra else PictureType.P,
    )
    overrun = [_LONG_RUN] * 3
    same_block = layout == "same block"
    hand.slice(0)
    if intra:
        hand.intra_mb([(0, overrun, not same_block)] + [_FLAT] * 5)
    else:
        hand.coded_mb(overrun, closed=not same_block)
    if not same_block:
        if two_rows:
            hand.slice(1)
        if intra:
            hand.intra_mb([_FLAT, (0, [(0, 2)], False)] + [_FLAT] * 4)
        else:
            hand.coded_mb([(0, 2)], closed=False)
    parser, data, raised = hand.parse_both()
    assert raised is BitstreamError
    message = "AC run overruns block" if intra else "run overruns block"
    with pytest.raises(BitstreamError, match=f"^{message}$"):
        parser.parse_picture(data)
    with pytest.raises(BitstreamError, match=f"^{message}$"):
        object_parse_picture(parser, data)


def test_an_unmatched_code_alone_is_still_the_slice_loops_error():
    hand = HandPicture(32, 16, PictureType.I)
    hand.slice(0)
    hand.intra_mb([(0, [_LONG_RUN] * 2, True)] + [_FLAT] * 5)  # 53: inside
    hand.intra_mb([_FLAT, (0, [(0, 2)], False)] + [_FLAT] * 4)
    parser, data, raised = hand.parse_both()
    assert raised is VLCError
    with pytest.raises(VLCError, match="no DCT coefficient code matches bits 0{16} at bit"):
        parser.parse_picture(data)


def test_direct_entries_carry_what_no_table_row_can():
    """Escapes at both ends of their range, and an intra DC predictor that a
    damaged slice has driven past int16, reach the columns intact."""
    hand = HandPicture(96, 16, PictureType.I)
    hand.slice(0)
    escapes = [(0, 2047), (5, -2047), (40, 2047)]
    for _ in range(6):
        hand.intra_mb([(2047, escapes, True)] * 6)
    parser, data, raised = hand.parse_both()
    assert raised is None
    c = parser.parse_picture(data).columns
    assert c.coef_level.dtype == np.int32
    assert c.coef_level.max() == 128 + 24 * 2047 > 32767  # the last luma DC
    assert c.coef_level.min() == -2047
    first = c.coef_pos[: c.block_ncoef[0]].tolist(), c.coef_level[: c.block_ncoef[0]].tolist()
    assert first == ([0, 1, 7, 48], [128 + 2047, 2047, -2047, 2047])
    assert np.array_equal(c.block_ncoef, np.bincount(c.coef_pos >> 6))


# ---------------------------------------------------------------------- #
# predictors: what the slice loop leaves to the prefix sums
# ---------------------------------------------------------------------- #
#
# Hand-built pictures, one rule of sections 7.2.1 / 7.6.3.4 / 7.6.6 each.
# ``parse_both`` holds the columnar parse to the object parser's, the state
# before every macroblock included; the literal expectations beside it keep
# the two from being wrong together.

_P_CODES = ((2, 2), (15, 15))
_B_CODES = ((2, 2), (2, 2))
_FLAT_DC = [0] * 6


def _full_parse(hand):
    parser, data, raised = hand.parse_both()
    assert raised is None
    parsed = parser.parse_picture(data)
    assert parsed.columns.state is not None
    return parsed.columns


def test_a_no_mc_macroblock_between_two_vectors_resets_the_predictors():
    hand = HandPicture(80, 32, PictureType.P, f_code=_P_CODES)
    hand.slice(0)
    hand.mb(fwd=(5, 3))
    hand.mb(fwd=(-2, 1), cbp=32)  # chains: (3, 4)
    hand.mb(cbp=32)  # "No MC, coded": zero vector, predictors to zero
    hand.mb(fwd=(2, 1))  # from zero, not from (3, 4)
    hand.mb(fwd=(-4, 0))
    hand.slice(1)
    hand.mb(fwd=(4, -2))  # a slice starts from zero
    hand.mb(fwd=(-4, 0))
    for _ in range(3):
        hand.mb(fwd=(0, 0))
    c = _full_parse(hand)
    assert c.mv[:7, 0].tolist() == [[5, 3], [3, 4], [0, 0], [2, 1], [-2, 1], [4, -2], [0, -2]]
    assert c.mv[7:, 0].tolist() == [[0, -2]] * 3
    assert c.motion[:, 0].tolist() == [True, True, False] + [True] * 7
    assert c.state.pmv[:6, 0].tolist() == [[0, 0], [5, 3], [3, 4], [0, 0], [2, 1], [0, 0]]
    assert c.state.prev_dir[:6, 0].tolist() == [False, True, True, False, True, False]
    assert not c.mv[:, 1].any() and not c.state.pmv[:, 1].any()


def test_an_intra_macroblock_in_a_p_slice_resets_the_vectors_and_is_a_dc_chain_of_one():
    hand = HandPicture(96, 16, PictureType.P, f_code=_P_CODES)
    hand.slice(0)
    hand.mb(fwd=(6, 0))
    hand.mb(dc=[3, -1, 0, 2, 5, -7])
    hand.mb(fwd=(1, 0))  # from zero: the intra macroblock reset the predictors
    hand.mb(dc=[1, 1, 1, 1, 1, 1])  # from the reset value: the chain broke
    hand.mb(dc=[-4, 0, 0, 0, 2, 0])  # continues the chain
    hand.mb(fwd=(-2, 0))
    c = _full_parse(hand)
    assert c.mv[:, 0].tolist() == [[6, 0], [0, 0], [1, 0], [0, 0], [0, 0], [-2, 0]]
    assert c.state.pmv[:, 0].tolist() == [[0, 0], [6, 0], [0, 0], [1, 0], [0, 0], [0, 0]]
    dc = c.coef_level[c.coef_pos % 64 == 0].reshape(3, 6).tolist()
    assert dc == [
        [131, 130, 130, 132, 133, 121],
        [129, 130, 131, 132, 129, 129],
        [128, 128, 128, 128, 131, 129],
    ]
    # the predictors an intra macroblock leaves are the next one's state
    assert c.state.dc_pred.tolist() == [
        [128] * 3, [128] * 3, [132, 133, 121], [128] * 3, [132, 129, 129], [128, 131, 129],
    ]


def test_b_skipped_runs_carry_the_directions_and_predictors_before_them():
    hand = HandPicture(160, 32, PictureType.B, f_code=_B_CODES)
    hand.slice(0)
    hand.mb(fwd=(4, 2), cbp=32)
    hand.mb(increment=3, fwd=(1, 0), bwd=(-2, 2))  # two skipped, forward only
    hand.mb(increment=4, bwd=(1, 1), cbp=4)  # three skipped, interpolated
    hand.mb(increment=2, fwd=(-6, 1))  # one skipped, backward only
    hand.slice(1)
    hand.mb(bwd=(3, -1))
    hand.mb(increment=9, fwd=(-2, -2))  # eight skipped
    c = _full_parse(hand)
    assert c.address.tolist() == list(range(20))
    assert c.skipped.tolist() == [0, 1, 1, 0, 1, 1, 1, 0, 1, 0] + [0] + [1] * 8 + [0]
    fwd, bwd = [5, 2], [-1, 3]
    assert c.motion[:10].tolist() == (
        [[1, 0]] * 3 + [[1, 1]] * 4 + [[0, 1]] * 2 + [[1, 0]]
    )
    assert c.mv[:10, 0].tolist() == [[4, 2]] * 3 + [fwd] * 4 + [[0, 0]] * 2 + [[-1, 3]]
    assert c.mv[:10, 1].tolist() == [[0, 0]] * 3 + [[-2, 2]] * 4 + [bwd] * 2 + [[0, 0]]
    # a B skipped macroblock changes no predictor; the previous directions
    # are those of the last *coded* macroblock
    assert c.state.pmv[:10].tolist() == (
        [[[0, 0], [0, 0]]] + [[[4, 2], [0, 0]]] * 3 + [[fwd, [-2, 2]]] * 4 + [[fwd, bwd]] * 2
    )
    assert c.state.prev_dir[:10].tolist() == (
        [[0, 0]] + [[1, 0]] * 3 + [[1, 1]] * 4 + [[0, 1]] * 2
    )
    assert c.mv[10:, 1].tolist() == [[3, -1]] * 9 + [[0, 0]]
    assert c.mv[10:, 0].tolist() == [[0, 0]] * 9 + [[-2, -2]]
    assert (c.qscale_code == 4).all() and (c.bit_start[c.skipped] == -1).all()


def test_a_p_skipped_run_has_no_vector_and_resets_vectors_and_dc():
    hand = HandPicture(176, 16, PictureType.P, f_code=_P_CODES)
    hand.slice(0)
    hand.mb(dc=[2, 0, 0, 0, -3, 4], quant=9)
    hand.mb(fwd=(3, 0))
    hand.mb(increment=4, fwd=(1, 0))  # three skipped: (1, 0) is from zero
    hand.mb(dc=[1, 0, 0, 0, 0, 0])
    hand.mb(increment=3, dc=_FLAT_DC)  # two skipped break the DC chain
    hand.mb(fwd=(0, 0))
    c = _full_parse(hand)
    assert c.skipped.tolist() == [0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0]
    assert c.motion[c.skipped].tolist() == [[True, False]] * 5
    assert not c.mv[c.skipped].any()
    assert c.mv[:, 0, 0].tolist() == [0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert (c.qscale_code == 9).all() and c.state.qscale_code.tolist() == [4] + [9] * 10
    # the first skipped macroblock still sees what the coded one left
    assert c.state.pmv[:, 0, 0].tolist() == [0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0]
    assert c.state.dc_pred[:, 0].tolist() == [128, 130, 128, 128, 128, 128, 128, 129, 128, 128, 128]
    assert c.state.dc_pred[1].tolist() == [130, 125, 132]
    assert c.coef_level[c.coef_pos % 64 == 0].reshape(3, 6)[:, 0].tolist() == [130, 129, 128]


def test_a_skipped_run_behind_an_address_increment_escape():
    hand = HandPicture(16 * 75, 16, PictureType.P, f_code=_P_CODES)
    hand.slice(0, qcode=7)
    hand.mb(fwd=(1, 0))
    hand.mb(increment=35, fwd=(1, 0))  # one escape and two
    hand.mb(increment=38, cbp=32)  # one escape and five
    hand.mb(fwd=(0, 0))
    c = _full_parse(hand)
    assert c.address.tolist() == list(range(75))
    assert c.skipped.sum() == 71 and not c.skipped[[0, 35, 73, 74]].any()
    assert c.mv[:, 0, 0].tolist() == [1] + [0] * 34 + [1] + [0] * 39
    assert (c.slice_row == 0).all() and (c.qscale_code == 7).all()


def test_the_first_increment_of_a_slice_positions_it_and_skips_nothing():
    hand = HandPicture(96, 16, PictureType.P, f_code=_P_CODES)
    hand.slice(0)
    hand.mb(fwd=(2, 0))
    hand.mb(fwd=(1, 0))
    hand.slice(0)  # a second slice in the row, starting four macroblocks in
    hand.mb(increment=5, fwd=(-1, 0))
    hand.mb(fwd=(-1, 0))
    hand.slice(0, qcode=6)  # and, out of order, one for the gap
    hand.mb(increment=3, fwd=(1, 0))
    hand.mb(fwd=(1, 0))
    c = _full_parse(hand)
    assert c.address.tolist() == [0, 1, 4, 5, 2, 3]
    assert c.slice_index.tolist() == [0, 0, 1, 1, 2, 2]
    assert not c.skipped.any()
    assert c.mv[:, 0, 0].tolist() == [2, 3, -1, -2, 1, 2]
    assert c.state.qscale_code.tolist() == [4] * 4 + [6] * 2


def test_dc_chains_end_at_slice_starts():
    hand = HandPicture(64, 32, PictureType.I)
    hand.slice(0)
    for diff in (5, -2, 7, 1):
        hand.mb(dc=[diff, 0, 0, 1, diff, -diff])
    hand.slice(1)
    hand.mb(dc=[1, 1, 1, 1, 0, 0])  # from the reset value again
    hand.mb(dc=[2, 0, 0, 0, 3, 0], quant=2)
    hand.mb(dc=_FLAT_DC)
    hand.mb(dc=_FLAT_DC)
    c = _full_parse(hand)
    dc = c.coef_level[c.coef_pos % 64 == 0].reshape(8, 6)
    assert dc[:, 0].tolist() == [133, 132, 140, 142, 129, 134, 134, 134]
    assert dc[:, 3].tolist() == [134, 133, 141, 143, 132, 134, 134, 134]
    assert dc[:, 4].tolist() == [133, 131, 138, 139, 128, 131, 131, 131]
    assert dc[:, 5].tolist() == [123, 125, 118, 117, 128, 128, 128, 128]
    assert c.state.dc_pred[3:6].tolist() == [[141, 138, 118], [128] * 3, [132, 128, 128]]
    assert c.state.qscale_code.tolist() == [4] * 6 + [2] * 2


@pytest.mark.parametrize("precision", [9, 10])
def test_dc_chains_start_from_the_reset_value_of_the_precision(precision):
    hand = HandPicture(48, 16, PictureType.I, intra_dc_precision=precision)
    reset = 1 << (precision - 1)
    hand.slice(0)
    hand.mb(dc=[-reset, 0, 0, 0, 2047, -300])  # size 11, past the fused window
    hand.mb(dc=[127, -127, 128, -128, -2047, 0])  # both sides of its edge
    hand.mb(dc=_FLAT_DC)
    c = _full_parse(hand)
    dc = c.coef_level[c.coef_pos % 64 == 0].reshape(3, 6).tolist()
    assert dc[0] == [0, 0, 0, 0, reset + 2047, reset - 300]
    assert dc[1] == [127, 0, 128, 0, reset, reset - 300]
    assert dc[2] == [0, 0, 0, 0, reset, reset - 300]
    assert c.state.dc_pred.tolist() == [[reset] * 3, dc[0][3:], dc[1][3:]]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9),
    st.lists(
        st.tuples(st.one_of(st.sampled_from([-16, 16]), st.floats(-16, 16)), st.booleans()),
        min_size=1, max_size=40,
    ),
)
def test_wrapping_the_running_sum_is_wrapping_every_step(f_code, steps):
    """The slice loop used to wrap a predictor after every delta; the parser
    wraps the sum of a chain once.  Deltas reach both ends of their range,
    -16f and +16f, which the single-step wrap can just still absorb."""
    f = 1 << (f_code - 1)
    deltas = [int(scale * f) for scale, _ in steps]
    reset = [True] + [r for _, r in steps[1:]]
    expected, pmv = [], 0
    for delta, again in zip(deltas, reset):
        val = (0 if again else pmv) + delta  # macroblock._decode_mv
        if val < -16 * f:
            val += 32 * f
        elif val > 16 * f - 1:
            val -= 32 * f
        assert -16 * f <= val < 16 * f
        pmv = val
        expected.append(val)
    sums = parser_module._chain_sums(np.array(deltas)[:, None], np.array(reset))
    assert parser_module._wrap(sums, np.array([16 * f]))[:, 0].tolist() == expected


def _opcodes_in(code, fn):
    """Opcode events inside frames running ``code`` while ``fn()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return local

    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def _slice_loop_opcodes(data, sequence):
    """Counted on the Python engine by name: the loop is what is traced.
    (Callers take ``monkeypatch`` and put it there.)"""
    parser = MacroblockParser(sequence)
    return _opcodes_in(
        fast_vlc.parse_slice_columns.__code__, lambda: parser.parse_picture(data, lean=True)
    )


def test_a_skipped_macroblock_costs_the_slice_loop_nothing(monkeypatch):
    """A count of bytecodes, not a timing: a run of skipped macroblocks is
    one record whatever its length.  (Its increment is one more escape code
    per 33 macroblocks, which is one more turn of the increment loop.)"""
    use_parse_engine("python", monkeypatch)

    def opcodes(run):
        hand = HandPicture(16 * 104, 16, PictureType.B, f_code=_B_CODES)
        hand.slice(0)
        hand.mb(fwd=(1, 0), bwd=(0, 1), cbp=32)
        hand.mb(increment=run + 1, fwd=(1, 0), cbp=32)
        hand.mb(bwd=(0, 0), cbp=63)  # its header well inside the data
        data = hand.data()
        parsed = MacroblockParser(hand.sequence).parse_picture(data)
        assert (parsed.n_coded, parsed.n_skipped) == (3, run)
        return _slice_loop_opcodes(data, hand.sequence)

    assert opcodes(10) == opcodes(32)
    escape = opcodes(10 + 33) - opcodes(10)
    assert 0 < escape < 60
    assert opcodes(100) == opcodes(10) + 3 * escape


def test_golden_stream_slice_loop_opcodes(capsys, monkeypatch):
    """Printed (``-s``), so that the next change to the loop has its
    before: the count is exact for one interpreter version."""
    use_parse_engine("python", monkeypatch)
    sequence, pictures = PictureScanner(_GOLDEN_STREAM).scan()
    total = sum(_slice_loop_opcodes(unit.data, sequence) for unit in pictures)
    with capsys.disabled():
        print(
            f"\nparse_slice_columns: {total} bytecodes for the golden stream's "
            f"{len(pictures)} pictures (Python {sys.version_info.major}.{sys.version_info.minor})"
        )
    assert total > 0


def _half_and_half(a, b):
    """``a`` with its right half replaced by ``b``'s."""
    f = Frame(a.y.copy(), a.cb.copy(), a.cr.copy())
    w = f.y.shape[1] // 2
    f.y[:, w:] = b.y[:, w:]
    f.cb[:, w // 2 :] = b.cb[:, w // 2 :]
    f.cr[:, w // 2 :] = b.cr[:, w // 2 :]
    return f


def test_table_one_and_table_zero_macroblocks_in_one_picture():
    """``intra_vlc_format`` 1 switches tables per macroblock: a P-picture
    whose right half is new content has intra (B.15) macroblocks beside
    coded non-intra (B.14) ones in the same slices."""
    old = GENERATORS["pattern"](64, 48, 3, seed=1)
    new = GENERATORS["broadcast"](64, 48, 3, seed=2)
    clip = [old[0]] + [_half_and_half(a, b) for a, b in zip(old[1:], new[1:])]
    cfg = EncoderConfig(
        gop_size=3, b_frames=0, intra_vlc_format=1, qscale_code_intra=2,
        qscale_code_inter=2, search_range=3,
    )
    stream = Encoder(cfg).encode(clip)
    _check_stream(stream, TileLayout(64, 48, 2, 2))
    sequence, pictures = PictureScanner(stream).scan()
    p_picture = MacroblockParser(sequence).parse_picture(pictures[1].data)
    c = p_picture.columns
    assert p_picture.header.picture_type == PictureType.P
    assert p_picture.header.intra_vlc_format == 1
    assert c.intra.any() and (c.pattern & ~c.intra).any()
    frames = decode_stream(stream)
    assert frames == reference_decode(stream)


# ---------------------------------------------------------------------- #
# golden
# ---------------------------------------------------------------------- #

# 48x32, I P B P, intra_vlc_format 1, two slices per row; encoded once with
# this repo's encoder from ``moving_pattern_frames(48, 32, 4, seed=5)``.
_GOLDEN_STREAM = base64.b64decode(
    """
AAABswMAIBUAAGOAAAABtRFKAAEAAAAAAbgAAABAAAABAAAP//gAAAG1j//zSYAAAAEBM/Uggf5g
gAGatKbq9AgAGabCq3zcED/PyWqje4BA/vBA/25BAAJBBAFop5hvmodlVDEJso+tk/JC22zbSm/J
AgAHAgAGPKbyEBAAM0wac32twIH8QIH93BMEyAkACiiXw2QEH9gED+iRAQf9oCSAMCAAQCaAK052
6Q7ScSWq8bRxPJDAAAABATFQED/IEAAzUoJ3/7e+EggAGaa3jwQAGQQP7wQP+AQP8HAgf7Ag/7cz
muBBAFMBCADdiG+aghgB5inQ84YyCZwbVQ9sNkfJYNHt0S3KlGMAAAABAjP1QIH+gIH+lU9vUggf
8C6LMUYagWjeOBA/0BAAOq0puu4EABGPpcXxhCaXzbW0yyN+oaN8rBAALBAAeBAAJ5Q3q0Ej/18I
Wt52AgAUggAHIoIIA4JX/nYJv/rEFbRwLAALF7yD2AAAAQIxfcAgALi6KcCB/ug0EEARQrzawSCB
/ppo1vCCQQAGegQACps64Mmope1UVCbaPGN7QSCAAdTaU2dzckg5tZc2qwAAAAEAAJf/+4AAAAG1
gi/zSYAAAAEBQwyYgMgENBkCB+eAgALgDItBRLJhiARP/CbiMXrKz0lV5gFS4CiT4ED8kED+sEAB
MEABACgIACQDsCpCIQwhoAbDEgZIaWGgVJiEqSG9HCE/L1DMHyS0DFekJeAAAAEBQQJvYggf7AgA
GatPbSIBAAM02Ht0NBA/sBA/0eTe5QSAA+ATQA25gIACgIH+gnkED/Xpz3yu26sMdFR22FzJT5Br
C5bD2tLIMYAAAAECQwyZBkCB+2AaAO0qwrSAyALwwhhqCQknIIFo7UnXgYED80ED+0h8sEABICqB
4BYCX/0GQBeQwEIDssrhiQ1yks+xRWO+57OfohFp+Okl9wqkZoAAAAECQQJvsLYQQADH3gED/jjY
MtJ8sbzoIH/AIACrnUOxAvSXWsBAAIBAAQD5ULlG2tRllZmyxgAAAQAAX//7uAAAAbWCIiNJgAAA
AQFDidGmJk8AnJhCJiUI6UP+L5Bjax4mCAA4BUED+EBAAwJoaTEkwBP0hhfK4womM6OMU5DyuI0C
B/MAgAMwQAIiGAZAJg3gFwBrw0NAYAUDS+N+cssmISnhABm2WZs0wSollPhc49khUAAAAQFBePMI
VIgGIBiAxBAAWK4YCCAQAmAdlOSz+5wxjwHaWDoA1JhRCShCcjslG+f915wJhdss/B0sTAAAAQJD
i/6YmhhbE60wYN+NYn00HAxNAdrAqQ+PJobwSv/fAOw0M5YaWnHJSlOcd+8QwCosB4TyBOfyBAL4
AAABAkFhw7GVJJCRHI0AgDHAwMBGAD2r4te4wL5AgMFM2FXAAAABAADX//uAAAABtYIv80mAAAAB
AUMXB4PtBQQAyKL4aNJXJbJ5XGcbslHZKOxqOrogGACkcknwIACIIACKBiAEOBG/vAMQS/+UzGnh
cAAAAQFBZDAQAEAwCoYCL/2UCT/7osmJUeryAMFAEhQBFoED90lBgIICKkIcAsAovbOeTHIsM0/g
AAABAkMXF4HD/+0oAoAXAJgKgYAr0AUIfyQDUBOXviYX98km/7uxsG8mE3HkwNwkpOIkAnJgBmAx
IRQGCYGjEAjgBlc8X0QCFICcCpZJLcBEGYjIiCAtgAAAAQJBbGbcd4ED+xBNcB1ygRgAysFNDCal
JJI0AYlcwfengAAAAbc=
"""
)
# The decode under dct.idct, the integer Chen–Wang IDCT.
_GOLDEN_SHA256 = "0eeb8a513fdbe4a6fa31225f68f8b42ed637b2dcecc374d06c79714c6d78278e"


def _digest(frames):
    h = hashlib.sha256()
    for f in frames:
        h.update(f.y.tobytes())
        h.update(f.cb.tobytes())
        h.update(f.cr.tobytes())
    return h.hexdigest()


def test_golden_stream_digest():
    frames = decode_stream(_GOLDEN_STREAM)
    assert len(frames) == 4 and all(isinstance(f, Frame) for f in frames)
    assert _digest(frames) == _GOLDEN_SHA256


def _reference_decode_with(transform, monkeypatch):
    """:func:`reference_decode` of the golden stream with ``transform`` (one
    ``(64,)`` block to 64 samples) as ``dct.idct``."""
    from repro.mpeg2 import dct

    def idct(coeffs, out=None, scratch=None):
        blocks = np.asarray(coeffs).reshape(-1, 64)
        return np.array([transform(b) for b in blocks]).reshape(np.shape(coeffs))

    with monkeypatch.context() as patch:
        patch.setattr(dct, "idct", idct)
        return reference_decode(_GOLDEN_STREAM)


def test_the_golden_digest_is_the_scalar_transcriptions(monkeypatch):
    """The digest is not the engines' say-so: the per-macroblock oracle with
    the plain-Python Chen–Wang transcription as its IDCT gives it too."""
    assert _digest(_reference_decode_with(chen_wang_idct, monkeypatch)) == _GOLDEN_SHA256


def test_the_golden_decode_is_within_two_of_a_float_idct_decode(monkeypatch):
    """The same stream through a float64 matrix IDCT rounded with ``rint``:
    no sample of the four pictures more than 2 away, drift through the P
    and B references included -- and some sample away, or the comparison
    would not be seeing the integer transform."""
    n = np.arange(8)
    basis = np.where(n == 0, np.sqrt(1 / 8), np.sqrt(2 / 8))[:, None] * np.cos(
        (2 * n[None, :] + 1) * n[:, None] * np.pi / 16
    )
    float_frames = _reference_decode_with(
        lambda b: np.rint(basis.T @ b.reshape(8, 8) @ basis).reshape(64), monkeypatch
    )
    frames = decode_stream(_GOLDEN_STREAM)
    worst = max(a.max_abs_diff(b) for a, b in zip(frames, float_frames))
    assert 0 < worst <= 2, worst


@pytest.mark.parametrize("poison", [0x5A, 0xA5])
def test_a_whole_picture_is_decoded_into_an_unfilled_frame(poison, monkeypatch):
    """``reconstruct_picture`` without a ``rect`` has proved that every
    macroblock address is coded once, so it does not fill the frame first:
    whatever the allocator returned -- here one byte value, then another --
    no sample of it survives."""
    cfg = EncoderConfig(gop_size=4, b_frames=1, search_range=3)
    stream = Encoder(cfg).encode(GENERATORS["broadcast"](64, 48, 4, seed=3))  # I P B P
    clean = _digest(decode_stream(stream))
    handed_out = []

    def poisoned(width, height):
        frame = Frame.blank(width, height, y=poison, c=poison)
        handed_out.append(frame)
        return frame

    monkeypatch.setattr(Frame, "uninitialised", poisoned)
    assert _digest(decode_stream(_GOLDEN_STREAM)) == _GOLDEN_SHA256
    assert _digest(decode_stream(stream)) == clean
    assert len(handed_out) == 4 + 4
