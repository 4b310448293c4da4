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

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import decode_stream, reconstruct_picture
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.plan import QuantMatrices, plan_from_columns
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import GENERATORS
from tests.oracles import (
    assert_same_plan,
    builder_plan,
    compile_plans_reference,
    object_parse_picture,
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
def small_stream():
    cfg = EncoderConfig(
        gop_size=4, b_frames=1, search_range=3, quant_modulator=_busy_quant,
        slices_per_row=2,
    )
    stream = Encoder(cfg).encode(GENERATORS["pattern"](48, 32, 4, seed=11))
    sequence, pictures = PictureScanner(stream).scan()
    assert [u.data[5] >> 3 & 7 for u in pictures[:3]] == [1, 2, 3]  # I, P, B
    return sequence, pictures[:3]


def test_truncation_parity_at_every_byte(small_stream):
    """Cutting a picture unit after any byte lands in every place a parser
    can run dry: picture header, extension, slice header, increment, type,
    quantiser, vectors, pattern, DC size and differential, run/level codes,
    escapes, and the zero padding before the next start code."""
    sequence, pictures = small_stream
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    raised = set()
    for unit in pictures:
        for cut in range(len(unit.data)):
            raised.add(assert_same_outcome(unit.data[:cut], parser, sequence, matrices))
    assert {cls.__name__ for cls in raised if cls} >= {"BitstreamError", "VLCError"}


def test_bit_flip_parity(small_stream):
    sequence, pictures = small_stream
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


def test_zero_quantiser_and_address_checks(small_stream):
    """The checks a flip rarely hits, forced: a slice quantiser of zero and
    a slice placed beyond the last macroblock row."""
    sequence, pictures = small_stream
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


def test_missing_macroblocks_are_reported(small_stream):
    sequence, pictures = small_stream
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


def test_rect_plan_matches_builder_over_the_same_macroblocks(small_stream):
    """``reconstruct_rect``'s box mask: the plan over a rect's macroblocks
    is the plan ``PlanBuilder`` makes from exactly those macroblocks."""
    sequence, pictures = small_stream
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


def test_view_blocks_are_read_only_rows_of_the_stack(small_stream):
    """A consumer of ``items`` cannot alter later plans: its blocks are rows
    of the picture's one coefficient stack, and that stack refuses writes."""
    sequence, pictures = small_stream
    parsed = MacroblockParser(sequence).parse_picture(pictures[0].data)
    block = next(b for b in parsed.items[0].mb.blocks if b is not None)
    assert np.shares_memory(block, parsed.columns.scans)
    with pytest.raises(ValueError, match="read-only"):
        block[0] = 1


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
_GOLDEN_SHA256 = "4ff9e740a8080d65855cbbf764d05e37031149514e1fdecbda30ef6b81065e83"


def test_golden_stream_digest():
    frames = decode_stream(_GOLDEN_STREAM)
    assert len(frames) == 4 and all(isinstance(f, Frame) for f in frames)
    h = hashlib.sha256()
    for f in frames:
        h.update(f.y.tobytes())
        h.update(f.cb.tobytes())
        h.update(f.cr.tobytes())
    assert h.hexdigest() == _GOLDEN_SHA256
