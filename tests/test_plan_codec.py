"""The binary plan wire codec and the plan-shipping decode path.

Round-trips compiled :class:`TilePlan` payloads through the zero-copy wire
format — empty plans, skipped-macroblock-only plans, half-pel and
bidirectional motion — and checks the end-to-end property the format
exists for: a tile decoder fed wire-decoded plans produces frames
bit-identical to one re-parsing sub-picture bitstreams, with zero time in
its VLC parse stage.
"""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.runtime.messages import decode_plan_msg, encode_plan_msg
from repro.mpeg2 import plan_codec
from repro.mpeg2.batch_reconstruct import execute_plan
from repro.mpeg2.constants import PictureType
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.mpeg2.plan import PlanBuilder, QuantMatrices, ReconstructionPlan, check_plan
from repro.mpeg2.plan_codec import TilePlan, buffers_nbytes, decode_plan, encode_plan, encode_plan_bytes
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.pdecoder import TileDecoder
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames

#: What checks and assembles every plan of this module (conftest's
#: ``plan_engine``): the C kernel here, and the numpy bodies it is a port of
#: in ``tests/test_python_engine.py``, which collects these cases again.
PLAN_ENGINE = "native"
pytestmark = pytest.mark.usefixtures("plan_engine")


@pytest.fixture(scope="module")
def clip_stream():
    clip = moving_pattern_frames(128, 96, 8, seed=11)
    # search_range > 1 with odd shifts produces half-pel vectors.
    stream = Encoder(EncoderConfig(gop_size=4, b_frames=2, search_range=5)).encode(clip)
    return clip, stream


@pytest.fixture(scope="module")
def codec_setup(clip_stream):
    _, stream = clip_stream
    sequence, pictures = PictureScanner(stream).scan()
    layout = TileLayout(sequence.width, sequence.height, 2, 2)
    splitter = MacroblockSplitter(sequence, layout)
    return sequence, pictures, layout, splitter


def _assert_plans_equal(a: TilePlan, b: TilePlan) -> None:
    assert (a.picture_index, a.tile, a.picture_type) == (
        b.picture_index,
        b.tile,
        b.picture_type,
    )
    assert (a.n_coded, a.n_skipped) == (b.n_coded, b.n_skipped)
    pa, pb = a.plan, b.plan
    assert (pa.mb_width, pa.dc_scaler) == (pb.mb_width, pb.dc_scaler)
    assert (pa.n_intra_blocks, pa.n_res) == (pb.n_intra_blocks, pb.n_res)
    for name, dtype, *_ in plan_codec._ARRAYS:
        va, vb = getattr(pa, name), getattr(pb, name)
        assert va.dtype == vb.dtype == dtype, name
        assert np.array_equal(va, vb), name


class TestRoundTrip:
    def test_empty_plan(self):
        matrices = QuantMatrices()
        builder = PlanBuilder(PictureType.I, 8, 128, 96, matrices, 8)
        tp = TilePlan(0, 0, PictureType.I, 0, 0, builder.build())
        payload = encode_plan_bytes(tp)
        out, end = decode_plan(payload, matrices)
        assert end == len(payload)
        assert out.plan.n_macroblocks == 0 and out.plan.n_blocks == 0
        _assert_plans_equal(tp, out)

    def test_real_plans_round_trip(self, codec_setup):
        """Every tile of every picture — covers intra, P with half-pel MVs,
        bidirectional B, and skipped-only tiles."""
        _, pictures, layout, splitter = codec_setup
        saw_skipped_only = saw_halfpel = saw_bidir = False
        for i, unit in enumerate(pictures):
            result = splitter.split_plans(unit, i)
            for tid in range(layout.n_tiles):
                tp = result.plans[tid]
                payload = encode_plan_bytes(tp)
                out, end = decode_plan(payload, splitter.matrices)
                assert end == len(payload)
                assert out.wire_bytes == len(payload)
                _assert_plans_equal(tp, out)
                if tp.n_coded == 0 and tp.n_skipped > 0:
                    saw_skipped_only = True
                if tp.plan.n_macroblocks and (tp.plan.mb_mv % 2).any():
                    saw_halfpel = True
                if tp.plan.n_macroblocks and tp.plan.mb_dir.all(axis=1).any():
                    saw_bidir = True
        assert saw_halfpel, "stream produced no half-pel vectors"
        assert saw_bidir, "stream produced no bidirectional macroblocks"
        # skipped-only tiles are stream-dependent; don't require one, but
        # the loop above round-trips them whenever they occur.
        del saw_skipped_only

    def test_offset_decoding(self, codec_setup):
        """Plans embedded mid-payload decode from their offset."""
        _, pictures, _, splitter = codec_setup
        tp = splitter.split_plans(pictures[0], 0).plans[0]
        prefix = b"\xaa" * 13
        payload = prefix + encode_plan_bytes(tp) + b"\xbb" * 5
        out, end = decode_plan(payload, splitter.matrices, offset=len(prefix))
        assert end == len(payload) - 5
        _assert_plans_equal(tp, out)

    def test_buffer_list_matches_joined_bytes(self, codec_setup):
        _, pictures, _, splitter = codec_setup
        tp = splitter.split_plans(pictures[1], 1).plans[2]
        bufs = encode_plan(tp)
        joined = encode_plan_bytes(tp)
        assert buffers_nbytes(bufs) == len(joined)
        assert b"".join(bytes(b) for b in bufs) == joined

    def test_version_mismatch_rejected(self):
        matrices = QuantMatrices()
        builder = PlanBuilder(PictureType.I, 8, 128, 96, matrices, 8)
        tp = TilePlan(0, 0, PictureType.I, 0, 0, builder.build())
        payload = bytearray(encode_plan_bytes(tp))
        payload[0] = plan_codec.PLAN_WIRE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            decode_plan(bytes(payload), matrices)

    def test_plan_message_round_trip(self, codec_setup):
        _, pictures, layout, splitter = codec_setup
        result = splitter.split_plans(pictures[2], 2)
        for tid in range(layout.n_tiles):
            program = result.mei.program(tid)
            bufs = encode_plan_msg(1, result.plans[tid], program, (1.5, 2.5))
            payload = b"".join(bytes(b) for b in bufs)
            anid, expected, tp, prog, stamps = decode_plan_msg(
                payload, splitter.matrices
            )
            assert anid == 1
            assert expected == len(program.recvs)
            assert stamps == (1.5, 2.5)
            assert len(prog.sends) == len(program.sends)
            _assert_plans_equal(result.plans[tid], tp)


# ---------------------------------------------------------------------- #
# the v2 record: arbitrary plans round-trip, damaged ones fail cleanly
# ---------------------------------------------------------------------- #

_HEAD_FIELDS = (
    "version", "picture_type", "dc_scaler", "tile", "mb_width", "picture_index",
    "n_mb", "n_blocks", "n_intra_blocks", "n_res", "n_coded", "n_skipped", "n_coefs",
)


@st.composite
def tile_plans(draw):
    """Any plan the schema admits — not only ones a stream could produce."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_mb = draw(st.integers(0, 12))
    n_res = draw(st.integers(0, n_mb))
    n_blocks = draw(st.integers(0, 6 * n_res))
    ncoef = rng.integers(0, 65, size=n_blocks).astype(np.uint8)
    n_coefs = int(ncoef.sum())
    mb_width = draw(st.integers(1, 120))
    plan = ReconstructionPlan(
        picture_type=draw(st.sampled_from(list(PictureType))),
        mb_width=mb_width,
        matrices=QuantMatrices(),
        dc_scaler=draw(st.sampled_from([8, 4, 2])),
        block_ncoef=ncoef,
        coef_scan=rng.integers(0, 64, size=n_coefs).astype(np.uint8),
        coef_level=rng.integers(-32768, 32768, size=n_coefs).astype(np.int16),
        block_qscale=rng.integers(1, 113, size=n_blocks),
        block_res=rng.integers(0, max(n_res, 1), size=n_blocks),
        block_slot=rng.integers(0, 6, size=n_blocks),
        n_intra_blocks=draw(st.integers(0, n_blocks)),
        mb_x=rng.integers(0, mb_width, size=n_mb),
        mb_y=rng.integers(0, 68, size=n_mb),
        mb_intra=rng.random(n_mb) < 0.5,
        mb_dir=rng.random((n_mb, 2)) < 0.5,
        mb_mv=rng.integers(-64, 65, size=(n_mb, 2, 2)),
        mb_res_row=rng.integers(-1, max(n_res, 1), size=n_mb) if n_res else np.full(n_mb, -1),
        n_res=n_res,
    )
    return TilePlan(
        picture_index=draw(st.integers(-1, 2**31 - 1)),
        tile=draw(st.integers(0, 65535)),
        picture_type=plan.picture_type,
        n_coded=draw(st.integers(0, n_mb)),
        n_skipped=draw(st.integers(0, n_mb)),
        plan=plan,
    )


@settings(max_examples=100, deadline=None)
@given(tile_plans())
def test_v2_record_round_trips(tp):
    payload = encode_plan_bytes(tp)
    assert len(payload) == plan_codec.plan_nbytes(tp)
    assert len(payload) <= plan_codec.plan_wire_bound(
        tp.plan.n_macroblocks, tp.plan.n_blocks
    )
    out, end = decode_plan(payload, tp.plan.matrices)
    assert end == out.wire_bytes == len(payload)
    _assert_plans_equal(tp, out)


@pytest.fixture(scope="module")
def wire_case(codec_setup):
    """A P-picture tile plan with intra and inter blocks, its payload, and
    the two references it executes against."""
    sequence, pictures, _, splitter = codec_setup
    tp = next(
        tp
        for i, unit in enumerate(pictures)
        for tp in splitter.split_plans(unit, i).plans.values()
        if tp.picture_type == PictureType.P and 0 < tp.plan.n_intra_blocks < tp.plan.n_blocks
    )
    ref = Frame.blank(sequence.width, sequence.height, y=90, c=120)
    return sequence, splitter.matrices, tp, encode_plan_bytes(tp), ref


def _decode_outcome(payload, wire_case):
    """Decode a (damaged) payload and drive what came out: returns
    ``"rejected"`` for the codec's ``ValueError``, ``"equal"`` for the
    plan that went in, ``"executed"`` for a different one that still runs.
    Any other exception propagates and fails the test."""
    sequence, matrices, tp, _, ref = wire_case
    try:
        out, _ = decode_plan(payload, matrices)
    except ValueError:
        return "rejected"
    try:
        _assert_plans_equal(tp, out)
        return "equal"
    except AssertionError:
        pass
    # the consumer's half, as ``TileDecoder.decode_plan`` runs it: the
    # record has no raster, so landing sites and vectors are checked here
    try:
        check_plan(out.plan, sequence.width, sequence.height)
        execute_plan(out.plan, Frame.blank(sequence.width, sequence.height), ref, ref)
    except ValueError:
        return "rejected"  # e.g. an inter macroblock left with no direction
    return "executed"


class TestDamagedRecords:
    def test_v1_payload_rejected(self, wire_case):
        _, matrices, tp, payload, _ = wire_case
        v1_head = struct.pack(
            "<BBBxHHiIIIIII", 1, int(tp.picture_type), 8, 0, 8, 0, 0, 0, 0, 0, 0, 0
        )
        with pytest.raises(ValueError, match="version 1, expected 2"):
            decode_plan(v1_head, matrices)
        with pytest.raises(ValueError, match="version 1"):
            decode_plan(b"\x01" + payload[1:], matrices)

    def test_every_truncation_rejected(self, wire_case):
        _, matrices, _, payload, _ = wire_case
        for cut in list(range(0, 64)) + list(range(64, len(payload), 97)):
            with pytest.raises(ValueError, match="truncated"):
                decode_plan(payload[:cut], matrices)

    def test_every_header_field_mutated(self, wire_case):
        _, _, _, payload, _ = wire_case
        head = list(struct.unpack_from(plan_codec._HEAD, payload))
        assert len(head) == len(_HEAD_FIELDS)
        outcomes = {}
        for i, name in enumerate(_HEAD_FIELDS):
            for value in (0, 1, head[i] - 1, head[i] + 1, 255, 65535, 2**31 - 1):
                mutated = list(head)
                mutated[i] = value
                try:
                    packed = struct.pack(plan_codec._HEAD, *mutated)
                except struct.error:
                    continue  # value does not fit the field
                damaged = packed + payload[plan_codec._HEAD_SIZE :]
                outcomes.setdefault(name, set()).add(_decode_outcome(damaged, wire_case))
        assert set(outcomes) == set(_HEAD_FIELDS)
        for name in ("version", "n_mb", "n_blocks", "n_intra_blocks", "n_res", "n_coefs"):
            assert "rejected" in outcomes[name], (name, outcomes[name])

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("block_ncoef", 65, "block_ncoef outside"),
            ("coef_scan", 64, "coef_scan outside"),
            ("block_slot", 6, "block_slot outside"),
            ("block_slot", -1, "block_slot outside"),
            ("block_res", None, "block_res outside"),  # None: n_res
            ("mb_res_row", None, "mb_res_row outside"),
            ("mb_res_row", -2, "mb_res_row outside"),
            ("mb_x", None, "mb_x outside"),  # None: mb_width
            ("mb_y", -1, "mb_y outside"),
        ],
    )
    def test_out_of_range_entries_name_their_field(self, wire_case, field, value, message):
        _, matrices, tp, _, _ = wire_case
        if value is None:
            value = tp.plan.mb_width if field == "mb_x" else tp.plan.n_res
        arr = getattr(tp.plan, field).copy()
        arr[len(arr) // 2] = value
        bad = TilePlan(
            tp.picture_index, tp.tile, tp.picture_type, tp.n_coded, tp.n_skipped,
            ReconstructionPlan(**{**vars(tp.plan), field: arr}),
        )
        with pytest.raises(ValueError, match=message):
            decode_plan(encode_plan_bytes(bad), matrices)

    def test_counts_must_sum_to_the_coefficient_count(self, wire_case):
        _, matrices, tp, _, _ = wire_case
        ncoef = tp.plan.block_ncoef.copy()
        moved = int(np.flatnonzero(ncoef)[0])
        ncoef[moved] -= 1  # still <= 64 each, one short in total
        bad = TilePlan(
            tp.picture_index, tp.tile, tp.picture_type, tp.n_coded, tp.n_skipped,
            ReconstructionPlan(**{**vars(tp.plan), "block_ncoef": ncoef}),
        )
        with pytest.raises(ValueError, match="block_ncoef does not sum"):
            decode_plan(encode_plan_bytes(bad), matrices)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mb_y", None, "mb_y outside"),  # None: the raster's mb_height
            ("mb_mv", 1 << 20, "reads outside plane"),
            ("mb_mv", -(1 << 20), "reads outside plane"),  # would wrap a gather
        ],
    )
    def test_tile_decoder_holds_a_wire_plan_to_its_raster(
        self, codec_setup, wire_case, field, value, message
    ):
        """What the record cannot bound (it carries no raster) the consumer
        does, before the plan indexes a plane."""
        sequence, _, layout, _ = codec_setup
        _, matrices, tp, _, ref = wire_case
        arr = getattr(tp.plan, field).copy()
        inter = int(np.flatnonzero(tp.plan.mb_dir[:, 0])[0])
        arr[inter] = sequence.height // 16 if value is None else value
        bad = TilePlan(
            tp.picture_index, tp.tile, tp.picture_type, tp.n_coded, tp.n_skipped,
            ReconstructionPlan(**{**vars(tp.plan), field: arr}),
        )
        out, _ = decode_plan(encode_plan_bytes(bad), matrices)  # wire-legal
        dec = TileDecoder(layout.tile(tp.tile), layout, sequence)
        dec._expected_picture, dec.chain.held = tp.picture_index, ref
        with pytest.raises(ValueError, match=message):
            dec.decode_plan(out)

    def test_seeded_byte_flips(self, wire_case):
        """2 000 single-byte corruptions anywhere in the record: the codec
        rejects them or hands over a plan that runs — never an
        ``IndexError`` from inside numpy, never a crash."""
        _, _, _, payload, _ = wire_case
        rng = random.Random(20260928)
        seen = {"rejected": 0, "equal": 0, "executed": 0}
        for _ in range(2000):
            damaged = bytearray(payload)
            at = rng.randrange(len(damaged))
            damaged[at] ^= rng.randrange(1, 256)
            seen[_decode_outcome(bytes(damaged), wire_case)] += 1
        # "equal" is the header's pad byte, or a flag byte still nonzero
        assert seen["rejected"] > 0 and seen["executed"] > 0, seen


class TestPlanDecodeEquivalence:
    def test_decode_plan_matches_decode_subpicture(self, codec_setup):
        """The tentpole property: per-tile frames from wire-shipped plans
        are bit-identical to sub-picture bitstream decoding, and the plan
        decoder does zero VLC work."""
        sequence, pictures, layout, splitter = codec_setup
        dec_sp = {
            t.tid: TileDecoder(t, layout, sequence) for t in layout
        }
        dec_plan = {
            t.tid: TileDecoder(t, layout, sequence) for t in layout
        }
        for i, unit in enumerate(pictures):
            sp_result = splitter.split(unit, i)
            plan_result = splitter.compile_plans(
                splitter.parser.parse_picture(unit.data), i
            )
            for tid in range(layout.n_tiles):
                a = dec_sp[tid].decode_subpicture(sp_result.subpictures[tid])
                payload = encode_plan_bytes(plan_result.plans[tid])
                tp, _ = decode_plan(payload, dec_plan[tid].matrices)
                b = dec_plan[tid].decode_plan(tp)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.max_abs_diff(b) == 0, f"picture {i} tile {tid}"
        for tid in range(layout.n_tiles):
            a, b = dec_sp[tid].flush(), dec_plan[tid].flush()
            if a is not None:
                assert a.max_abs_diff(b) == 0
            assert dec_plan[tid].stage_times.parse == 0.0
            assert dec_sp[tid].stage_times.parse > 0.0
            assert (
                dec_plan[tid].stats.macroblocks_decoded
                == dec_sp[tid].stats.macroblocks_decoded
            )
            assert (
                dec_plan[tid].stats.macroblocks_skipped
                == dec_sp[tid].stats.macroblocks_skipped
            )
