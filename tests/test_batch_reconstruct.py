"""Batched two-phase reconstruction must be bit-identical to the reference.

The batched engine (:mod:`repro.mpeg2.batch_reconstruct`) replays exactly
the arithmetic of the per-macroblock path (``tests/oracles.py::
reference_decode``) over whole-picture stacks, so the only acceptable
difference is speed.  Golden tests pin the session streams;
the hypothesis test sweeps random GOP structures (I/P/B mixes, skipped
macroblocks from frozen content, partial slices wherever a 2x2 tiling cuts
a slice mid-row) through both the sequential decoder and the tiled wall.

``execute_plan`` has two engines -- the native kernel (one foreign call per
picture, the integer IDCT included) where it could be built, the numpy body
otherwise -- and ``src/`` no switch
between them: this module names the kernel (conftest's ``execute_engine``
reads ``EXECUTE_ENGINE`` from the collecting module) and
``tests/test_python_execute.py`` collects the same cases on the numpy body,
so both meet every oracle here whichever one serves.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.mpeg2 import batch_reconstruct, dct, plan_codec
from repro.mpeg2.batch_reconstruct import (
    ExecuteScratch,
    _predict_plane_batch,
    _residual_stacks,
    execute_plan,
)
from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import Decoder
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.macroblock import Macroblock
from repro.mpeg2.motion import Rect, predict_plane
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.plan import PlanBuilder, QuantMatrices, narrow_levels, plan_from_columns
from repro.mpeg2.reconstruct import reconstruct_macroblock
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.pdecoder import TileDecoder
from repro.parallel.pipeline import ParallelDecoder
from repro.wall.layout import TileLayout
from tests.oracles import chen_wang_idct, reference_decode

EXECUTE_ENGINE = "native"
pytestmark = pytest.mark.usefixtures("execute_engine")


def assert_frames_equal(a, b, context=""):
    __tracebackhide__ = True
    assert a.y.shape == b.y.shape, f"{context}: luma shapes differ"
    diff = a.max_abs_diff(b)
    assert diff == 0, f"{context}: frames differ by up to {diff}"


def _decode_both(stream):
    ref = reference_decode(stream)
    bat = Decoder().decode(stream)
    assert len(ref) == len(bat)
    return ref, bat


class NamedScratch(ExecuteScratch):
    """Remembers which buffers were taken from it."""

    def __init__(self):
        super().__init__()
        self.taken = set()

    def take(self, name, shape, dtype):
        self.taken.add(name)
        return super().take(name, shape, dtype)


def test_the_engine_this_module_names_is_the_one_that_executes(execute_engine, small_stream):
    sequence, plans = _stream_plans(small_stream)
    scratch = NamedScratch()
    _execute_all(sequence, plans, scratch)
    if execute_engine == "native":
        assert batch_reconstruct._execute is batch_reconstruct._execute_native
        assert scratch.taken == {"res"}
    else:
        assert batch_reconstruct._execute is batch_reconstruct._execute_numpy
        assert {"res", "coeffs", "res_y", "acc"} < scratch.taken


# ---------------------------------------------------------------------- #
# golden streams
# ---------------------------------------------------------------------- #


def test_batched_matches_reference_ibbp(small_stream):
    ref, bat = _decode_both(small_stream)
    for i, (a, b) in enumerate(zip(ref, bat)):
        assert_frames_equal(a, b, f"IBBP frame {i}")


def test_batched_matches_reference_ip_only(ip_stream):
    ref, bat = _decode_both(ip_stream)
    for i, (a, b) in enumerate(zip(ref, bat)):
        assert_frames_equal(a, b, f"IP frame {i}")


def test_batched_matches_reference_all_intra(i_only_stream):
    ref, bat = _decode_both(i_only_stream)
    for i, (a, b) in enumerate(zip(ref, bat)):
        assert_frames_equal(a, b, f"intra frame {i}")


def test_batched_tiled_matches_sequential_reference(small_stream):
    ref = reference_decode(small_stream)
    out = ParallelDecoder(TileLayout(96, 64, 2, 2), k=2).decode(small_stream)
    assert len(out) == len(ref)
    for i, (a, b) in enumerate(zip(out, ref)):
        assert_frames_equal(a, b, f"tiled frame {i}")


# ---------------------------------------------------------------------- #
# randomized GOPs
# ---------------------------------------------------------------------- #


def _gop_clip(rng: np.random.Generator, w: int, h: int, n: int):
    """Temporally coherent frames with frozen stretches (-> skipped MBs)."""
    base = rng.integers(16, 235, (h, w), dtype=np.uint8).astype(np.uint8)
    frames = []
    prev = None
    for t in range(n):
        if prev is not None and t % 3 == 1:
            # an identical frame makes P/B macroblocks skip
            frames.append(prev)
            continue
        y = np.roll(base, shift=2 * t, axis=1).copy()
        y[: h // 4, : w // 4] = rng.integers(16, 235)
        cb = np.full((h // 2, w // 2), 120, np.uint8)
        cr = np.full((h // 2, w // 2), 130, np.uint8)
        prev = Frame(y, cb, cr)
        frames.append(prev)
    return frames


@given(
    seed=st.integers(0, 2**31),
    mbw=st.integers(2, 5),
    mbh=st.integers(2, 4),
    gop=st.integers(1, 5),
    b_frames=st.integers(0, 2),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_gop_batched_identical(seed, mbw, mbh, gop, b_frames):
    rng = np.random.default_rng(seed)
    w, h = 16 * mbw, 16 * mbh
    frames = _gop_clip(rng, w, h, 6)
    stream = Encoder(
        EncoderConfig(gop_size=gop, b_frames=b_frames, search_range=3)
    ).encode(frames)

    ref, bat = _decode_both(stream)
    for i, (a, b) in enumerate(zip(ref, bat)):
        assert_frames_equal(a, b, f"sequential frame {i}")
    _assert_scratch_never_shows(stream)

    # a 2x2 wall cuts every slice into partial-slice records
    layout = TileLayout(w, h, 2, 2)
    tiled = ParallelDecoder(layout, k=2).decode(stream)
    assert len(tiled) == len(ref)
    for i, (a, b) in enumerate(zip(tiled, ref)):
        assert_frames_equal(a, b, f"tiled frame {i}")


# ---------------------------------------------------------------------- #
# plan builder contracts
# ---------------------------------------------------------------------- #


def test_plan_rejects_out_of_bounds_vector():
    builder = PlanBuilder(PictureType.P, mb_width=4, frame_width=64, frame_height=48)
    mb = Macroblock(
        address=0, intra=False, motion_forward=True, mv_fwd=(-9, 0), qscale_code=8
    )
    with pytest.raises(ValueError, match="outside plane"):
        builder.add(mb)


def test_plan_add_all_is_transactional():
    builder = PlanBuilder(PictureType.P, mb_width=4, frame_width=64, frame_height=48)
    good = Macroblock(
        address=0, intra=False, motion_forward=True, mv_fwd=(2, 2), qscale_code=8
    )
    bad = Macroblock(
        address=1, intra=False, motion_forward=True, mv_fwd=(0, 99), qscale_code=8
    )
    with pytest.raises(ValueError):
        builder.add_all([good, bad])
    assert builder.build().n_macroblocks == 0


def test_empty_plan_executes_as_noop():
    builder = PlanBuilder(PictureType.I, mb_width=4, frame_width=64, frame_height=48)
    out = Frame.blank(64, 48, y=77, c=128)
    execute_plan(builder.build(), out, None, None)
    assert int(out.y.min()) == int(out.y.max()) == 77


# ---------------------------------------------------------------------- #
# the sparse coefficient kernels against their dense twins
# ---------------------------------------------------------------------- #


def _dense_residuals(scans, n_intra, qscale, matrices, dc_scaler):
    """What the dense path made of ``(n, 64)`` scan-order levels: the IDCT
    of ``dct.dequantize_intra`` / ``dequantize_non_intra``."""
    blocks = dct.scan_to_block(scans)
    coeffs = np.empty(blocks.shape, dtype=np.int64)
    coeffs[:n_intra] = dct.dequantize_intra(
        blocks[:n_intra], qscale[:n_intra], matrices.intra, dc_scaler
    )
    coeffs[n_intra:] = dct.dequantize_non_intra(
        blocks[n_intra:], qscale[n_intra:], matrices.non_intra
    )
    return coeffs, dct.idct(coeffs)


@st.composite
def coefficient_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    n_intra = draw(st.integers(0, n))
    # per-block density from empty to all 64 coded; extremes over-weighted
    density = rng.choice([0.0, 0.05, 0.3, 1.0], size=n)
    levels = rng.choice(
        [-2047, -2046, -1025, -3, -2, -1, 1, 2, 3, 1025, 2046, 2047], size=(n, 64)
    )
    scans = np.where(rng.random((n, 64)) < density[:, None], levels, 0).astype(np.int32)
    qscale = rng.choice([1, 2, 3, 8, 31, 62, 111, 112], size=n).astype(np.int64)
    matrices = QuantMatrices(
        intra=rng.choice([1, 2, 15, 16, 17, 254, 255], size=(8, 8)).astype(np.int32),
        non_intra=rng.choice([1, 2, 15, 16, 17, 254, 255], size=(8, 8)).astype(np.int32),
    )
    return scans, n_intra, qscale, matrices, draw(st.sampled_from([8, 4, 2]))


def _all_coded(level):
    scans = np.full((2, 64), level, dtype=np.int32)
    return scans, 1, np.array([112, 112]), QuantMatrices(
        intra=np.full((8, 8), 255, np.int32), non_intra=np.full((8, 8), 255, np.int32)
    ), 2


@settings(max_examples=150, deadline=None)
@given(coefficient_cases())
@example(_all_coded(2047))  # every entry coded, every product saturates high
@example(_all_coded(-2047))  # ... and low, through negative division
@example((np.zeros((1, 64), np.int32), 1, np.array([2]), QuantMatrices(), 8))
def test_sparse_dequantiser_matches_dense(case):
    scans, n_intra, qscale, matrices, dc_scaler = case
    n = len(scans)
    dense_coeffs, dense_res = _dense_residuals(scans, n_intra, qscale, matrices, dc_scaler)

    # the plan's form: nonzero entries, plus every intra block's DC entry
    # even when its level is zero (the parser always emits it)
    listed = scans != 0
    listed[:n_intra, 0] = True
    block, scan = np.nonzero(listed)
    level = narrow_levels(scans[block, scan])
    ncoef = listed.sum(axis=1)
    k = int(ncoef[:n_intra].sum())
    per_entry_q = np.repeat(qscale, ncoef)
    sparse = np.zeros((n, 64), dtype=np.int64)
    sparse[block[:k], scan[:k]] = dct.dequantize_intra_sparse(
        level[:k], scan[:k], per_entry_q[:k], matrices.intra_scan, dc_scaler
    )
    sparse[block[k:], scan[k:]] = dct.dequantize_non_intra_sparse(
        level[k:], scan[k:], per_entry_q[k:], matrices.non_intra_scan
    )
    assert np.array_equal(dct.scan_to_block(sparse), dense_coeffs)

    # and through the executor's kernel: one block per residual row slot
    builder = PlanBuilder(PictureType.I, 4, 64, 48, matrices, dc_scaler)
    plan = builder.build()
    plan.block_ncoef = ncoef.astype(np.uint8)
    plan.coef_scan = scan.astype(np.uint8)
    plan.coef_level = level
    plan.block_qscale = qscale
    plan.block_res = np.arange(n) // 6
    plan.block_slot = np.arange(n) % 6
    plan.n_intra_blocks = n_intra
    plan.n_res = -(-n // 6)
    res6 = _residual_stacks(plan, ExecuteScratch())
    assert res6.dtype == np.int16
    flat = res6.reshape(-1, 8, 8)
    assert np.array_equal(flat[:n], dense_res)
    assert not flat[n:].any()


@pytest.mark.parametrize("intra", [True, False])
def test_the_engine_dequantises_toward_zero(intra):
    """One macroblock whose every block holds one negative level at scan
    position 1 (raster (0, 1)), at a quantiser scale of 2 (code 1), each
    block under its own matrix weight: the frame is the scalar IDCT of the
    hand-worked coefficients, over a prediction of 128 or (intra) a DC of
    1024 -- and, where the division is inexact, flooring would have shown."""
    # (level, weight, coefficient): level * W * 2 / 16, or (2 level - 1) * W * 2 / 32
    cases = (
        [(-1, 17, -2), (-1, 24, -3), (-3, 7, -2), (-1, 20, -2), (-7, 6, -5), (-1, 8, -1)]
        if intra
        else [(-1, 11, -2), (-1, 16, -3), (-2, 7, -2), (-1, 13, -2), (-3, 5, -2), (-1, 20, -3)]
    )
    dc, base = (1024, 0) if intra else (0, 128)

    def samples(coefficient):
        coeffs = [0] * 64
        coeffs[0], coeffs[1] = dc, coefficient
        return np.array(chen_wang_idct(coeffs)).reshape(8, 8) + base

    for block, (level, weight, coefficient) in enumerate(cases):
        product, divisor = (level * weight * 2, 16) if intra else ((2 * level - 1) * weight * 2, 32)
        assert -(-product // divisor) == coefficient
        if product % divisor:
            assert not np.array_equal(samples(product // divisor), samples(coefficient))
        scan = np.zeros(64, dtype=np.int32)
        scan[1] = level
        if intra:
            scan[0] = 128  # a DC level of 128 at dc_scaler 8
        matrix = np.full((8, 8), weight, dtype=np.int32)
        mb = Macroblock(
            address=0, intra=intra, motion_forward=not intra, mv_fwd=None if intra else (0, 0),
            pattern=not intra, cbp=63, qscale_code=1,
            blocks=[scan if b == block else None for b in range(6)],
        )
        builder = PlanBuilder(PictureType.P, 1, 16, 16, QuantMatrices(intra=matrix, non_intra=matrix))
        builder.add_all([mb])
        out = Frame.blank(16, 16, y=7, c=7)
        execute_plan(builder.build(), out, Frame.blank(16, 16, y=128, c=128), None)
        tiles = [out.y[:8, :8], out.y[:8, 8:], out.y[8:, :8], out.y[8:, 8:], out.cb, out.cr]
        assert np.array_equal(tiles[block], samples(coefficient)), block
        assert all((t == base).all() for b, t in enumerate(tiles) if b != block)


def test_level_narrowing_saturates_where_dequantisation_does():
    """A damaged stream can run an intra DC predictor past int16; clamping
    the level leaves the (saturated) coefficient unchanged."""
    wild = np.array([-(2**31), -70000, -32769, 32768, 70000, 2**31 - 1])
    narrow = narrow_levels(wild)
    assert narrow.dtype == np.int16
    assert narrow.tolist() == [-32768] * 3 + [32767] * 3
    for dc_scaler in (8, 4, 2, 1):
        scans = np.zeros((len(wild), 64), dtype=np.int64)
        scans[:, 0] = wild
        dense = dct.dequantize_intra(dct.scan_to_block(scans), 2, dc_scaler=dc_scaler)
        sparse = dct.dequantize_intra_sparse(
            narrow, np.zeros(len(wild), np.uint8), np.full(len(wild), 2),
            QuantMatrices().intra_scan, dc_scaler,
        )
        assert np.array_equal(dense[:, 0, 0], sparse)


@pytest.mark.parametrize("size,shape", [(16, (48, 80)), (8, (24, 40))])
def test_windowed_gather_matches_predict_plane_at_every_edge(size, shape):
    """All four half-pel classes, with the read window flush against each
    edge and corner of the plane (luma 16x16 and chroma 8x8 requests)."""
    rng = np.random.default_rng(size)
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    h, w = shape
    requests = []  # (base_x, base_y, mvx, mvy)
    for fy in (0, 1):
        for fx in (0, 1):
            for x0 in (0, 5, w - size - fx):
                for y0 in (0, 3, h - size - fy):
                    for base_x, base_y in ((0, 0), (w - size, h - size), (size, size)):
                        requests.append(
                            (base_x, base_y, 2 * (x0 - base_x) + fx, 2 * (y0 - base_y) + fy)
                        )
    bx, by, mvx, mvy = (np.array(col, dtype=np.int64) for col in zip(*requests))
    got = np.empty((len(requests), size, size), dtype=np.uint8)
    _predict_plane_batch(plane, bx, by, mvx, mvy, got, ExecuteScratch())
    for i, (x, y, vx, vy) in enumerate(requests):
        want = predict_plane(plane, x, y, size, size, vx, vy)
        assert np.array_equal(got[i], want), requests[i]
    # one sample past any edge is the reference path's ValueError; here the
    # plan-time check owns it, and the gather itself refuses the index
    with pytest.raises(IndexError):
        _predict_plane_batch(
            plane, np.array([w - size]), np.array([0]), np.array([1]), np.array([0]),
            got[:1], ExecuteScratch(),
        )


# ---------------------------------------------------------------------- #
# the scratch contract: an arena carries memory between calls, never data
# ---------------------------------------------------------------------- #


class PoisonedScratch(ExecuteScratch):
    """Hands out every view full of 0x5A bytes — on top of whatever the
    call before left there — so a region read before it is written shows."""

    def take(self, name, shape, dtype):
        view = super().take(name, shape, dtype)
        view.reshape(-1).view(np.uint8).fill(0x5A)
        return view


def _stream_plans(stream):
    """``(sequence, plans)``: one full-picture plan per coded picture."""
    sequence, pictures = PictureScanner(stream).scan()
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    return sequence, [
        plan_from_columns(
            parser.parse_picture(unit.data), sequence.width, sequence.height, matrices
        )
        for unit in pictures
    ]


def _execute_all(sequence, plans, *scratch):
    """Frames in coded order, every ``execute_plan`` given ``*scratch``
    (nothing: the four-argument call)."""
    held = prev = None
    frames = []
    for plan in plans:
        out = Frame.blank(sequence.width, sequence.height)
        if plan.picture_type == PictureType.B:
            execute_plan(plan, out, prev, held, *scratch)
        else:
            fwd = held if plan.picture_type == PictureType.P else None
            execute_plan(plan, out, fwd, None, *scratch)
            prev, held = held, out
        frames.append(out)
    return frames


def _assert_scratch_never_shows(stream):
    sequence, plans = _stream_plans(stream)
    want = _execute_all(sequence, plans)  # a throw-away scratch per call
    assert _execute_all(sequence, plans, ExecuteScratch()) == want
    assert _execute_all(sequence, plans, PoisonedScratch()) == want


@pytest.mark.parametrize("name", ["small_stream", "ip_stream", "i_only_stream", "detail_stream"])
def test_scratch_contents_never_reach_the_output(name, request):
    """No scratch argument, one warm scratch and one poisoned at every
    ``take`` all give the same frames."""
    _assert_scratch_never_shows(request.getfixturevalue(name))


def test_idct_in_pieces_matches_reference(small_stream, monkeypatch):
    """Pictures of more blocks than the numpy transform takes at a time
    (here 7, so a piece boundary falls inside macroblocks and inside the
    intra/inter split; the kernel transforms a block at a time)."""
    monkeypatch.setattr(dct, "_IDCT_PIECE", 7)
    ref, bat = _decode_both(small_stream)
    assert ref == bat
    _assert_scratch_never_shows(small_stream)


def test_one_scratch_through_changing_pictures_and_rasters(
    small_stream, detail_stream, ip_stream
):
    """I, P and B pictures, then a larger raster, then a smaller one (what
    ``TileDecoder.retile`` does to a tile's share): the buffers grow and
    are reused at other shapes, and every picture equals its fresh-scratch
    result."""
    scratch = PoisonedScratch()
    for stream in (small_stream, detail_stream, ip_stream):  # 96x64, 128x96, 96x64
        sequence, plans = _stream_plans(stream)
        types = [plan.picture_type for plan in plans]
        assert PictureType.I in types and PictureType.P in types
        assert _execute_all(sequence, plans, scratch) == _execute_all(sequence, plans)


def _saturating_macroblocks(intra_first: bool):
    """One B-picture's worth of macroblocks whose every coefficient
    dequantises to a 12-bit limit: each half-pel fraction pair x (forward,
    backward, both) x (+2047, -2048), and an intra pair."""
    mb_w, mb_h = 7, 4
    inter = []
    for fy in (0, 1):
        for fx in (0, 1):
            for forward, backward in ((True, False), (False, True), (True, True)):
                for level in (2047, -2047):
                    inter.append((fx, fy, forward, backward, level))
    first_inter = 2 if intra_first else 0
    mbs = []
    for i, (fx, fy, forward, backward, level) in enumerate(inter):
        address = first_inter + i
        mb_x, mb_y = address % mb_w, address // mb_w
        # half-pel reads one sample past the tile: point inward at the edges
        mv = (fx if mb_x < mb_w - 1 else -fx, fy if mb_y < mb_h - 1 else -fy)
        mbs.append(
            Macroblock(
                address=address, motion_forward=forward, motion_backward=backward,
                mv_fwd=mv if forward else None, mv_bwd=mv if backward else None,
                pattern=True, cbp=63, qscale_code=31,
                blocks=[np.full(64, level, dtype=np.int32) for _ in range(6)],
            )
        )
    first_intra = 0 if intra_first else len(inter)
    for i, level in enumerate((2047, -2047)):
        mbs.append(
            Macroblock(
                address=first_intra + i, intra=True, qscale_code=31,
                blocks=[np.full(64, level, dtype=np.int32) for _ in range(6)],
            )
        )
    return mb_w, mb_h, sorted(mbs, key=lambda mb: mb.address)


@pytest.mark.parametrize("intra_first", [True, False])  # identity block order or not
@pytest.mark.parametrize("fwd_level,bwd_level", [(0, 0), (0, 255), (255, 0), (255, 255)])
def test_range_ends_match_the_per_macroblock_oracle(intra_first, fwd_level, bwd_level):
    """The widest values each narrow intermediate must hold — four 255s and
    a rounding 2 in a half-pel sum, 255 + 255 + 1 in an average, residuals
    at both ends of the transform's clip, -256 and 255, over predictions of
    0 and 255 — against the per-macroblock
    path's int64 arithmetic, so a uint16 or int16 wrap cannot hide."""
    mb_w, mb_h, mbs = _saturating_macroblocks(intra_first)
    w, h = 16 * mb_w, 16 * mb_h
    fwd = Frame.blank(w, h, y=fwd_level, c=fwd_level)
    bwd = Frame.blank(w, h, y=bwd_level, c=bwd_level)
    builder = PlanBuilder(PictureType.B, mb_w, w, h)
    builder.add_all(mbs)
    plan = builder.build()
    in_order = np.array_equal(plan.block_res * 6 + plan.block_slot, np.arange(plan.n_blocks))
    assert in_order == intra_first
    res = _residual_stacks(plan, ExecuteScratch())
    assert res.max() == 255 and res.min() == -256

    want = Frame.blank(w, h)
    for mb in mbs:
        reconstruct_macroblock(mb, PictureType.B, want, fwd, bwd, mb_w)
    got = Frame.blank(w, h)
    execute_plan(plan, got, fwd, bwd, PoisonedScratch())
    assert_frames_equal(got, want, "saturating picture")


def test_every_half_pel_fraction_at_every_raster_edge():
    """Through ``execute_plan``: each macroblock of the border of a raster
    (and one inside), each half-pel fraction pair, forward, backward and
    both, with the read window flush against the raster's edge where the
    macroblock touches one -- against the per-macroblock oracle."""
    mb_w, mb_h = 4, 3
    w, h = 16 * mb_w, 16 * mb_h
    rng = np.random.default_rng(7)
    fwd, bwd = (
        Frame(
            rng.integers(0, 256, (h, w), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
        )
        for _ in range(2)
    )
    for fy in (0, 1):
        for fx in (0, 1):
            for forward, backward in ((True, False), (False, True), (True, True)):
                mbs = []
                for address in range(mb_w * mb_h):
                    mb_x, mb_y = address % mb_w, address // mb_w
                    # a window one sample wider than the tile: inward at
                    # the far edges, flush against them; outward elsewhere
                    mv = (-fx if mb_x == mb_w - 1 else fx, -fy if mb_y == mb_h - 1 else fy)
                    mbs.append(
                        Macroblock(
                            address=address, motion_forward=forward, motion_backward=backward,
                            mv_fwd=mv if forward else None, mv_bwd=mv if backward else None,
                            qscale_code=8,
                        )
                    )
                builder = PlanBuilder(PictureType.B, mb_w, w, h)
                builder.add_all(mbs)
                want = Frame.blank(w, h)
                for mb in mbs:
                    reconstruct_macroblock(mb, PictureType.B, want, fwd, bwd, mb_w)
                got = Frame.blank(w, h)
                execute_plan(builder.build(), got, fwd, bwd, PoisonedScratch())
                assert_frames_equal(got, want, f"fraction ({fx},{fy}) {forward} {backward}")


def test_plans_decoded_from_the_wire_execute_as_read_only_views(small_stream):
    """``plan_codec.decode_plan`` hands out read-only views into the payload:
    the execute phase reads them where they lie."""
    sequence, plans = _stream_plans(small_stream)
    matrices = QuantMatrices.from_sequence(sequence)
    shipped = []
    for i, plan in enumerate(plans):
        wire = plan_codec.encode_plan_bytes(
            plan_codec.TilePlan(i, 0, plan.picture_type, 0, 0, plan)
        )
        decoded = plan_codec.decode_plan(wire, matrices)[0].plan
        assert not decoded.mb_mv.flags.writeable and not decoded.coef_level.flags.writeable
        shipped.append(decoded)
    assert _execute_all(sequence, shipped, PoisonedScratch()) == _execute_all(sequence, plans)


def test_rect_plans_equal_the_whole_picture_inside_the_rect(small_stream):
    """A plan over the rows that intersect a rectangle (what ``rect=`` and a
    wall receiver's partition build) writes those macroblocks as the whole
    picture's plan does, and nothing else."""
    sequence, pictures = PictureScanner(small_stream).scan()
    parser = MacroblockParser(sequence)
    matrices = QuantMatrices.from_sequence(sequence)
    parsed = [parser.parse_picture(unit.data) for unit in pictures]
    w, h = sequence.width, sequence.height
    whole = _execute_all(
        sequence, [plan_from_columns(p, w, h, matrices) for p in parsed]
    )
    rect = Rect(20, 10, 70, 40)  # macroblock columns 1-4, rows 0-2
    x0, y0, x1, y1 = 16, 0, 80, 48
    held = prev = None
    for p, full in zip(parsed, whole):
        plan = plan_from_columns(p, w, h, matrices, p.rows_in(rect))
        assert 0 < plan.n_macroblocks < p.mb_width * p.mb_height
        out = Frame.blank(w, h, y=99, c=77)
        if plan.picture_type == PictureType.B:
            execute_plan(plan, out, prev, held)
        else:
            execute_plan(plan, out, held if plan.picture_type == PictureType.P else None, None)
            prev, held = held, full
        assert np.array_equal(out.y[y0:y1, x0:x1], full.y[y0:y1, x0:x1])
        assert np.array_equal(out.cb[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2],
                              full.cb[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2])
        out.y[y0:y1, x0:x1] = 99
        out.cb[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2] = 77
        out.cr[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2] = 77
        assert out == Frame.blank(w, h, y=99, c=77)


def test_two_tile_decoders_on_two_threads_share_nothing(small_stream):
    """Each ``TileDecoder`` owns its scratch: two of them decoding the same
    sub-pictures on two threads, switched as often as the interpreter
    allows, both produce the frames one of them produces alone."""
    sequence, pictures = PictureScanner(small_stream).scan()
    layout = TileLayout(sequence.width, sequence.height, 1, 1)
    splitter = MacroblockSplitter(sequence, layout)
    subpictures = [splitter.split(u, i).subpictures[0] for i, u in enumerate(pictures)]

    def decode_all(sink):
        for _ in range(8):  # long enough for the two threads to overlap
            dec = TileDecoder(layout.tile(0), layout, sequence)
            frames = [dec.decode_subpicture(sp) for sp in subpictures] + [dec.flush()]
            sink.append([f for f in frames if f is not None])

    alone = []
    decode_all(alone)
    results = ([], [])
    threads = [threading.Thread(target=decode_all, args=(sink,)) for sink in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for sink in results:
        assert sink == alone
