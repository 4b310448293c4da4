"""Trace-driven workloads and their agreement with the analytic model."""

import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.perf.costmodel import build_picture_work
from repro.perf.trace_workload import (
    TraceScaling,
    compare_trace_to_model,
    extract_trace,
    scaling_for,
)
from repro.parallel.system import TimedSystem
from repro.wall.layout import TileLayout
from repro.workloads.streams import stream_by_id


@pytest.fixture(scope="module")
def traced_setup():
    spec = stream_by_id(8)
    scaled = spec.scaled(160)
    frames = spec.synthetic_frames(18, max_width=160)
    stream = Encoder(
        EncoderConfig(gop_size=scaled.gop_size, b_frames=scaled.b_frames)
    ).encode(frames)
    layout = TileLayout(scaled.width, scaled.height, 2, 2)
    works = extract_trace(stream, layout)
    return spec, scaled, stream, layout, works


class TestExtraction:
    def test_one_work_per_picture(self, traced_setup):
        _, _, _, _, works = traced_setup
        assert len(works) == 18
        assert works[0].ptype == PictureType.I

    def test_tiles_cover_layout(self, traced_setup):
        _, _, _, layout, works = traced_setup
        for w in works:
            assert set(w.tiles) == {t.tid for t in layout}

    def test_macroblock_conservation(self, traced_setup):
        """Per-tile macroblock counts cover each picture at least once
        (exactly once with no overlap)."""
        _, scaled, _, layout, works = traced_setup
        for w in works:
            total = sum(tw.n_mbs for tw in w.tiles.values())
            assert total == scaled.mbs_per_frame

    def test_exchanges_absent_for_i_pictures(self, traced_setup):
        _, _, _, _, works = traced_setup
        for w in works:
            if w.ptype == PictureType.I:
                assert w.exchanges == []

    def test_scaling_multiplies(self, traced_setup):
        _, _, stream, layout, works = traced_setup
        scaled2 = extract_trace(
            stream, layout, TraceScaling(area_factor=4.0, bit_factor=2.0)
        )
        for a, b in zip(works, scaled2):
            assert b.nbytes == pytest.approx(2 * a.nbytes, abs=2)
            for tid in a.tiles:
                assert b.tiles[tid].n_mbs == pytest.approx(
                    4 * a.tiles[tid].n_mbs, abs=2
                )

    def test_wrong_layout_rejected(self, traced_setup):
        _, scaled, stream, _, _ = traced_setup
        bad = TileLayout(scaled.width * 2, scaled.height, 2, 1)
        with pytest.raises(ValueError):
            extract_trace(stream, bad)


class TestModelAgreement:
    def test_trace_and_model_within_factor(self, traced_setup):
        """The analytic model's exchange volume and SPH counts agree with
        the real splitter's within a small factor — the model feeds the
        performance results, so this bounds its input error."""
        spec, scaled, stream, layout, works = traced_setup
        modeled = build_picture_work(scaled, layout, n_frames=len(works))
        cmp_ = compare_trace_to_model(works, modeled)
        assert 0.2 < cmp_.exchange_ratio < 5.0
        assert cmp_.traced_sph_per_tile_pic > 0
        # SPH count scale: roughly one per macroblock row per tile
        assert (
            0.3
            < cmp_.traced_sph_per_tile_pic / cmp_.model_sph_per_tile_pic
            < 3.0
        )

    def test_timed_system_accepts_trace(self, traced_setup):
        """The DES runs on trace-derived workloads end to end."""
        spec, scaled, stream, layout, works = traced_setup
        scaling = scaling_for(
            spec, scaled, traced_bytes=len(stream), n_pics=len(works)
        )
        full_layout = TileLayout(spec.width, spec.height, 2, 2)
        full_works = extract_trace(stream, layout, scaling)
        sys_ = TimedSystem(spec, full_layout, k=2, works=full_works)
        res = sys_.run()
        assert res.fps > 0
        assert res.flow_control_violations == 0
        assert len(res.display_times) == len(works)

    def test_trace_driven_fps_comparable_to_model(self, traced_setup):
        """Trace-driven and model-driven runs land in the same regime."""
        spec, scaled, stream, layout, works = traced_setup
        scaling = scaling_for(spec, scaled, len(stream), len(works))
        full_layout = TileLayout(spec.width, spec.height, 2, 2)
        traced_fps = TimedSystem(
            spec, full_layout, k=2, works=extract_trace(stream, layout, scaling)
        ).run().fps
        model_fps = TimedSystem(spec, full_layout, k=2, n_frames=18).run().fps
        assert 0.4 < traced_fps / model_fps < 2.5
