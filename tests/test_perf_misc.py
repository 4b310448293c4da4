"""Odds and ends of the perf layer: config tables, helpers, invariants."""

import tracemalloc

import pytest

from repro.mpeg2 import plan_codec
from repro.mpeg2.batch_reconstruct import ExecuteScratch, execute_plan
from repro.mpeg2.constants import PictureType
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.plan import QuantMatrices, plan_from_columns
from repro.perf import experiments as E
from repro.perf.costmodel import CostModel
from repro.wall.layout import TileLayout
from repro.workloads.streams import TABLE4_STREAMS, stream_by_id
from repro.workloads.synthetic import moving_pattern_frames
from tests.oracles import use_execute_engine, use_parse_engine, use_plan_engine
from tests.test_batch_reconstruct import NamedScratch


class TestExperimentConfigTables:
    def test_table6_covers_all_streams(self):
        assert sorted(E.TABLE6_CONFIGS) == [s.sid for s in TABLE4_STREAMS]

    def test_configs_fit_the_wall(self):
        for sid, (m, n) in E.TABLE6_CONFIGS.items():
            assert 1 <= m <= 6 and 1 <= n <= 4  # the 6x4 Princeton wall

    def test_configs_scale_with_resolution(self):
        """Bigger streams get at least as many tiles."""
        tiles = {
            sid: m * n for sid, (m, n) in E.TABLE6_CONFIGS.items()
        }
        assert tiles[16] == 16
        assert tiles[1] == 1
        assert tiles[16] >= tiles[13] >= tiles[10] >= tiles[8]

    def test_screen_configs_ordered_by_size(self):
        sizes = [m * n for m, n in E.SCREEN_CONFIGS]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1 and sizes[-1] == 16


class TestLayoutsMatchStreams:
    @pytest.mark.parametrize("sid", [s.sid for s in TABLE4_STREAMS])
    def test_every_stream_layout_constructible(self, sid):
        spec = stream_by_id(sid)
        m, n = E.TABLE6_CONFIGS[sid]
        layout = TileLayout(spec.width, spec.height, m, n)
        assert layout.n_tiles == m * n
        loads = spec.tile_workloads(layout)
        assert sum(w["mbs"] for w in loads.values()) >= spec.mbs_per_frame


class TestCostModelSanity:
    def test_costs_positive(self):
        c = CostModel()
        for name in (
            "decode_mb_fixed",
            "decode_per_bit",
            "display_mb",
            "split_mb_fixed",
            "split_per_bit",
            "serve_per_byte",
            "mei_per_instruction",
            "ack_cost",
        ):
            assert getattr(c, name) > 0, name

    def test_console_slower_than_workers(self):
        assert CostModel().root_speed < 1.0

    def test_t_s_monotone_in_resolution(self):
        c = CostModel()
        assert c.t_s(stream_by_id(16)) > c.t_s(stream_by_id(8)) > c.t_s(
            stream_by_id(1)
        )

    def test_t_d_decreases_with_tiles(self):
        c = CostModel()
        spec = stream_by_id(16)
        t1 = c.t_d(spec, TileLayout(spec.width, spec.height, 1, 1))
        t4 = c.t_d(spec, TileLayout(spec.width, spec.height, 2, 2))
        t16 = c.t_d(spec, TileLayout(spec.width, spec.height, 4, 4))
        assert t1 > t4 > t16

    def test_paper_anchor_ratio(self):
        """The §5.3 calibration anchor: splitting a picture costs roughly
        a quarter of decoding it (saturation beyond ~4 decoders)."""
        c = CostModel()
        spec = stream_by_id(1)
        bits = spec.avg_frame_bytes * 8
        ratio = c.t_split_picture(spec.mbs_per_frame, bits) / c.t_decode_mbs(
            spec.mbs_per_frame, bits
        )
        assert 0.15 < ratio < 0.4


class TestExecuteAllocations:
    """The execute phase reuses its scratch: a count of bytes, not a timing."""

    # what a warm call still allocates: the dequantisers' per-entry
    # temporaries, index arrays and one group's gathered windows
    SLACK = 128 * 1024

    @staticmethod
    def _traced_cold_and_warm(scratch):
        """Peak traced bytes, above where it started, of a first and a second
        ``execute_plan`` of a densely coded P picture through ``scratch``;
        and the plan and the frame it wrote."""
        w, h = 320, 192
        # a fine quantiser: most blocks of the P picture are coded
        stream = Encoder(
            EncoderConfig(gop_size=2, b_frames=0, qscale_code_inter=4)
        ).encode(moving_pattern_frames(w, h, 2, seed=1))
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        matrices = QuantMatrices.from_sequence(sequence)
        intra, inter = (
            plan_from_columns(parser.parse_picture(u.data), w, h, matrices)
            for u in pictures
        )
        assert inter.picture_type == PictureType.P
        assert inter.n_blocks > 3 * inter.n_macroblocks
        ref, out = Frame.blank(w, h), Frame.blank(w, h)
        execute_plan(intra, ref, None, None)

        def traced():
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            execute_plan(inter, out, ref, None, scratch)
            return tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            return traced(), traced(), inter, out
        finally:
            tracemalloc.stop()

    def test_warm_scratch_allocates_a_fraction_of_a_cold_one(self, monkeypatch):
        use_execute_engine("python", monkeypatch)
        cold, warm, _plan, out = self._traced_cold_and_warm(ExecuteScratch())
        frame_bytes = out.y.nbytes + out.cb.nbytes + out.cr.nbytes
        assert 4 * warm < cold, (warm, cold)
        assert warm < frame_bytes + self.SLACK, (warm, frame_bytes)

    def test_the_native_path_takes_four_buffers_and_allocates_by_the_plan(self, monkeypatch):
        """No coefficient, prediction, accumulator or tile stacks: the kernel
        transforms each block on the stack, predicts from the reference
        planes and stores into the output; of the four buffers it once took,
        only the residual stack is left.  What a warm call still allocates
        is a few index words, whatever the raster."""
        use_execute_engine("native", monkeypatch)
        scratch = NamedScratch()
        cold, warm, plan, out = self._traced_cold_and_warm(scratch)
        assert scratch.taken == {"res"}
        plan_bytes = sum(
            getattr(plan, name).nbytes for name, *_ in plan_codec._ARRAYS
        )
        frame_bytes = out.y.nbytes + out.cb.nbytes + out.cr.nbytes
        assert 4 * warm < cold, (warm, cold)
        assert warm < plan_bytes // 4 and warm < frame_bytes // 8, (warm, plan_bytes, frame_bytes)


class CountingLibrary:
    """A ``ctypes`` library whose every foreign call is counted by name."""

    def __init__(self, library):
        self.library = library
        self.calls = []

    def __getattr__(self, name):
        function = getattr(self.library, name)

        def counted(*args):
            self.calls.append(name)
            return function(*args)

        return counted


class TestParseAndPlanAllocations:
    """Between the coded bits and the plan the native engines make two
    foreign calls and keep nothing but their results: counts of calls and of
    bytes, not timings.  The numpy bodies' own figures are pinned beside
    them, so the difference is on record."""

    # the records' Python-side bookkeeping: argument arrays, ctypes structs
    SLACK = 16 * 1024

    @staticmethod
    def _traced_warm(engine, monkeypatch):
        """Peak traced bytes, above where it started, of a warm lean parse +
        plan of a densely coded P picture on ``engine``; the bytes of the
        columns and of the plan's own arrays; the foreign calls made."""
        import dataclasses

        import numpy as np

        from repro.mpeg2 import native_columns, native_walk

        use_parse_engine(engine, monkeypatch)
        use_plan_engine(engine, monkeypatch)
        libraries = [CountingLibrary(m.LIBRARY) for m in (native_walk, native_columns)]
        monkeypatch.setattr(native_walk, "LIBRARY", libraries[0])
        monkeypatch.setattr(native_columns, "LIBRARY", libraries[1])
        w, h = 320, 192
        stream = Encoder(
            EncoderConfig(gop_size=2, b_frames=0, qscale_code_inter=4)
        ).encode(moving_pattern_frames(w, h, 2, seed=1))
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        matrices = QuantMatrices.from_sequence(sequence)

        def parse_and_plan():
            parsed = parser.parse_picture(pictures[1].data, lean=True)
            return parsed, plan_from_columns(parsed, w, h, matrices)

        parse_and_plan()  # warm
        del libraries[0].calls[:], libraries[1].calls[:]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            parsed, plan = parse_and_plan()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert plan.picture_type == PictureType.P and plan.n_blocks > 3 * plan.n_macroblocks
        own = {
            id(a): a.nbytes
            for record in (parsed.columns, plan)
            for a in (getattr(record, f.name) for f in dataclasses.fields(record))
            if isinstance(a, np.ndarray)
        }
        return peak, sum(own.values()), libraries[0].calls + libraries[1].calls

    def test_the_native_engines_make_two_calls_and_keep_only_their_results(self, monkeypatch):
        peak, kept, calls = self._traced_warm("native", monkeypatch)
        print(f"\nnative parse + plan: {calls}, peak {peak} bytes for {kept} kept")
        assert calls == ["parse_picture", "build_plan"]
        assert peak < kept + self.SLACK, (peak, kept)

    def test_the_numpy_bodies_make_none_and_hold_temporaries_the_size_of_the_results(
        self, monkeypatch
    ):
        peak, kept, calls = self._traced_warm("python", monkeypatch)
        print(f"\nnumpy parse + plan: {calls}, peak {peak} bytes for {kept} kept")
        assert calls == []
        assert peak > 1.5 * kept, (peak, kept)


class TestThreadedCollectorAllocations:
    """The threaded runner's collector pastes a tile's crop when it arrives
    and lets the tile's full-raster frame go: a count of bytes, not a timing."""

    def test_tile_frames_do_not_outlive_their_paste(self):
        from repro.parallel.threaded import ThreadedParallelDecoder

        w, h, gop = 256, 192, 12
        # three GOPs of a still: one coded I picture each, the rest skipped,
        # so the decode is quick and full-raster frames are what it allocates
        still = moving_pattern_frames(w, h, 1, seed=2)
        stream = Encoder(
            EncoderConfig(gop_size=gop, b_frames=2, search_range=1)
        ).encode(still * (3 * gop))
        layout = TileLayout(w, h, 4, 2)
        tracemalloc.start()
        try:
            out = ThreadedParallelDecoder(layout, k=1).decode(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame_bytes = out[0].y.nbytes + out[0].cb.nbytes + out[0].cr.nbytes
        # alive at once: the output, each decoder's two references and
        # current picture, its scratch -- not every tile frame of every
        # picture (n_pics x n_tiles of them) until the threads have joined
        assert len(out) == 3 * gop
        assert peak < len(out) * layout.n_tiles * frame_bytes / 2, peak / frame_bytes
