"""The protocol on real OS threads: order-correct and deadlock-free."""

import threading
import time

import pytest

import repro.parallel.threaded as threaded_mod
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.parallel.pdecoder import TileDecoder
from repro.parallel.threaded import ThreadedParallelDecoder
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames


@pytest.fixture(scope="module")
def clip_stream():
    clip = moving_pattern_frames(128, 96, 10, seed=15)
    stream = Encoder(EncoderConfig(gop_size=5, b_frames=2)).encode(clip)
    return clip, stream


class TestThreadedDecoder:
    @pytest.mark.parametrize("m,n,k", [(2, 1, 1), (2, 2, 2), (2, 2, 3), (4, 2, 2)])
    def test_bit_exact_under_preemption(self, clip_stream, m, n, k):
        _, stream = clip_stream
        ref = decode_stream(stream)
        layout = TileLayout(128, 96, m, n)
        out = ThreadedParallelDecoder(layout, k=k).decode(stream, timeout=60)
        assert len(out) == len(ref)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, out))

    def test_with_overlap(self, clip_stream):
        _, stream = clip_stream
        ref = decode_stream(stream)
        layout = TileLayout(128, 96, 2, 2, overlap=16)
        out = ThreadedParallelDecoder(layout, k=2).decode(stream, timeout=60)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, out))

    def test_repeated_runs_stable(self, clip_stream):
        """Thread scheduling varies run to run; output must not."""
        _, stream = clip_stream
        layout = TileLayout(128, 96, 2, 2)
        a = ThreadedParallelDecoder(layout, k=3).decode(stream, timeout=60)
        b = ThreadedParallelDecoder(layout, k=3).decode(stream, timeout=60)
        assert all(x.max_abs_diff(y) == 0 for x, y in zip(a, b))

    def test_needs_a_splitter(self, clip_stream):
        with pytest.raises(ValueError):
            ThreadedParallelDecoder(TileLayout(128, 96, 1, 1), k=0)

    def test_error_propagates(self):
        layout = TileLayout(128, 96, 2, 1)
        with pytest.raises(Exception):
            ThreadedParallelDecoder(layout, k=1).decode(b"garbage", timeout=5)


class TestShutdownOnWorkerFailure:
    """A failing tile decoder must poison the pipeline, not hang the join."""

    def test_failing_decoder_cannot_hang_the_driver(self, clip_stream, monkeypatch):
        _, stream = clip_stream

        class FailingDecoder(TileDecoder):
            def decode_subpicture(self, sp):
                if self.tile.tid == 1 and sp.picture_index >= 2:
                    raise RuntimeError("injected tile-decoder failure")
                return super().decode_subpicture(sp)

            def decode_plan(self, tp):
                if self.tile.tid == 1 and tp.picture_index >= 2:
                    raise RuntimeError("injected tile-decoder failure")
                return super().decode_plan(tp)

        monkeypatch.setattr(threaded_mod, "TileDecoder", FailingDecoder)
        before = threading.active_count()
        layout = TileLayout(128, 96, 2, 2)
        t0 = time.monotonic()
        # A generous decode timeout: the failure must surface via the
        # poison path, long before any queue timeout could fire.
        with pytest.raises(RuntimeError, match="injected tile-decoder failure"):
            ThreadedParallelDecoder(layout, k=2).decode(stream, timeout=60)
        assert time.monotonic() - t0 < 20
        # every worker thread drained: nothing left blocked on a queue
        deadline = time.monotonic() + 10
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert threading.active_count() <= before

    def test_failure_in_root_of_deep_pipeline_drains(self, clip_stream, monkeypatch):
        """Root blocked on a full bounded queue must wake on poisoning."""
        _, stream = clip_stream

        class FailingDecoder(TileDecoder):
            def execute_sends(self, program, ptype):
                raise RuntimeError("decoder died before acking")

        monkeypatch.setattr(threaded_mod, "TileDecoder", FailingDecoder)
        before = threading.active_count()
        layout = TileLayout(128, 96, 2, 1)
        with pytest.raises(RuntimeError, match="decoder died"):
            # k=1 and 10 pictures: the root *will* be blocked on the
            # bounded picture queue when the failure strikes.
            ThreadedParallelDecoder(layout, k=1).decode(stream, timeout=60)
        deadline = time.monotonic() + 10
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert threading.active_count() <= before
