"""Cross-validation: analytic workload model vs a real-stream trace.

Not a paper table — this validates the reproduction itself.  A scaled
stream-8 clip is actually encoded and pushed through the real second-level
splitter; the extracted per-tile bits, SPH counts, and MEI exchange
volumes are compared with what the analytic model (which drives Tables 5-6
and Figures 6-9) predicts, and both are run through the timed system.
"""

from conftest import print_table, run_once

from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.parallel.system import TimedSystem
from repro.perf.costmodel import build_picture_work
from repro.perf.trace_workload import compare_trace_to_model, extract_trace, scaling_for
from repro.wall.layout import TileLayout
from repro.workloads.streams import stream_by_id


def test_trace_vs_model(benchmark):
    spec = stream_by_id(8)
    scaled = spec.scaled(160)

    def experiment():
        frames = spec.synthetic_frames(18, max_width=160)
        stream = Encoder(
            EncoderConfig(gop_size=scaled.gop_size, b_frames=scaled.b_frames)
        ).encode(frames)
        layout = TileLayout(scaled.width, scaled.height, 2, 2)
        traced = extract_trace(stream, layout)
        modeled = build_picture_work(scaled, layout, n_frames=len(traced))
        cmp_ = compare_trace_to_model(traced, modeled)
        scaling = scaling_for(spec, scaled, len(stream), len(traced))
        full_layout = TileLayout(spec.width, spec.height, 2, 2)
        fps_trace = TimedSystem(
            spec, full_layout, k=2, works=extract_trace(stream, layout, scaling)
        ).run().fps
        fps_model = TimedSystem(spec, full_layout, k=2, n_frames=18).run().fps
        return cmp_, fps_trace, fps_model

    cmp_, fps_trace, fps_model = run_once(benchmark, experiment)
    print_table(
        "Analytic model vs real-splitter trace (scaled stream 8, 2x2)",
        ["quantity", "trace", "model"],
        [
            (
                "exchange bytes / inter picture",
                f"{cmp_.traced_exchange_bytes_per_pic:.0f}",
                f"{cmp_.model_exchange_bytes_per_pic:.0f}",
            ),
            (
                "SPH records / tile / picture",
                f"{cmp_.traced_sph_per_tile_pic:.1f}",
                f"{cmp_.model_sph_per_tile_pic:.1f}",
            ),
            (
                "per-tile bits spread (CV)",
                f"{cmp_.traced_bits_cv:.2f}",
                f"{cmp_.model_bits_cv:.2f}",
            ),
            ("timed fps (full-res, k=2)", f"{fps_trace:.1f}", f"{fps_model:.1f}"),
        ],
    )
    assert 0.2 < cmp_.exchange_ratio < 5.0
    assert 0.4 < fps_trace / fps_model < 2.5
