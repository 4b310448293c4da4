"""From-scratch MPEG-2 video codec substrate.

This package implements the subset of ISO/IEC 13818-2 exercised by the
paper's parallel decoder: frame-picture, frame-prediction, frame-DCT coding
of 4:2:0 I/P/B pictures with the standard VLC tables, zigzag scan, default
quantization matrices, and half-pel motion compensation.

Components
----------
- :mod:`repro.mpeg2.tables` / :mod:`repro.mpeg2.vlc` — the entropy-coding
  layer (tables B.1, B.2-B.4, B.9, B.10, B.12-B.14 plus escape coding).
- :mod:`repro.mpeg2.dct` — 8x8 DCT/IDCT, quantization, scan ordering.
- :mod:`repro.mpeg2.frames` — YCbCr 4:2:0 frame container and metrics.
- :mod:`repro.mpeg2.motion` — motion estimation and half-pel compensation.
- :mod:`repro.mpeg2.encoder` — a complete encoder (GOP structure, I/P/B).
- :mod:`repro.mpeg2.decoder` — the reference *sequential* decoder; it is the
  correctness oracle the parallel system must match bit-exactly.
- :mod:`repro.mpeg2.parser` — start-code scanning (the root splitter's
  engine) and full macroblock-level parsing (the second-level splitter's
  engine).

Supported tools: I/P/B frame pictures, closed and open GOPs, one or more
slices per macroblock row, skipped-macroblock runs, custom quantization
matrices, intra DC precision 8/9/10, intra_vlc_format 0 and 1, half-pel
motion compensation, program-stream multiplexing, VBV checking, and GOP
random access.  Deviations from ISO 13818-2, documented in DESIGN.md:
progressive frames only (no interlace tools), q_scale_type=0, no
concealment motion vectors, no dual-prime; some long table B.14/B.15 codes
fall back to escape coding.  The encoder and all decoders in this
repository are mutually consistent.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Frame": "repro.mpeg2.frames",
    "psnr": "repro.mpeg2.frames",
    "Encoder": "repro.mpeg2.encoder",
    "EncoderConfig": "repro.mpeg2.encoder",
    "Decoder": "repro.mpeg2.decoder",
    "decode_stream": "repro.mpeg2.decoder",
    "PictureScanner": "repro.mpeg2.parser",
    "MacroblockParser": "repro.mpeg2.parser",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
