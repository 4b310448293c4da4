"""repro — a parallel ultra-high-resolution MPEG-2 decoder for PC-cluster
tiled display walls (reproduction of Chen, Li & Wei, IPDPS 2002).

Top-level convenience exports cover the quickstart path; the subpackages
hold the full system:

- :mod:`repro.mpeg2` — the from-scratch MPEG-2 codec substrate;
- :mod:`repro.parallel` — the hierarchical 1-k-(m,n) decoder (the paper's
  contribution), its baselines, and its extensions;
- :mod:`repro.wall` — tiled display-wall geometry and assembly;
- :mod:`repro.net` / :mod:`repro.cluster` — the DES cluster substrate;
- :mod:`repro.perf` — calibrated cost model and experiment runners;
- :mod:`repro.workloads` — synthetic content and the Table 4 streams.

Run ``python -m repro --help`` for the command-line tools.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

_EXPORTS = {
    "Decoder": "repro.mpeg2.decoder",
    "Encoder": "repro.mpeg2.encoder",
    "EncoderConfig": "repro.mpeg2.encoder",
    "decode_stream": "repro.mpeg2.decoder",
    "psnr": "repro.mpeg2.frames",
    "ParallelDecoder": "repro.parallel.pipeline",
    "TileLayout": "repro.wall.layout",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = ["__version__", *_EXPORTS]
