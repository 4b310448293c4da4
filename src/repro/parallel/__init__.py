"""The paper's contribution: the hierarchical 1-k-(m,n) parallel decoder.

Layers:

- :mod:`repro.parallel.subpicture` — sub-picture streams: byte-copied
  partial slices prefixed by State Propagation Headers (paper §4.3), plus
  skip records for skipped-macroblock runs whose bits travel with another
  tile's macroblocks.
- :mod:`repro.parallel.mei` — pre-calculated macroblock exchange
  instructions (paper §4.2): SEND/RECV lists the splitter derives from
  motion vectors that cross tile boundaries.
- :mod:`repro.parallel.root_splitter` / :mod:`repro.parallel.mb_splitter` —
  the two splitter levels.
- :mod:`repro.parallel.pdecoder` — the per-tile decoder.
- :mod:`repro.parallel.pipeline` — the functional in-process 1-k-(m,n)
  system (the correctness path; bit-exact against the sequential decoder).
- :mod:`repro.parallel.system` — the timed DES system (the performance
  path; reproduces the paper's tables and figures).
- :mod:`repro.parallel.config` — F = min(k/t_s, 1/t_d) configuration rule.
- :mod:`repro.parallel.baselines` / :mod:`repro.parallel.analysis` —
  GOP/picture/slice-level baselines and the Table 1 cost model.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ParallelDecoder": "repro.parallel.pipeline",
    "ThreadedParallelDecoder": "repro.parallel.threaded",
    "optimal_k": "repro.parallel.config",
    "predicted_frame_rate": "repro.parallel.config",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
