"""Workloads: synthetic video content and the paper's 16 test streams.

The paper's streams (Table 4) are copyrighted movie clips, HDTV camera
shots, and telescope-flyby renderings we cannot redistribute, so this
package provides both:

- :mod:`repro.workloads.synthetic` — pixel-level generators that produce
  actual :class:`~repro.mpeg2.frames.Frame` sequences with the properties
  that matter to the parallel decoder (global motion, localized detail,
  scene-complexity gradients), used by the functional/correctness path at
  scaled resolutions; and
- :mod:`repro.workloads.streams` — statistical models of the 16 streams
  (resolution, bit-per-pixel, GOP structure, motion magnitude, spatial
  detail distribution), used by the timed DES system at full resolution.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "StreamSpec": "repro.workloads.streams",
    "TABLE4_STREAMS": "repro.workloads.streams",
    "stream_by_id": "repro.workloads.streams",
    "moving_pattern_frames": "repro.workloads.synthetic",
    "localized_detail_frames": "repro.workloads.synthetic",
    "fish_tank_frames": "repro.workloads.synthetic",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
