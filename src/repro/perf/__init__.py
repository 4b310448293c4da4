"""Performance layer: cost model, DES experiment runners, metrics, and
the cluster telemetry stack (registry, trace spans, timeline export)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CostModel": "repro.perf.costmodel",
    "PictureWork": "repro.perf.costmodel",
    "build_picture_work": "repro.perf.costmodel",
    "RuntimeBreakdown": "repro.perf.metrics",
    "MetricsRegistry": "repro.perf.telemetry",
    "registry": "repro.perf.telemetry",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
