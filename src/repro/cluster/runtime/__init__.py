"""Real multi-process cluster runtime for the 1-k-(m,n) pipeline.

The deterministic simulator (:mod:`repro.parallel.system`) and the
threaded runner (:mod:`repro.parallel.threaded`) execute the paper's
protocol inside one interpreter.  This package runs it as *actual OS
processes* — one root splitter, ``k`` second-level splitters, and
``m*n`` tile decoders — exchanging framed binary messages over the
socket transport in :mod:`repro.net.channel`, supervised from the
calling process by :class:`ClusterSupervisor`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "WallConfig": "repro.cluster.runtime.config",
    "ClusterSupervisor": "repro.cluster.runtime.supervisor",
    "ClusterError": "repro.cluster.runtime.supervisor",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
