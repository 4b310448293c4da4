"""Simulated PC-cluster node model."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Node": "repro.cluster.node",
    "NodeSpec": "repro.cluster.node",
    "ClusterSpec": "repro.cluster.node",
    "PRINCETON_WALL": "repro.cluster.node",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
