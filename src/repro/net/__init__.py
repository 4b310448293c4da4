"""Cluster interconnect substrate: DES kernel and GM-like transport."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Simulator": "repro.net.simtime",
    "Process": "repro.net.simtime",
    "Timeout": "repro.net.simtime",
    "Store": "repro.net.simtime",
    "Resource": "repro.net.simtime",
    "Event": "repro.net.simtime",
    "GMNetwork": "repro.net.gm",
    "GMPort": "repro.net.gm",
    "Message": "repro.net.gm",
    "NetworkParams": "repro.net.gm",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
