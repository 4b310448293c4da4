"""Tiled display-wall substrate: geometry, assembly, blending, presentation.

Geometry (:mod:`~repro.wall.layout`) and assembly (:mod:`~repro.wall.display`)
are the correctness core; :mod:`~repro.wall.config`,
:mod:`~repro.wall.clock`, :mod:`~repro.wall.broadcast`, and
:mod:`~repro.wall.receiver` form the presentation plane: one broadcast
stream in, N tune-in-capable tile receivers releasing frames on a shared
clock.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "TileLayout": "repro.wall.layout",
    "Tile": "repro.wall.layout",
    "assemble_wall": "repro.wall.display",
    "edge_blend_weights": "repro.wall.display",
    "TileCrop": "repro.wall.config",
    "WallSpec": "repro.wall.config",
    "PresentationClock": "repro.wall.clock",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
