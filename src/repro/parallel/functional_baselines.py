"""Functional (pixel-exact) implementations of the coarse baselines (§3).

The analytic models in :mod:`repro.parallel.baselines` estimate throughput;
these classes actually *decode* with each scheme's work partitioning and
account the communication it would require on a display wall, so the
Table 1 comparison is backed by running code:

- :class:`GopParallelDecoder` — nodes take whole GOPs round-robin
  (Kwong et al. style).  Self-contained with closed GOPs, but every
  decoded pixel a node does not display must be redistributed.
- :class:`PictureParallelDecoder` — nodes take pictures round-robin;
  P/B pictures must fetch whole reference pictures from other nodes, and
  redistribution remains.
- :class:`SliceParallelDecoder` — nodes take horizontal bands of slices.
  Slices are self-contained syntax (no SPH needed — the reason the paper
  calls slice splitting "very low" cost); references crossing band edges
  and band-to-tile display mapping generate the traffic.

All three produce output bit-exact with the sequential decoder — a
correctness check on the accounting, and a demonstration that the paper's
comparison is about *cost*, not feasibility of decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mpeg2.decoder import ReferenceChain, reconstruct_picture
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.motion import reference_rect, chroma_reference_rect
from repro.wall.layout import TileLayout

_YUV = 1.5  # bytes per pixel in 4:2:0


@dataclass
class BaselineAccounting:
    """Communication a scheme would generate, measured from real decodes."""

    frames: int = 0
    per_node_frames: Dict[int, int] = field(default_factory=dict)
    interdecoder_bytes: int = 0  # reference data between decoders
    redistribution_bytes: int = 0  # decoded pixels moved for display

    def per_frame(self) -> Tuple[float, float]:
        if not self.frames:
            return (0.0, 0.0)
        return (
            self.interdecoder_bytes / self.frames,
            self.redistribution_bytes / self.frames,
        )


def _decode_next(parser, sequence, unit, chain: ReferenceChain, out: List[Frame]):
    """Decode one coded picture against ``chain``, append whatever became
    displayable to ``out``; returns the parsed picture."""
    parsed = parser.parse_picture(unit.data)
    ptype = parsed.header.picture_type
    fwd, bwd = chain.refs(ptype)
    shown = chain.push(ptype, reconstruct_picture(parsed, sequence, fwd, bwd))
    if shown is not None:
        out.append(shown)
    return parsed


def _flush(chain: ReferenceChain, out: List[Frame]) -> None:
    tail = chain.flush()
    if tail is not None:
        out.append(tail)


class GopParallelDecoder:
    """GOP-level parallel decoding, functionally."""

    def __init__(self, n_nodes: int, layout: Optional[TileLayout] = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.layout = layout
        self.accounting = BaselineAccounting()

    def decode(self, stream: bytes) -> List[Frame]:
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        # group coded pictures into GOPs
        groups: List[List] = []
        for unit in pictures:
            if unit.new_gop or not groups:
                if not groups or groups[-1]:
                    groups.append([])
            groups[-1].append(unit)
        acct = BaselineAccounting(
            per_node_frames={n: 0 for n in range(self.n_nodes)}
        )

        out: List[Frame] = []
        for g_idx, group in enumerate(groups):
            node = g_idx % self.n_nodes
            if group[0].gop is not None and not group[0].gop.closed_gop:
                raise ValueError("GOP-level parallelism requires closed GOPs")
            # decode the GOP independently (closed: no external references)
            chain: ReferenceChain[Frame] = ReferenceChain()
            for unit in group:
                _decode_next(parser, sequence, unit, chain, out)
                acct.per_node_frames[node] += 1
            _flush(chain, out)
        # redistribution: every frame leaves its producer except the tile
        # share the producer itself displays
        mn = self.layout.n_tiles if self.layout else self.n_nodes
        share = (mn - 1) / mn if mn > 1 else 0.0
        frame_bytes = int(sequence.width * sequence.height * _YUV)
        acct.frames = len(out)
        acct.redistribution_bytes = int(len(out) * frame_bytes * share)
        self.accounting = acct
        return out


class PictureParallelDecoder:
    """Picture-level parallel decoding, functionally."""

    def __init__(self, n_nodes: int, layout: Optional[TileLayout] = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.layout = layout
        self.accounting = BaselineAccounting()

    def decode(self, stream: bytes) -> List[Frame]:
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        acct = BaselineAccounting(
            per_node_frames={n: 0 for n in range(self.n_nodes)}
        )
        frame_bytes = int(sequence.width * sequence.height * _YUV)

        out: List[Frame] = []
        chain: ReferenceChain[Frame] = ReferenceChain()
        producers: ReferenceChain[int] = ReferenceChain()  # node of each anchor
        for i, unit in enumerate(pictures):
            node = i % self.n_nodes
            acct.per_node_frames[node] += 1
            parsed = _decode_next(parser, sequence, unit, chain, out)
            ptype = parsed.header.picture_type
            # reference fetches: whole pictures from their producing nodes
            for rnode in producers.refs(ptype):
                if rnode is not None and rnode != node:
                    acct.interdecoder_bytes += frame_bytes
            producers.push(ptype, node)
        _flush(chain, out)

        mn = self.layout.n_tiles if self.layout else self.n_nodes
        share = (mn - 1) / mn if mn > 1 else 0.0
        acct.frames = len(out)
        acct.redistribution_bytes = int(len(out) * frame_bytes * share)
        self.accounting = acct
        return out


class SliceParallelDecoder:
    """Slice-level parallel decoding, functionally.

    Node b decodes the band of slice rows [bounds[b], bounds[b+1]).  A
    motion vector reaching outside the band fetches reference pixels from
    the band that owns them; for display, the (m-1)/m of each band's
    pixels shown by other columns of the wall redistribute.
    """

    def __init__(self, n_bands: int, layout: Optional[TileLayout] = None):
        if n_bands < 1:
            raise ValueError("need at least one band")
        self.n_bands = n_bands
        self.layout = layout
        self.accounting = BaselineAccounting()

    def decode(self, stream: bytes) -> List[Frame]:
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        mb_h = sequence.height // 16
        if self.n_bands > mb_h:
            raise ValueError("more bands than slice rows")
        bounds = [round(b * mb_h / self.n_bands) for b in range(self.n_bands + 1)]
        acct = BaselineAccounting(
            per_node_frames={n: 0 for n in range(self.n_bands)}
        )

        def band_of_row(row: int) -> int:
            for b in range(self.n_bands):
                if bounds[b] <= row < bounds[b + 1]:
                    return b
            raise ValueError(row)

        out: List[Frame] = []
        chain: ReferenceChain[Frame] = ReferenceChain()
        for unit in pictures:
            parsed = _decode_next(parser, sequence, unit, chain, out)
            # account cross-band reference fetches from real motion vectors
            for item in parsed.items:
                mb = item.mb
                row = item.slice_row
                band = band_of_row(row)
                y0 = bounds[band] * 16
                y1 = bounds[band + 1] * 16
                for mv in (mb.mv_fwd, mb.mv_bwd):
                    if mv is None or mv == (0, 0):
                        continue
                    mb_x = mb.address % parsed.mb_width
                    mb_y = mb.address // parsed.mb_width
                    r = reference_rect(mb_x, mb_y, mv)
                    above = max(0, y0 - r.y0) * r.width
                    below = max(0, r.y1 - y1) * r.width
                    cr_ = chroma_reference_rect(mb_x, mb_y, mv)
                    c_above = max(0, y0 // 2 - cr_.y0) * cr_.width
                    c_below = max(0, cr_.y1 - y1 // 2) * cr_.width
                    acct.interdecoder_bytes += above + below + 2 * (c_above + c_below)
            for b in range(self.n_bands):
                acct.per_node_frames[b] += 1
        _flush(chain, out)

        # display redistribution: bands are full-width, tiles are not
        m_cols = self.layout.m if self.layout else 1
        share = (m_cols - 1) / m_cols if m_cols > 1 else 0.0
        frame_bytes = int(sequence.width * sequence.height * _YUV)
        acct.frames = len(out)
        acct.redistribution_bytes = int(len(out) * frame_bytes * share)
        self.accounting = acct
        return out
