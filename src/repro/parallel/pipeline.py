"""Functional in-process 1-k-(m,n) pipeline — the correctness path.

This module wires the real components together without the network: root
splitter -> k macroblock splitters (round-robin) -> m*n tile decoders ->
wall assembly.  Sub-pictures are serialized and re-parsed through their
actual wire format, and MEI exchanges move real pixels, so everything the
timed DES system models is exercised here with bit-exact verification
against the sequential decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mpeg2.frames import Frame
from repro.parallel.mb_splitter import MacroblockSplitter, SplitResult
from repro.parallel.pdecoder import TileDecoder, TileDecoderStats
from repro.parallel.root_splitter import RootSplitter
from repro.parallel.subpicture import SubPicture
from repro.wall.display import assemble_wall, check_overlap_consistency
from repro.wall.layout import TileLayout


@dataclass
class PipelineStats:
    """Aggregated accounting from one parallel decode."""

    pictures: int = 0
    splitter_pictures: List[int] = field(default_factory=list)  # per splitter
    splitter_send_bytes: List[int] = field(default_factory=list)
    decoder_stats: Dict[int, TileDecoderStats] = field(default_factory=dict)
    exchange_bytes: int = 0
    exchange_count: int = 0  # MEI transfers (rows), not blocks
    subpicture_payload_bytes: int = 0
    subpicture_total_bytes: int = 0

    @property
    def sph_overhead_fraction(self) -> float:
        """Sub-picture bytes beyond copied payload, as a fraction."""
        if self.subpicture_payload_bytes == 0:
            return 0.0
        return (
            self.subpicture_total_bytes - self.subpicture_payload_bytes
        ) / self.subpicture_payload_bytes


class ParallelDecoder:
    """The 1-k-(m,n) hierarchical parallel decoder, run functionally.

    ``verify_overlaps=True`` additionally asserts that tiles sharing a
    projector-overlap region decoded identical pixels there.
    """

    def __init__(
        self,
        layout: TileLayout,
        k: int = 1,
        verify_overlaps: bool = False,
        conceal_errors: bool = False,
    ):
        self.layout = layout
        self.k = k
        self.verify_overlaps = verify_overlaps
        self.conceal_errors = conceal_errors
        self.stats = PipelineStats()

    def decode(self, stream: bytes) -> List[Frame]:
        """Decode ``stream``; returns assembled wall frames, display order."""
        root = RootSplitter(stream, self.k)
        sequence = root.sequence
        splitters = [MacroblockSplitter(sequence, self.layout) for _ in range(self.k)]
        decoders = {
            tile.tid: TileDecoder(
                tile, self.layout, sequence, conceal_errors=self.conceal_errors
            )
            for tile in self.layout
        }
        stats = PipelineStats(
            splitter_pictures=[0] * self.k,
            splitter_send_bytes=[0] * self.k,
        )
        self.stats = stats

        frames: List[Frame] = []
        for routed in root.route():
            result = splitters[routed.splitter].split(
                routed.unit, routed.picture_index
            )
            stats.pictures += 1
            stats.splitter_pictures[routed.splitter] += 1
            stats.splitter_send_bytes[routed.splitter] += result.total_send_bytes()
            self._account_subpictures(stats, result)
            ready = self._decode_picture(decoders, result)
            self._collect_frame(frames, ready)

        # End of stream: every decoder flushes its held anchor.
        tail = {tid: d.flush() for tid, d in decoders.items()}
        self._collect_frame(frames, tail)

        stats.decoder_stats = {tid: d.stats for tid, d in decoders.items()}
        self.stats = stats
        return frames

    # ------------------------------------------------------------------ #

    def _decode_picture(
        self, decoders: Dict[int, TileDecoder], result: SplitResult
    ) -> Dict[int, Optional[Frame]]:
        ptype = result.picture_type
        # Phase 1: everyone executes SENDs against already-decoded frames,
        # one packed block per (source, destination) pair.
        blocks = []
        for tid, dec in decoders.items():
            blocks.extend(dec.execute_sends(result.mei.program(tid), ptype))
        # Phase 2: deliveries.
        for block in blocks:
            decoders[block.dest].apply_recv(block, ptype)
        self.stats.exchange_count += sum(len(b.rows) for b in blocks)
        self.stats.exchange_bytes += sum(b.nbytes for b in blocks)
        # Phase 3: decode, passing sub-pictures through their wire format.
        ready: Dict[int, Optional[Frame]] = {}
        for tid, dec in decoders.items():
            sp = SubPicture.deserialize(result.subpictures[tid].serialize())
            ready[tid] = dec.decode_subpicture(sp)
        return ready

    def _collect_frame(
        self, frames: List[Frame], ready: Dict[int, Optional[Frame]]
    ) -> None:
        have = [f for f in ready.values() if f is not None]
        if not have:
            return
        if len(have) != len(ready):
            raise RuntimeError("tile decoders disagree on display readiness")
        if self.verify_overlaps:
            bad = check_overlap_consistency(self.layout, ready)  # type: ignore[arg-type]
            if bad:
                raise RuntimeError(f"{bad} overlap samples disagree between tiles")
        frames.append(assemble_wall(self.layout, ready))  # type: ignore[arg-type]

    def _account_subpictures(self, stats: PipelineStats, result: SplitResult) -> None:
        for sp in result.subpictures.values():
            stats.subpicture_payload_bytes += sp.payload_bytes
            stats.subpicture_total_bytes += len(sp.serialize())
