"""Trace-driven workloads: feed the timed system from a *real* stream.

The analytic workload model (:func:`repro.perf.costmodel.build_picture_work`)
derives per-tile macroblock counts, bit shares, and exchange volumes from
stream statistics.  This module derives the same quantities from an actual
encoded bitstream by running the real second-level splitter and measuring
what it produces — sub-picture sizes, SPH counts, and MEI exchange
programs — then (optionally) scaling the byte quantities to a full-
resolution stream.

This closes the loop between the two execution paths: the correctness
pipeline validates *what* the system computes, the trace extractor
validates that the performance model's *inputs* match what the real
splitter emits (`tests/test_trace.py`, `benchmarks/bench_trace_validation.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.mei import PEER, payload_bytes
from repro.parallel.subpicture import RunRecord
from repro.perf.costmodel import Exchange, PictureWork, TileWork
from repro.wall.layout import TileLayout
from repro.workloads.streams import StreamSpec


@dataclass
class TraceScaling:
    """How a scaled trace maps to a full-resolution stream.

    ``area_factor`` scales per-tile macroblock counts (an area quantity);
    exchange volumes scale with its square root (tile *boundaries* are
    linear); ``bit_factor`` maps the traced stream's achieved bits to the
    model stream's bits.
    """

    area_factor: float = 1.0
    bit_factor: float = 1.0

    @property
    def edge_factor(self) -> float:
        return self.area_factor ** 0.5


def extract_trace(
    stream: bytes,
    layout: TileLayout,
    scaling: Optional[TraceScaling] = None,
) -> List[PictureWork]:
    """Run the real splitter over ``stream`` and express its output as
    the timed system's :class:`PictureWork` records."""
    s = scaling or TraceScaling()
    scanner = PictureScanner(stream)
    sequence, pictures = scanner.scan()
    if (sequence.width, sequence.height) != (layout.width, layout.height):
        raise ValueError("layout raster does not match the traced stream")
    splitter = MacroblockSplitter(sequence, layout)

    works: List[PictureWork] = []
    for i, unit in enumerate(pictures):
        result = splitter.split(unit, i)
        tiles: Dict[int, TileWork] = {}
        for tid, sp in result.subpictures.items():
            payload_bits = 8 * sp.payload_bytes
            n_runs = sum(1 for r in sp.records if isinstance(r, RunRecord))
            tiles[tid] = TileWork(
                n_mbs=int(round(sp.n_macroblocks * s.area_factor)),
                bits=payload_bits * s.bit_factor,
                sp_bytes=int(round(len(sp.serialize()) * s.bit_factor)),
                n_runs=n_runs,
            )
        exchanges: List[Exchange] = []
        pair_bytes: Dict[tuple, int] = {}
        pair_instr: Dict[tuple, int] = {}
        for tid in range(layout.n_tiles):
            sends = result.mei.program(tid).sends
            for dst, nb in zip(sends[:, PEER].tolist(), payload_bytes(sends).tolist()):
                key = (tid, dst)
                pair_bytes[key] = pair_bytes.get(key, 0) + nb
                pair_instr[key] = pair_instr.get(key, 0) + 1
        for (src, dst), nbytes in pair_bytes.items():
            exchanges.append(
                Exchange(
                    src=src,
                    dst=dst,
                    nbytes=int(round(nbytes * s.edge_factor)),
                    n_instructions=max(
                        1, int(round(pair_instr[(src, dst)] * s.edge_factor))
                    ),
                )
            )
        works.append(
            PictureWork(
                index=i,
                ptype=result.picture_type,
                nbytes=int(round(unit.size_bytes * s.bit_factor)),
                tiles=tiles,
                exchanges=exchanges,
            )
        )
    return works


def scaling_for(spec: StreamSpec, traced: StreamSpec, traced_bytes: int, n_pics: int) -> TraceScaling:
    """Scaling that maps a trace of ``traced`` (a scaled variant) onto the
    full-resolution ``spec``."""
    area = spec.n_pixels / traced.n_pixels
    traced_avg = traced_bytes / max(1, n_pics)
    bit = spec.avg_frame_bytes / max(1.0, traced_avg)
    return TraceScaling(area_factor=area, bit_factor=bit)


@dataclass
class TraceModelComparison:
    """Aggregate agreement metrics between trace and analytic model."""

    traced_exchange_bytes_per_pic: float
    model_exchange_bytes_per_pic: float
    traced_sph_per_tile_pic: float
    model_sph_per_tile_pic: float
    traced_bits_cv: float  # coefficient of variation of per-tile bits
    model_bits_cv: float

    @property
    def exchange_ratio(self) -> float:
        if self.model_exchange_bytes_per_pic == 0:
            return float("inf")
        return (
            self.traced_exchange_bytes_per_pic
            / self.model_exchange_bytes_per_pic
        )


def compare_trace_to_model(
    traced: List[PictureWork], modeled: List[PictureWork]
) -> TraceModelComparison:
    """Side-by-side aggregates for validation tests."""

    def exch(works):
        inter = [w for w in works if w.exchanges]
        if not inter:
            return 0.0
        return sum(e.nbytes for w in inter for e in w.exchanges) / len(inter)

    def sph(works):
        total = sum(tw.n_runs for w in works for tw in w.tiles.values())
        return total / (len(works) * len(works[0].tiles))

    def bits_cv(works):
        per_tile = np.array(
            [[tw.bits for tw in w.tiles.values()] for w in works]
        ).mean(axis=0)
        mean = per_tile.mean()
        if mean == 0:
            # an all-skipped picture set carries no bits anywhere; zero
            # spread, not a division error
            return 0.0
        return float(per_tile.std() / mean)

    return TraceModelComparison(
        traced_exchange_bytes_per_pic=exch(traced),
        model_exchange_bytes_per_pic=exch(modeled),
        traced_sph_per_tile_pic=sph(traced),
        model_sph_per_tile_pic=sph(modeled),
        traced_bits_cv=bits_cv(traced),
        model_bits_cv=bits_cv(modeled),
    )
