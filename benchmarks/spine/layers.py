"""Traced replays: each workload's data path, one span per layer call.

The replays call the layers' *public* functions from the benchmark in the
order the program does, so every per-layer number is timed where the work
happens without adding spans inside ``src/repro`` (a later issue).  Each
replay returns its output so the caller can require it to be bit-identical
to the untraced call it mirrors.
"""

from __future__ import annotations

import os
import socket
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.mem.pool import FramePool
from repro.mpeg2 import plan_codec
from repro.mpeg2.batch_reconstruct import PlanBuilder, execute_plan
from repro.mpeg2.constants import PictureType
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import MacroblockParser, PictureScanner
from repro.mpeg2.reconstruct import QuantMatrices
from repro.net.channel import Channel
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.pdecoder import TileDecoder
from repro.service.session import PacedStreamDecoder
from repro.wall.display import assemble_wall
from repro.wall.layout import TileLayout
from repro.wall.receiver import expand_rect, reconstruct_rect

from tracing import SpanRecorder

Metrics = Dict[str, float]


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


class _DisplayOrder:
    """The anchor / B reorder every decode loop in the repo carries: which
    references the next picture reads, and frames out in display order."""

    def __init__(self) -> None:
        self.held: Optional[Frame] = None  # newest anchor, not yet displayed
        self.prev_anchor: Optional[Frame] = None
        self.out: List[Frame] = []

    def refs(self, ptype: PictureType) -> Tuple[Optional[Frame], Optional[Frame]]:
        if ptype == PictureType.B:
            return self.prev_anchor, self.held
        return (self.held if ptype == PictureType.P else None), None

    def push(self, ptype: PictureType, frame: Frame) -> None:
        if ptype == PictureType.B:
            self.out.append(frame)
            return
        if self.held is not None:
            self.out.append(self.held)
        self.prev_anchor, self.held = self.held, frame

    def finish(self) -> List[Frame]:
        if self.held is not None:
            self.out.append(self.held)
            self.held = None
        return self.out


def percentile(xs, p: float) -> float:
    xs = sorted(xs)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, int(round(p / 100.0 * (len(xs) - 1))))]


# --------------------------------------------------------------------- #
# sequential: bitstream -> mpeg2.parser -> mpeg2.batch_reconstruct
# --------------------------------------------------------------------- #


def replay_sequential(stream: bytes, rec: SpanRecorder) -> Tuple[List[Frame], Metrics]:
    """Mirror of ``Decoder().decode``: scan, then per picture parse, plan
    and execute, with the anchor/B display reorder."""
    bits = coded = skipped = blocks = 0
    order = _DisplayOrder()
    with rec.span("replay"):
        with rec.span("parser.scan"):
            sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        for i, unit in enumerate(pictures):
            with rec.span("picture", i):
                with rec.span("parser.parse", i):
                    parsed = parser.parse_picture(unit.data)
                ptype = parsed.header.picture_type
                fwd, bwd = order.refs(ptype)
                frame = Frame.blank(sequence.width, sequence.height)
                matrices = QuantMatrices.from_sequence(sequence)
                with rec.span("reconstruct.plan", i):
                    builder = PlanBuilder(
                        ptype,
                        parsed.mb_width,
                        sequence.width,
                        sequence.height,
                        matrices,
                        parsed.header.dc_scaler,
                    )
                    for item in parsed.items:
                        builder.add(item.mb)
                    plan = builder.build()
                with rec.span("reconstruct.execute", i):
                    execute_plan(plan, frame, fwd, bwd)
                bits += 8 * len(unit.data)
                coded += parsed.n_coded
                skipped += parsed.n_skipped
                blocks += plan.n_blocks
                order.push(ptype, frame)
    parse_s = rec.total("parser.parse")
    execute_s = rec.total("reconstruct.execute")
    return order.finish(), {
        "parser.scan_s": rec.total("parser.scan"),
        "parser.parse_s": parse_s,
        "parser.parse_ns_per_bit": 1e9 * parse_s / bits,
        "parser.coded_mb": coded,
        "parser.skipped_mb": skipped,
        "reconstruct.plan_s": rec.total("reconstruct.plan"),
        "reconstruct.execute_s": execute_s,
        "reconstruct.execute_us_per_mb": 1e6 * execute_s / (coded + skipped),
        "reconstruct.blocks": blocks,
    }


def waterfall_coverage_pct(rec: SpanRecorder, untraced_wall_s: float) -> float:
    """Σ self time of the layer spans over the untraced end-to-end time."""
    layers = ("parser.scan", "parser.parse", "reconstruct.plan", "reconstruct.execute")
    self_times = rec.self_times()
    return 100.0 * sum(self_times.get(n, 0.0) for n in layers) / untraced_wall_s


# --------------------------------------------------------------------- #
# tiled: parser -> mb_splitter -> plan_codec -> pdecoder (the paper's
# splitter / tile-decoder roles, run back to back in one thread)
# --------------------------------------------------------------------- #


def replay_tiled(
    stream: bytes, layout: TileLayout, rec: SpanRecorder, cores: int, k: int = 1
) -> Tuple[List[Frame], Metrics]:
    """Mirror of the 1-k-(m,n) data path with plan shipping: the splitter
    parses and compiles per-tile plans, each plan crosses its wire encoding,
    tile decoders exchange MEI blocks and execute."""
    bits = coded = skipped = blocks = 0
    mei_instrs = plan_bytes = exchange_bytes = 0
    tiles = [t.tid for t in layout]
    out: List[Frame] = []
    with rec.span("replay"):
        with rec.span("parser.scan"):
            sequence, pictures = PictureScanner(stream).scan()
        msplit = MacroblockSplitter(sequence, layout)
        decoders = {
            t: TileDecoder(layout.tile(t), layout, sequence) for t in tiles
        }
        for i, unit in enumerate(pictures):
            with rec.span("picture", i):
                with rec.span("splitter.split", i):
                    with rec.span("parser.parse", i):
                        parsed = msplit.parser.parse_picture(unit.data, lean=True)
                    with rec.span("splitter.compile", i):
                        result = msplit.compile_plans(parsed, i)
                ptype = result.picture_type
                plans = {}
                for t in tiles:
                    with rec.span("plan_codec.encode", i):
                        wire = plan_codec.encode_plan_bytes(result.plans[t])
                    with rec.span("plan_codec.decode", i):
                        plans[t], _ = plan_codec.decode_plan(wire, decoders[t].matrices)
                    plan_bytes += len(wire)
                    mei_instrs += len(result.mei.program(t).sends) + len(
                        result.mei.program(t).recvs
                    )
                    blocks += result.plans[t].plan.n_blocks
                with rec.span("pdecoder.exchange", i):
                    moved = []
                    for t in tiles:
                        moved.extend(
                            decoders[t].execute_sends(result.mei.program(t), ptype)
                        )
                    for block in moved:
                        decoders[block.dest].apply_recv(block, ptype)
                exchange_bytes += sum(b.nbytes for b in moved)
                ready = {}
                for t in tiles:
                    with rec.span(f"pdecoder.decode.t{t}", i):
                        ready[t] = decoders[t].decode_plan(plans[t])
                if ready[tiles[0]] is not None:
                    out.append(assemble_wall(layout, ready))
                bits += 8 * len(unit.data)
                coded += parsed.n_coded
                skipped += parsed.n_skipped
        tail = {t: decoders[t].flush() for t in tiles}
        if tail[tiles[0]] is not None:
            out.append(assemble_wall(layout, tail))

    per_tile = {t: rec.per_picture(f"pdecoder.decode.t{t}") for t in tiles}
    n_pics = len(pictures)
    slowest = [max(per_tile[t][i][0] for t in tiles) for i in range(n_pics)]
    summed = [sum(per_tile[t][i][0] for t in tiles) for i in range(n_pics)]
    busy = [sum(d[0] for d in per_tile[t].values()) for t in tiles]
    split = rec.durations("splitter.split")
    parse_s = rec.total("parser.parse")
    # The model wants throughput, so it takes per-picture *means*: an
    # I-picture costs several B-pictures and the median forgets it.
    t_s, t_d = statistics.fmean(split), statistics.fmean(slowest)
    return out, {
        "parser.scan_s": rec.total("parser.scan"),
        "parser.parse_s": parse_s,
        "parser.parse_ns_per_bit": 1e9 * parse_s / bits,
        "parser.coded_mb": coded,
        "parser.skipped_mb": skipped,
        "reconstruct.blocks": blocks,
        "splitter.split_s": sum(split),
        "splitter.t_s_ms": 1e3 * _median(split),
        "splitter.mei_instrs": mei_instrs,
        "splitter.plan_bytes": plan_bytes,
        "plan_codec.encode_s": rec.total("plan_codec.encode"),
        "plan_codec.decode_s": rec.total("plan_codec.decode"),
        "plan_codec.bytes": plan_bytes,
        "pdecoder.decode_s": sum(busy),
        "pdecoder.t_d_ms": 1e3 * _median(slowest),
        "pdecoder.exchange_s": rec.total("pdecoder.exchange"),
        "pdecoder.exchange_bytes": exchange_bytes,
        "pdecoder.tile_imbalance": max(busy) / (sum(busy) / len(busy)),
        "model.t_s_ms": 1e3 * t_s,
        "model.t_d_ms": 1e3 * t_d,
        # Paper §4: F = min(k/t_s, 1/t_d), plus the cap of `cores`
        # processors shared by the splitter and every tile decoder.
        "model.fps_pred": min(k / t_s, 1.0 / t_d, cores / (t_s + statistics.fmean(summed))),
        "model.cores": cores,
    }


# --------------------------------------------------------------------- #
# net.channel and mem.pool, exercised directly
# --------------------------------------------------------------------- #

_PING = 1  # any application message type (0 is the transport's heartbeat)


def measure_channel(payload, rounds: int = 200) -> Metrics:
    """Round trip of a 64-byte frame and throughput of a plan-sized buffer
    list over a unix socketpair — the cluster's transport, no processes."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    with Channel(a, name="bench-a") as ca, Channel(b, name="bench-b") as cb:
        small = b"\0" * 64
        rtts = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            ca.send(_PING, small)
            cb.recv(timeout=5.0)
            cb.send(_PING, small)
            ca.recv(timeout=5.0)
            rtts.append(time.perf_counter() - t0)

        sends = 8
        nbytes = plan_codec.buffers_nbytes(payload)

        def pump() -> None:
            for _ in range(sends):
                ca.send(_PING, payload)

        sender = threading.Thread(target=pump)
        t0 = time.perf_counter()
        sender.start()
        for _ in range(sends):
            cb.recv(timeout=30.0)
        wall = time.perf_counter() - t0
        sender.join()
    return {
        "channel.roundtrip_us": 1e6 * _median(rtts),
        "channel.mb_per_s": sends * nbytes / wall / 1e6,
    }


def measure_pool(workdir: Path, frame_bytes: int, rounds: int = 200) -> Metrics:
    """alloc + view + release of a frame-sized slab."""
    times = []
    with FramePool.create(f"bench-{os.getpid()}", [(frame_bytes, 4)], workdir) as pool:
        for _ in range(rounds):
            t0 = time.perf_counter()
            lease = pool.alloc(frame_bytes)
            pool.view(lease.handle)
            pool.release(lease.handle)
            times.append(time.perf_counter() - t0)
        pool.destroy()
    return {"pool.lease_us": 1e6 * _median(times)}


# --------------------------------------------------------------------- #
# wall.receiver: every tile parses the whole picture, reconstructs its rect
# --------------------------------------------------------------------- #


def replay_wall_tile(
    stream: bytes, layout: TileLayout, tid: int, margins: List[int], rec: SpanRecorder
) -> Tuple[List[Frame], Metrics]:
    """Mirror of one ``WallReceiver``'s decode loop (no network)."""
    bits = 0
    order = _DisplayOrder()
    with rec.span("replay"):
        sequence, pictures = PictureScanner(stream).scan()
        parser = MacroblockParser(sequence)
        matrices = QuantMatrices.from_sequence(sequence)
        tile = layout.tile(tid)
        for i, unit in enumerate(pictures):
            with rec.span("picture", i):
                rect = expand_rect(
                    tile.coverage, margins[i], sequence.width, sequence.height
                )
                with rec.span("parser.parse", i):
                    parsed = parser.parse_picture(unit.data)
                ptype = parsed.header.picture_type
                fwd, bwd = order.refs(ptype)
                with rec.span("receiver.reconstruct", i):
                    frame = reconstruct_rect(parsed, sequence, fwd, bwd, rect, matrices)
                bits += 8 * len(unit.data)
                order.push(ptype, frame)
    return order.finish(), {"bits": bits}


# --------------------------------------------------------------------- #
# service.session: the per-picture step a pool worker runs under a lease
# --------------------------------------------------------------------- #


def replay_session(stream: bytes, rec: SpanRecorder) -> Tuple[List[Frame], Metrics]:
    out: List[Frame] = []
    with rec.span("replay"):
        dec = PacedStreamDecoder(stream)
        while not dec.done:
            i = dec.next_index
            with rec.span("session.step", i):
                res = dec.step(drop=False)
            if res.frame is not None:
                out.append(res.frame)
        tail = dec.flush()
        if tail is not None:
            out.append(tail)
    steps = rec.durations("session.step")
    return out, {
        "service.step_ms": 1e3 * _median(steps),
        "service.step_s": sum(steps),
    }
