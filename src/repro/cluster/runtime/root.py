"""The root splitter process: scan the stream for picture start codes and
deal the coded pictures round-robin to the splitters under ack-credit flow
control (paper §4.1).  It parses nothing below the picture layer.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict

from repro.cluster.runtime.config import STREAM_FILE, WallConfig
from repro.cluster.runtime.messages import (
    MSG_CREDIT,
    MSG_EOS,
    MSG_LAYOUT,
    MSG_PICTURE,
    MSG_REPORT,
    MSG_SEQ,
    decode_report,
    encode_picture,
    encode_sequence,
)
from repro.cluster.runtime.rendezvous import Rendezvous, maybe_fail
from repro.mpeg2.parser import PictureScanner
from repro.net.channel import Channel, ChannelError, CreditGate
from repro.parallel.partition import build_controller
from repro.perf.telemetry import emit_stats, maybe_emit_stats
from repro.perf.trace import TraceWriter
from repro.wall.layout import TileLayout


def run_root(cfg: WallConfig, rundir: Path, tracer: TraceWriter) -> None:
    """Scan the stream, round-robin pictures to splitters under credits."""
    rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
    stream = (rundir / STREAM_FILE).read_bytes()
    sequence, pictures = PictureScanner(stream).scan()

    # Adaptive partitioning: the controller ingests MSG_REPORT telemetry
    # (arriving on the credit back-channels) and issues versioned layout
    # updates at closed-GOP boundaries.  None under the static policy.
    base_layout = TileLayout(
        sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap
    )
    controller = build_controller(
        cfg.partition_policy, base_layout, ewma=cfg.partition_ewma
    )

    # Broadcast tee: the root publishes every coded picture once on the
    # one-to-many channel (wall receivers subscribe and self-decode their
    # tiles) in addition to the unicast splitter dispatch below.
    publisher = None
    if cfg.bcast_addr:
        from repro.wall.broadcast import WallBroadcaster
        from repro.wall.config import WallSpec

        publisher = WallBroadcaster(
            stream,
            WallSpec(cols=cfg.m, rows=cfg.n, overlap=cfg.overlap),
            ("unix", cfg.bcast_addr),
            mode="stream",
            fps=cfg.bcast_fps,
            name="root-bcast",
        )
        publisher.publish_sequence()
        tracer.emit(
            "bcast_open", address=cfg.bcast_addr, anchors=len(publisher.anchors)
        )

    channels: Dict[int, Channel] = {}
    gates: Dict[int, CreditGate] = {}
    for s in range(cfg.k):
        channels[s] = rv.dial(f"split{s}", "root", cfg)
        gates[s] = CreditGate(cfg.queue_depth)
        tracer.emit("connect", peer=f"split{s}")
    for s in range(cfg.k):
        channels[s].send(MSG_SEQ, encode_sequence(sequence))

    def credit_pump(s: int) -> threading.Thread:
        def run() -> None:
            ch = channels[s]
            try:
                while True:
                    msg = ch.recv()
                    if msg.type == MSG_CREDIT:
                        gates[s].release()
                    elif msg.type == MSG_REPORT and controller is not None:
                        controller.ingest(decode_report(msg.payload))
            except ChannelError as exc:
                gates[s].poison(exc)

        t = threading.Thread(target=run, name=f"credits:split{s}", daemon=True)
        t.start()
        return t

    pumps = [credit_pump(s) for s in range(cfg.k)]

    for i, unit in enumerate(pictures):
        maybe_fail(cfg, "root", i)
        # Pipeline-ingress stamp (wall clock: the one base every process
        # shares): taken before the credit wait so upstream backpressure
        # is part of the picture's end-to-end latency.
        t_ingress = time.time()
        if unit.new_gop:
            tracer.emit(
                "gop",
                picture=i,
                closed=bool(unit.gop is not None and unit.gop.closed_gop),
            )
        decision = controller.evaluate(i, unit) if controller is not None else None
        if decision is not None:
            tracer.emit("partition_eval", picture=i, **decision.as_event())
            upd = decision.update
            if upd is not None:
                # Broadcast BEFORE dispatching picture i: per-channel FIFO
                # guarantees every splitter sees the update ahead of any
                # picture >= effective_from it will handle.
                payload = upd.encode()
                for s in range(cfg.k):
                    channels[s].send(MSG_LAYOUT, payload, picture=i)
                tracer.emit(
                    "layout_update",
                    picture=i,
                    version=upd.version,
                    x_bounds=list(upd.x_bounds),
                    y_bounds=list(upd.y_bounds),
                )
        a = i % cfg.k
        nsid = (a + 1) % cfg.k
        t0 = time.perf_counter()
        with tracer.span("credit_wait", picture=i, splitter=a):
            gates[a].acquire(cfg.recv_timeout)
        waited = time.perf_counter() - t0
        with tracer.span("dispatch", picture=i, splitter=a):
            channels[a].send(
                MSG_PICTURE, encode_picture(nsid, unit, t_ingress), picture=i
            )
        tracer.emit(
            "picture_sent",
            picture=i,
            splitter=a,
            bytes=unit.size_bytes,
            credit_wait_s=round(waited, 6),
        )
        if publisher is not None:
            publisher.publish_picture(i)
        maybe_emit_stats(tracer)
    for s in range(cfg.k):
        channels[s].send(MSG_EOS)
    if publisher is not None:
        publisher.publish_end()
        tracer.emit("bcast_stats", **publisher.stats())
        publisher.close()
    tracer.emit(
        "credit_totals",
        **{f"split{s}": gates[s].stats_dict() for s in range(cfg.k)},
    )
    if tracer.spans:
        emit_stats(tracer)
    tracer.emit("eos_sent", pictures=len(pictures))

    # Graceful drain: wait for every splitter to finish and close, so the
    # tail of the credit backchannel is consumed rather than reset.
    deadline = time.monotonic() + cfg.recv_timeout
    for t in pumps:
        t.join(timeout=max(0.1, deadline - time.monotonic()))
    for ch in channels.values():
        ch.close()
