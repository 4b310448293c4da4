"""A second-level splitter process: parse each picture it is dealt down to
macroblocks, compile one reconstruction plan (or sub-picture) and one MEI
program per tile, and deliver them in picture order — the previous
picture's ANID-redirected acks serialize delivery across the k splitters
(paper §4.1-4.3).  It builds plans and never executes one.
"""

from __future__ import annotations

import queue
import time
from pathlib import Path
from typing import Dict

from repro.cluster.runtime.config import WallConfig
from repro.cluster.runtime.messages import (
    MSG_ACK,
    MSG_CREDIT,
    MSG_EOS,
    MSG_LAYOUT,
    MSG_PICTURE,
    MSG_PLAN,
    MSG_PLAN_H,
    MSG_REPORT,
    MSG_SEQ,
    MSG_SUBPICTURE,
    decode_picture,
    decode_sequence,
    encode_plan_hmsg,
    encode_plan_msg,
    encode_report,
    encode_subpicture,
)
from repro.cluster.runtime.rendezvous import (
    ProtocolError,
    Rendezvous,
    accept_labeled,
    create_pool,
    maybe_fail,
    pump,
    queue_get,
)
from repro.mem import PoolExhausted
from repro.mpeg2 import plan_codec
from repro.mpeg2.plan_codec import buffers_nbytes, plan_nbytes
from repro.net.channel import Channel, ChannelClosed
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.partition import LayoutSchedule, LayoutUpdate
from repro.perf.telemetry import (
    emit_stats,
    maybe_emit_stats,
    registry,
    stage_span_block,
    traced_stage,
)
from repro.perf.trace import TraceWriter
from repro.wall.layout import TileLayout


def _plan_slab_bytes(layout: TileLayout, whole_raster: bool = False) -> int:
    """Worst-case per-tile plan wire size: every macroblock whose 16x16
    raster rect intersects the tile rect, all-coded with 6 blocks each.

    ``whole_raster=True`` sizes for an adaptive partition, where a tile
    may grow arbitrarily (bounded by the raster itself) between GOPs.
    """
    if whole_raster:
        n_mb = (layout.width // 16) * (layout.height // 16)
        return plan_codec.plan_wire_bound(n_mb, 6 * n_mb)
    worst = 0
    for t in layout:
        r = t.rect
        mw = -(-r.x1 // 16) - (r.x0 // 16)
        mh = -(-r.y1 // 16) - (r.y0 // 16)
        n_mb = mw * mh
        worst = max(worst, plan_codec.plan_wire_bound(n_mb, 6 * n_mb))
    return worst


def run_splitter(cfg: WallConfig, rundir: Path, sid: int, tracer: TraceWriter) -> None:
    """Split pictures into sub-pictures + MEI programs; serialize delivery
    by waiting for the previous picture's ANID-redirected acks."""
    rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
    lst = rv.listen(f"split{sid}")
    me = f"split{sid}"
    try:
        peer, root_ch = accept_labeled(lst, me, cfg, cfg.connect_timeout)
        if peer != "root":
            raise ProtocolError(f"{me}: unexpected dialer {peer!r}")
    finally:
        lst.close()

    n_tiles = cfg.n_tiles
    dec_ch: Dict[int, Channel] = {}
    for t in range(n_tiles):
        dec_ch[t] = rv.dial(f"dec{t}", me, cfg)
        tracer.emit("connect", peer=f"dec{t}")

    ack_q: "queue.Queue" = queue.Queue()
    pumps = [pump(dec_ch[t], ack_q, f"dec{t}") for t in range(n_tiles)]

    seq_msg = root_ch.recv(cfg.connect_timeout)
    if seq_msg.type != MSG_SEQ:
        raise ProtocolError(f"{me}: expected SEQ, got {seq_msg.type}")
    sequence = decode_sequence(seq_msg.payload)
    layout = TileLayout(sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap)
    adaptive = cfg.partition_policy != "static"
    schedule = LayoutSchedule(layout)
    msplit = MacroblockSplitter(
        sequence, layout, collect_content=cfg.partition_policy == "content"
    )
    for t in range(n_tiles):
        dec_ch[t].send(MSG_SEQ, seq_msg.payload)

    # Shared-memory plan pool: one slab class sized for the worst-case
    # per-tile plan, enough slabs for every tile's in-flight pictures.
    # Under an adaptive policy a tile can grow between GOPs, so slabs are
    # sized for the whole-raster bound (a too-large plan would otherwise
    # silently fall back by value and muddy the copy accounting).
    pool = None
    if cfg.ship_plans and any(
        dec_ch[t].peer_features.get("shm_pool") for t in range(n_tiles)
    ):
        pool = create_pool(
            cfg,
            me,
            [(
                _plan_slab_bytes(layout, whole_raster=adaptive),
                n_tiles * (cfg.queue_depth + 1),
            )],
            tracer,
        )

    def wait_acks(expect_picture: int) -> float:
        t0 = time.perf_counter()
        acked = 0
        while acked < n_tiles:
            kind, label, msg = queue_get(
                ack_q, cfg.recv_timeout, f"acks of picture {expect_picture}"
            )
            if kind == "closed":
                raise ChannelClosed(f"{me}: {label} disconnected during ack wait")
            if kind == "error":
                raise msg
            if msg.type == MSG_REPORT:
                # Decoder telemetry riding the ack channel: relay upstream
                # (the root's controller consumes it); not an ack.
                root_ch.send(MSG_REPORT, msg.payload)
                continue
            if msg.type != MSG_ACK:
                raise ProtocolError(f"{me}: unexpected {msg.type} from {label}")
            if msg.picture != expect_picture:
                raise ProtocolError(
                    f"{me}: ack for picture {msg.picture}, expected {expect_picture}"
                )
            acked += 1
        return time.perf_counter() - t0

    while True:
        msg = root_ch.recv(cfg.recv_timeout)
        if msg.type == MSG_EOS:
            break
        if msg.type == MSG_LAYOUT:
            # Versioned partition change from the root.  Apply to the
            # local schedule and forward to every decoder *now* — FIFO
            # order on each decoder channel guarantees the update lands
            # before any plan of a picture >= effective_from this
            # splitter will send.
            upd = LayoutUpdate.decode(msg.payload)
            schedule.apply(upd)
            for t in range(n_tiles):
                dec_ch[t].send(MSG_LAYOUT, msg.payload, picture=msg.picture)
            tracer.emit(
                "layout_recv",
                picture=upd.effective_from,
                version=upd.version,
            )
            continue
        if msg.type != MSG_PICTURE:
            raise ProtocolError(f"{me}: unexpected {msg.type} from root")
        i = msg.picture
        root_ch.send(MSG_CREDIT)  # receive buffer freed: root may send again
        maybe_fail(cfg, me, i)
        lay = schedule.layout_for(i)
        if lay is not msplit.layout:
            msplit.set_layout(lay)
        nsid, unit, t_root = decode_picture(msg.payload)
        t0 = time.perf_counter()
        # Parent "split" span with parse/plan children synthesized from
        # the splitter's stage-time deltas across the call.
        with stage_span_block(
            tracer, msplit.stage_times, "split", picture=i,
            stages=("parse", "plan"),
        ):
            if cfg.ship_plans:
                result = msplit.split_plans(unit, i)
            else:
                result = msplit.split(unit, i)
        split_s = time.perf_counter() - t0
        if msplit.last_content is not None:
            # Content-aware policy: ship the per-column/row coded-bit
            # profile upstream (a few hundred floats per picture).
            cols, rows = msplit.last_content
            root_ch.send(
                MSG_REPORT,
                encode_report(
                    {
                        "kind": "content",
                        "picture": i,
                        "cols": [float(v) for v in cols],
                        "rows": [float(v) for v in rows],
                    }
                ),
            )
            msplit.last_content = None
        # Sub-picture delivery is serialized by the previous picture's acks,
        # redirected here via ANID — the reorder-free ordering guarantee.
        if i > 0:
            with tracer.span("ack_wait", picture=i - 1):
                ack_wait_s = wait_acks(i - 1)
        else:
            ack_wait_s = 0.0
        sent = 0
        pooled = 0
        # Second latency stamp: the split is done and the plans are about
        # to hit the decoder channels.  (t_split - t_root) is the split
        # hop, inclusive of ack serialization.
        stamps = (t_root, time.time())
        for t in range(n_tiles):
            with traced_stage(tracer, msplit.stage_times, "wire", picture=i):
                mtype = None
                if cfg.ship_plans:
                    tp = result.plans[t]
                    program = result.mei.program(t)
                    if pool is not None and dec_ch[t].peer_features.get(
                        "shm_pool"
                    ):
                        nb = plan_nbytes(tp)
                        try:
                            lease = pool.alloc(nb)
                        except PoolExhausted:
                            lease = None
                        if lease is not None:
                            plan_codec.encode_plan_into(tp, lease.buf)
                            payload = encode_plan_hmsg(
                                nsid, lease.handle, program, stamps
                            )
                            mtype = MSG_PLAN_H
                            nbytes = len(payload)
                            dec_ch[t].stats.note_handle(nb)
                            registry().counter("pool.bytes_by_handle").inc(nb)
                            pooled += nb
                    if mtype is None:
                        mtype = MSG_PLAN
                        payload = encode_plan_msg(nsid, tp, program, stamps)
                        nbytes = buffers_nbytes(payload)
                        registry().counter("pool.bytes_by_copy").inc(nbytes)
                else:
                    mtype = MSG_SUBPICTURE
                    payload = encode_subpicture(
                        nsid,
                        result.subpictures[t].serialize(),
                        result.mei.program(t),
                        stamps,
                    )
                    nbytes = len(payload)
            dec_ch[t].send(mtype, payload, picture=i)
            sent += nbytes
        tracer.emit(
            "split",
            picture=i,
            split_s=round(split_s, 6),
            ack_wait_s=round(ack_wait_s, 6),
            bytes=sent,
            pool_bytes=pooled,
        )
        maybe_emit_stats(tracer)
    for t in range(n_tiles):
        dec_ch[t].send(MSG_EOS)
    if tracer.spans:
        emit_stats(tracer)
    tracer.emit("stage_times", **msplit.stage_times.as_dict())
    if pool is not None:
        tracer.emit("pool_stats", pool=pool.name, **pool.stats.to_dict())
        pool.close()  # no unlink: consumers may still hold leases
    tracer.emit("eos_sent")
    root_ch.close()

    deadline = time.monotonic() + cfg.recv_timeout
    for t in pumps:
        t.join(timeout=max(0.1, deadline - time.monotonic()))
    for ch in dec_ch.values():
        ch.close()
