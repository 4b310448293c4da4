"""A tile decoder process: for each picture execute the MEI sends, wait for
the reference blocks it is owed, run the plan (or parse the sub-picture),
and stream displayed tile crops to the collector (paper §4.1, Table 3).
The only role that executes plans, and so the only one that loads the
transform.
"""

from __future__ import annotations

import queue
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.cluster.runtime.config import WallConfig
from repro.cluster.runtime.messages import (
    MSG_ACK,
    MSG_BLOCK,
    MSG_BLOCK_H,
    MSG_EOS,
    MSG_ERROR,
    MSG_FRAME,
    MSG_FRAME_H,
    MSG_LAYOUT,
    MSG_PLAN,
    MSG_PLAN_H,
    MSG_REPORT,
    MSG_SEQ,
    MSG_SUBPICTURE,
    decode_block,
    decode_block_hmsg,
    decode_plan_hmsg,
    decode_plan_msg,
    decode_sequence,
    decode_subpicture,
    encode_block,
    encode_block_hmsg,
    encode_error,
    encode_report,
    encode_tile_frame,
    encode_tile_frame_hmsg,
    tile_frame_nbytes,
    write_tile_frame_into,
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
from repro.mem import PoolExhausted, PoolRegistry
from repro.mpeg2 import plan_codec
from repro.mpeg2.decoder import ReferenceChain
from repro.mpeg2.motion import Rect
from repro.mpeg2.plan_codec import buffers_nbytes
from repro.net.channel import Channel, ChannelClosed, ChannelError, Listener
from repro.parallel.partition import LayoutSchedule, LayoutUpdate
from repro.parallel.pdecoder import TileDecoder
from repro.parallel.subpicture import SubPicture
from repro.perf.telemetry import (
    emit_stats,
    maybe_emit_stats,
    registry,
    stage_span_block,
    traced_stage,
)
from repro.perf.trace import TraceWriter
from repro.wall.layout import TileLayout

#: Decoder-pool slab geometry: a block is one picture's pieces for one
#: peer, each piece at most one 17x17 luma + two 9x9 chroma samples (~450
#: B); a 1080p cut moves a few KiB a picture.  The count covers a few
#: pictures' worth of in-flight blocks per peer; a larger block, or one
#: that finds every slab leased, goes by value.
BLOCK_SLAB_BYTES = 64 * 1024
BLOCK_SLAB_COUNT = 16
#: Tile-frame crops in flight to the collector before falling back.
FRAME_SLAB_COUNT = 8


def run_decoder(cfg: WallConfig, rundir: Path, tid: int, tracer: TraceWriter) -> None:
    """Execute MEI sends, apply received blocks, decode sub-pictures, and
    stream displayed tile crops to the collector."""
    rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
    me = f"dec{tid}"
    lst = rv.listen(me)

    collector = rv.dial("collector", me, cfg)
    try:
        _decoder_body(cfg, rv, lst, collector, tid, tracer)
    except Exception as exc:
        # Best-effort rich diagnostic to the supervisor before dying; the
        # nonzero exit code is the authoritative failure signal.
        try:
            collector.send(MSG_ERROR, encode_error(me, repr(exc)))
        except ChannelError:
            pass
        raise
    finally:
        collector.close()


def _decoder_body(
    cfg: WallConfig,
    rv: Rendezvous,
    lst: Listener,
    collector: Channel,
    tid: int,
    tracer: TraceWriter,
) -> None:
    me = f"dec{tid}"
    n_tiles = cfg.n_tiles
    peers: Dict[str, Channel] = {}
    for u in range(tid):
        peers[f"dec{u}"] = rv.dial(f"dec{u}", me, cfg)
        tracer.emit("connect", peer=f"dec{u}")

    split_ch: Dict[int, Channel] = {}
    try:
        expected = cfg.k + (n_tiles - 1 - tid)
        for _ in range(expected):
            peer, ch = accept_labeled(lst, me, cfg, cfg.connect_timeout)
            if peer.startswith("split"):
                split_ch[int(peer[5:])] = ch
            elif peer.startswith("dec"):
                peers[peer] = ch
            else:
                raise ProtocolError(f"{me}: unexpected dialer {peer!r}")
            tracer.emit("accept", peer=peer)
    finally:
        lst.close()

    ctrl_q: "queue.Queue" = queue.Queue()
    blk_q: "queue.Queue" = queue.Queue()
    pumps = [pump(ch, ctrl_q, f"split{s}") for s, ch in split_ch.items()]
    pumps += [pump(ch, blk_q, name) for name, ch in peers.items()]

    # The sequence header cascades root -> splitters -> decoders; every
    # splitter forwards one copy and the first to arrive wins.
    sequence = None
    pre_eos: List[tuple] = []
    while sequence is None:
        kind, label, msg = queue_get(ctrl_q, cfg.connect_timeout, "sequence header")
        if kind == "error":
            raise msg
        if kind == "closed":
            raise ChannelClosed(f"{me}: {label} disconnected before SEQ")
        if msg.type == MSG_SEQ:
            sequence = decode_sequence(msg.payload)
        else:
            pre_eos.append((kind, label, msg))
    for item in pre_eos:  # anything that raced ahead of the first SEQ
        ctrl_q.put(item)

    layout = TileLayout(sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap)
    adaptive = cfg.partition_policy != "static"
    schedule = LayoutSchedule(layout)
    cur_layout = layout
    dec = TileDecoder(layout.tile(tid), layout, sequence)
    partition = layout.tile(tid).partition
    # The partition a frame ships with is the one in force when it was
    # *decoded*: the held anchor may ship after a repartition boundary,
    # so its crop geometry travels with it.  Latency stamps follow the
    # same rule — a held anchor ships with the (t_root, t_split) of the
    # picture it *is*, not of the B picture that released it.  So both
    # ride a second chain, pushed in step with the decoder's.
    shipping: ReferenceChain[tuple] = ReferenceChain()  # (partition, stamps)
    display_idx = 0

    # Shared-memory plumbing: ``pools`` attaches to peers' segments on the
    # receive side; ``pool`` is this decoder's own (boundary blocks for
    # peer decoders, tile-frame crops for the collector).  Adaptive
    # partitions can grow a tile between GOPs, so the frame slab class is
    # then sized for the whole-raster crop bound.
    pools = PoolRegistry(Path(cfg.shm_dir) if cfg.shm_dir else None) if cfg.pool_enabled else None
    slab_nb = (
        tile_frame_nbytes(Rect(0, 0, sequence.width, sequence.height))
        if adaptive
        else tile_frame_nbytes(partition)
    )
    pool = None
    if cfg.pool_enabled and (
        collector.peer_features.get("shm_pool")
        or any(ch.peer_features.get("shm_pool") for ch in peers.values())
    ):
        pool = create_pool(
            cfg,
            me,
            [(BLOCK_SLAB_BYTES, BLOCK_SLAB_COUNT), (slab_nb, FRAME_SLAB_COUNT)],
            tracer,
        )

    def ship(frame, part, in_stamps=(0.0, 0.0)) -> None:
        nonlocal display_idx
        frame_nb = tile_frame_nbytes(part)
        # Third latency stamp: the decoded tile leaves for the collector.
        stamps = (*in_stamps, time.time())
        with traced_stage(tracer, dec.stage_times, "wire", picture=display_idx):
            lease = None
            if pool is not None and collector.peer_features.get("shm_pool"):
                try:
                    lease = pool.alloc(frame_nb)
                except PoolExhausted:
                    lease = None
            if lease is not None:
                write_tile_frame_into(frame, part, lease.buf)
                payload = encode_tile_frame_hmsg(tid, part, lease.handle, stamps)
                mtype = MSG_FRAME_H
                wire_bytes = len(payload)
            else:
                payload = encode_tile_frame(tid, part, frame, stamps)
                mtype = MSG_FRAME
                wire_bytes = buffers_nbytes(payload)
        collector.send(mtype, payload, picture=display_idx, sender=tid)
        if lease is not None:
            collector.stats.note_handle(frame_nb)
            registry().counter("pool.bytes_by_handle").inc(frame_nb)
        else:
            registry().counter("pool.bytes_by_copy").inc(wire_bytes)
        tracer.emit(
            "frame_sent",
            picture=display_idx,
            bytes=wire_bytes,
            pool_bytes=frame_nb if lease is not None else 0,
        )
        display_idx += 1

    held_back: Dict[int, List] = {}
    eos_from: set = set()
    closed: set = set()
    i = 0
    while len(eos_from) < cfg.k:
        kind, label, msg = queue_get(ctrl_q, cfg.recv_timeout, f"sub-picture {i}")
        if kind == "error":
            raise msg
        if kind == "closed":
            if label in eos_from:
                closed.add(label)  # orderly: EOS then close
                continue
            raise ChannelClosed(f"{me}: {label} disconnected mid-stream")
        if msg.type == MSG_SEQ:
            continue  # duplicate copies from the other splitters
        if msg.type == MSG_EOS:
            eos_from.add(label)
            continue
        if msg.type == MSG_LAYOUT:
            # Versioned repartition notice.  FIFO ordering guarantees it
            # precedes the plans of its effective_from picture on this
            # channel; the schedule dedupes the copies the other
            # splitters forward.
            schedule.apply(LayoutUpdate.decode(msg.payload))
            continue
        if msg.type not in (MSG_SUBPICTURE, MSG_PLAN, MSG_PLAN_H):
            raise ProtocolError(f"{me}: unexpected {msg.type} from {label}")

        maybe_fail(cfg, me, msg.picture)
        if msg.picture != i:
            raise ProtocolError(
                f"{me}: picture {msg.picture} arrived, expected {i} "
                "(ordering broken)"
            )
        lay = schedule.layout_for(i)
        if lay is not cur_layout:
            # Closed-GOP boundary: swap tile geometry in place.  The
            # reference planes are full-raster, so no pixel state moves —
            # only which macroblocks arrive and which crop ships changes.
            cur_layout = lay
            new_tile = lay.tile(tid)
            dec.retile(new_tile, lay)
            partition = new_tile.partition
            tracer.emit(
                "repartition",
                picture=i,
                version=schedule.version_for(i),
                rect=[partition.x0, partition.y0, partition.x1, partition.y1],
            )
        plan_handle = None
        if msg.type == MSG_PLAN_H:
            with traced_stage(tracer, dec.stage_times, "wire", picture=i):
                anid, plan_handle, program, in_stamps = decode_plan_hmsg(
                    msg.payload, n_tiles
                )
                # Zero-copy decode straight out of the splitter's slab;
                # the handle is released only after the plan executes.
                tp, _end = plan_codec.decode_plan(
                    pools.view(plan_handle), dec.matrices
                )
            sp = None
            ptype = tp.picture_type
        elif msg.type == MSG_PLAN:
            with traced_stage(tracer, dec.stage_times, "wire", picture=i):
                anid, tp, program, in_stamps = decode_plan_msg(
                    msg.payload, dec.matrices, n_tiles
                )
            sp = None
            ptype = tp.picture_type
        else:
            anid, sp_bytes, program, in_stamps = decode_subpicture(
                msg.payload, n_tiles
            )
            sp = SubPicture.deserialize(sp_bytes)
            ptype = sp.picture_type
        if program.tile != tid or program.picture_index != i:
            raise ProtocolError(
                f"{me}: MEI program of tile {program.tile}, picture "
                f"{program.picture_index} arrived with picture {i}"
            )
        # Ack to the *next* splitter (ANID), releasing picture i+1.
        split_ch[anid].send(MSG_ACK, picture=i, sender=tid)

        t0 = time.perf_counter()
        c0 = time.thread_time()
        served = sent_msgs = got_msgs = 0
        with tracer.span("serve", picture=i):
            # one block per destination peer: one message, one lease
            for block in dec.execute_sends(program, ptype):
                ch = peers[f"dec{block.dest}"]
                bnb = block.nbytes
                lease = None
                if (
                    pool is not None
                    and 0 < bnb <= BLOCK_SLAB_BYTES
                    and ch.peer_features.get("shm_pool")
                ):
                    try:
                        lease = pool.alloc(bnb)
                    except PoolExhausted:
                        lease = None
                if lease is not None:
                    np.frombuffer(lease.buf, np.uint8)[:] = block.pixels
                    ch.send(
                        MSG_BLOCK_H,
                        encode_block_hmsg(block, lease.handle),
                        picture=i,
                        sender=tid,
                    )
                    ch.stats.note_handle(bnb)
                    registry().counter("pool.bytes_by_handle").inc(bnb)
                else:
                    ch.send(
                        MSG_BLOCK, encode_block(block), picture=i, sender=tid
                    )
                    registry().counter("pool.bytes_by_copy").inc(bnb)
                served += bnb
                sent_msgs += 1
        serve_s = time.perf_counter() - t0
        serve_cpu = time.thread_time() - c0

        t0 = time.perf_counter()
        # The MEI exchange barrier: this tile cannot reconstruct until every
        # remote reference block of picture i has arrived.
        with tracer.span("exchange_wait", picture=i):
            # Per-source debt ledger, one block from each peer the RECV rows
            # name: a closed peer that still owes this picture its block is
            # a death, not an orderly EOF — fail fast instead of sitting
            # out the full receive timeout.
            owed = {f"dec{src}" for src in program.senders()}

            def settle(block, bh) -> None:
                nonlocal got_msgs
                name = f"dec{block.src}"
                if name not in owed:
                    raise ProtocolError(f"{me}: unowed block of picture {i} from {name}")
                dec.apply_recv(block, ptype)
                if bh is not None:
                    pools.release(bh)
                owed.discard(name)
                got_msgs += 1

            for block, bh in held_back.pop(i, []):
                settle(block, bh)
            for name in closed:
                if name in owed:
                    raise ChannelClosed(
                        f"{me}: {name} died owing blocks of picture {i}"
                    )
            while owed:
                bkind, blabel, bmsg = queue_get(
                    blk_q, cfg.recv_timeout, f"blocks of picture {i}"
                )
                if bkind == "error":
                    raise bmsg
                if bkind == "closed":
                    closed.add(blabel)
                    if blabel in owed:
                        raise ChannelClosed(
                            f"{me}: {blabel} died owing blocks of picture {i}"
                        )
                    continue
                if bmsg.type == MSG_BLOCK_H:
                    block, bh = decode_block_hmsg(bmsg.payload, pools.view)
                else:
                    block, bh = decode_block(bmsg.payload), None
                if bmsg.picture == i:
                    settle(block, bh)
                else:
                    held_back.setdefault(bmsg.picture, []).append((block, bh))
        wait_remote_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        c0 = time.thread_time()
        # Parent "decode" span; parse/plan/execute children are synthesized
        # from the decoder's stage-time deltas so the timeline attribution
        # matches load_stage_times exactly, even on the bitstream path
        # where the stages interleave per record.
        with stage_span_block(
            tracer, dec.stage_times, "decode", picture=i,
            stages=("parse", "plan", "execute"),
        ):
            ready = dec.decode_plan(tp) if sp is None else dec.decode_subpicture(sp)
        if plan_handle is not None:
            # The plan's arrays were zero-copy views into the splitter's
            # slab; execution is done, so give the slab back.
            pools.release(plan_handle)
        decode_s = time.perf_counter() - t0
        # CPU time excludes scheduler preemption: on an oversubscribed box
        # the wall spans of concurrent decoders absorb each other's work,
        # but thread CPU time stays an honest per-tile cost measure — it is
        # what the imbalance accounting and the feedback policy consume.
        busy_cpu = serve_cpu + (time.thread_time() - c0)
        tracer.emit(
            "decode",
            picture=i,
            ptype=ptype.name,
            serve_s=round(serve_s, 6),
            wait_remote_s=round(wait_remote_s, 6),
            decode_s=round(decode_s, 6),
            cpu_s=round(busy_cpu, 6),
            served_bytes=served,
            block_msgs=sent_msgs,  # MSG_BLOCK(_H) sent: one per peer served
            block_msgs_in=got_msgs,  # and applied: one per peer owed
        )
        if cfg.partition_policy == "feedback":
            # Telemetry upstream: per-picture busy time rides the ack
            # channel to the next splitter, which relays it to the root's
            # partition controller.
            split_ch[anid].send(
                MSG_REPORT,
                encode_report(
                    {
                        "kind": "exec",
                        "picture": i,
                        "tile": tid,
                        "busy_s": round(busy_cpu, 6),
                    }
                ),
                picture=i,
                sender=tid,
            )
        # A B picture ships immediately under the current partition; an
        # anchor releases the *previous* held anchor, which was decoded
        # under its own partition (possibly one repartition ago).
        out = shipping.push(ptype, (partition, in_stamps))
        if ready is not None:
            ship(ready, *out)
        maybe_emit_stats(tracer)
        i += 1

    tail = dec.flush()
    if tail is not None:
        ship(tail, *shipping.flush())
    dec.stage_times.pictures = dec.stats.pictures_decoded
    if tracer.spans:
        emit_stats(tracer)
    tracer.emit("stage_times", **dec.stage_times.as_dict())
    if pool is not None:
        tracer.emit("pool_stats", pool=pool.name, **pool.stats.to_dict())
        pool.close()  # no unlink: the collector may still hold frame leases
    if pools is not None:
        pools.close()
    collector.send(MSG_EOS, sender=tid)

    for ch in split_ch.values():
        ch.close()
    for ch in peers.values():
        ch.close()
    deadline = time.monotonic() + 1.0
    for t in pumps:
        t.join(timeout=max(0.05, deadline - time.monotonic()))
