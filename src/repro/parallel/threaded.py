"""The 1-k-(m,n) pipeline on real OS threads.

The functional pipeline (:mod:`repro.parallel.pipeline`) drives the
components synchronously; the timed system runs them as simulated actors.
This module runs them as *actual concurrent threads* exchanging messages
through blocking queues, with the paper's full control flow:

- the root thread round-robins pictures to splitter threads, gated by
  ack credits (two receive slots per splitter);
- each splitter thread splits independently and waits for all decoder
  acks of the previous picture — redirected via ANID — before sending,
  which serializes sub-picture delivery without reorder queues;
- each tile-decoder thread executes its MEI SENDs (one packed block per
  destination), waits for one block from each peer its RECVs name (with
  a hold-back buffer for blocks of the next picture arriving early),
  decodes, and emits display-ready frames.

Output is bit-exact with the sequential decoder; the value of this runner
is demonstrating the protocol is deadlock-free and order-correct under
real preemptive scheduling, not just in the deterministic DES.

Shutdown: every blocking queue operation is a short poll against a shared
stop event, so the first failing worker poisons the whole pipeline — the
driver re-raises its exception and every thread drains promptly instead
of blocking on a queue nobody will ever service again.  (For the same
protocol across OS *processes*, see :mod:`repro.cluster.runtime`.)
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.mpeg2 import plan_codec
from repro.mpeg2.decoder import ReferenceChain
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.partition import build_controller
from repro.parallel.pdecoder import TileDecoder
from repro.wall.layout import TileLayout

if TYPE_CHECKING:  # runtime import would cycle through repro.perf.trace
    from repro.perf.trace import TraceWriter

#: Queue poll period; the granularity at which workers notice the stop event.
_POLL = 0.05


@dataclass
class _PlanMessage:
    """What a splitter thread hands a decoder thread for one picture.

    The plan travels through the queue in its wire encoding, exactly as it
    would cross a socket, so the threaded runner exercises the same codec
    path as the cluster runtime.
    """

    picture_index: int
    anid: int
    plan_bytes: bytes
    program: object  # MEIProgram
    expected_blocks: int  # one per peer the program receives from


class _Cancelled(BaseException):
    """A worker was asked to stop because another worker failed."""


class ThreadedParallelDecoder:
    """Run the hierarchical decoder on ``1 + k + m*n`` threads."""

    def __init__(
        self,
        layout: TileLayout,
        k: int = 1,
        queue_depth: int = 2,
        partition_policy: str = "static",
        partition_ewma: float = 0.5,
        tracer: Optional["TraceWriter"] = None,
    ):
        if k < 1:
            raise ValueError("need at least one second-level splitter")
        self.layout = layout
        self.k = k
        self.queue_depth = queue_depth
        # Runtime partition policy (repro.parallel.partition): the same
        # controller the cluster root runs, minus the wire protocol —
        # threads share the LayoutSchedule object directly, and the
        # queue handoffs provide the happens-before ordering the cluster
        # gets from per-channel FIFO.
        self.partition_policy = partition_policy
        self.partition_ewma = partition_ewma
        # Versioned updates the controller issued during the last decode()
        # (empty under the static policy) — the runner's observable record
        # that adaptation actually happened.
        self.partition_updates: List = []
        # Optional span telemetry: all worker threads share one writer
        # (emits are thread-safe); each thread gets its own ``tid`` track
        # in the timeline export via its thread name.
        self.tracer = tracer
        self.errors: List[BaseException] = []

    def _span(self, event: str, picture: int = -1, **data):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(event, picture=picture, **data)

    def decode(self, stream: bytes, timeout: float = 60.0) -> List[Frame]:
        scanner = PictureScanner(stream)
        sequence, pictures = scanner.scan()
        n_pics = len(pictures)
        n_tiles = self.layout.n_tiles

        controller = build_controller(
            self.partition_policy, self.layout, ewma=self.partition_ewma
        )
        schedule = controller.schedule if controller is not None else None
        self.partition_updates = controller.updates if controller else []

        # queues -------------------------------------------------------- #
        pic_q = [queue.Queue(self.queue_depth) for _ in range(self.k)]
        sp_q = [queue.Queue() for _ in range(n_tiles)]
        blk_q = [queue.Queue() for _ in range(n_tiles)]
        # decoder acks, redirected by ANID: one queue per splitter
        ack_q = [queue.Queue() for _ in range(self.k)]
        out_q: "queue.Queue" = queue.Queue()
        errors = self.errors
        stop = threading.Event()

        def _get(q: "queue.Queue", what: str):
            """Blocking get that honors the stop event and the deadline."""
            deadline = time.monotonic() + timeout
            while True:
                if stop.is_set():
                    raise _Cancelled()
                try:
                    return q.get(timeout=_POLL)
                except queue.Empty:
                    if time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"timed out after {timeout:.1f}s waiting for {what}"
                        )

        def _put(q: "queue.Queue", item, what: str):
            """Blocking put into a bounded queue, stop-aware as well."""
            deadline = time.monotonic() + timeout
            while True:
                if stop.is_set():
                    raise _Cancelled()
                try:
                    return q.put(item, timeout=_POLL)
                except queue.Full:
                    if time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"timed out after {timeout:.1f}s putting {what}"
                        )

        def guard(fn):
            def run():
                try:
                    fn()
                except _Cancelled:
                    pass  # poisoned by the first failure; not a new error
                except BaseException as exc:  # propagate to the caller
                    errors.append(exc)
                    stop.set()
                    out_q.put(("error", exc))

            return run

        # root ----------------------------------------------------------- #
        def root():
            for i, unit in enumerate(pictures):
                if controller is not None:
                    # Repartition decision BEFORE dispatching picture i:
                    # the queue put below publishes the schedule change to
                    # every downstream thread (happens-before).
                    upd = controller.maybe_update(i, unit)
                    if upd is not None and self.tracer is not None:
                        self.tracer.emit(
                            "layout_update",
                            picture=i,
                            version=upd.version,
                            x_bounds=list(upd.x_bounds),
                            y_bounds=list(upd.y_bounds),
                        )
                a = i % self.k
                nsid = (a + 1) % self.k
                # bounded: blocks at depth `queue_depth` (the two-buffer
                # credit scheme), but wakes immediately on poisoning
                with self._span("dispatch", picture=i, splitter=a):
                    _put(pic_q[a], (i, nsid, unit), f"picture {i}")
            for a in range(self.k):
                _put(pic_q[a], None, "end of stream")

        # splitters ------------------------------------------------------ #
        def splitter(sid: int):
            msplit = MacroblockSplitter(
                sequence,
                self.layout,
                collect_content=self.partition_policy == "content",
            )
            while True:
                item = _get(pic_q[sid], "a picture from the root")
                if item is None:
                    return
                i, nsid, unit = item
                if schedule is not None:
                    lay = schedule.layout_for(i)
                    if lay is not msplit.layout:
                        msplit.set_layout(lay)
                with self._span("split", picture=i):
                    result = msplit.split_plans(unit, i)
                if msplit.last_content is not None:
                    cols, rows = msplit.last_content
                    controller.observe_content(i, cols, rows)
                    msplit.last_content = None
                if i > 0:
                    # wait for every decoder's ack of picture i-1,
                    # redirected here via ANID
                    with self._span("ack_wait", picture=i - 1):
                        for _ in range(n_tiles):
                            pic_idx = _get(ack_q[sid], f"acks of picture {i - 1}")
                            if pic_idx != i - 1:
                                raise RuntimeError(
                                    f"splitter {sid}: ack for picture {pic_idx}, "
                                    f"expected {i - 1}"
                                )
                for tid in range(n_tiles):
                    prog = result.mei.program(tid)
                    sp_q[tid].put(
                        _PlanMessage(
                            picture_index=i,
                            anid=nsid,
                            plan_bytes=plan_codec.encode_plan_bytes(result.plans[tid]),
                            program=prog,
                            expected_blocks=len(prog.senders()),
                        )
                    )

        # decoders -------------------------------------------------------- #
        def decoder(tid: int):
            cur_layout = self.layout
            dec = TileDecoder(self.layout.tile(tid), self.layout, sequence)
            partition = self.layout.tile(tid).partition
            # The crop a frame ships with is the partition in force when
            # it was decoded — the held anchor may outlive a repartition —
            # so partitions ride a second chain, in step with the decoder's.
            partitions: ReferenceChain = ReferenceChain()
            held_back: Dict[int, List] = {}
            for i in range(n_pics):
                msg = _get(sp_q[tid], f"sub-picture {i}")
                if msg.picture_index != i:
                    raise RuntimeError(
                        f"tile {tid}: picture {msg.picture_index} arrived, "
                        f"expected {i} (ordering broken)"
                    )
                if schedule is not None:
                    lay = schedule.layout_for(i)
                    if lay is not cur_layout:
                        cur_layout = lay
                        new_tile = lay.tile(tid)
                        dec.retile(new_tile, lay)
                        partition = new_tile.partition
                        if self.tracer is not None:
                            self.tracer.emit(
                                "repartition",
                                picture=i,
                                version=schedule.version_for(i),
                                rect=[
                                    partition.x0,
                                    partition.y0,
                                    partition.x1,
                                    partition.y1,
                                ],
                            )
                tp, _ = plan_codec.decode_plan(msg.plan_bytes, dec.matrices)
                ptype = tp.picture_type
                # ack to the *next* splitter (ANID), releasing picture i+1
                ack_q[msg.anid].put(i)
                c0 = time.thread_time()
                # serve peers first (reads already-decoded local refs)
                for block in dec.execute_sends(msg.program, ptype):
                    blk_q[block.dest].put((i, block))
                serve_cpu = time.thread_time() - c0
                # collect one block per sending peer; hold back early arrivals
                with self._span("exchange_wait", picture=i):
                    pending = held_back.pop(i, [])
                    for block in pending:
                        dec.apply_recv(block, ptype)
                    got = len(pending)
                    while got < msg.expected_blocks:
                        pic_idx, block = _get(blk_q[tid], f"blocks of picture {i}")
                        if pic_idx == i:
                            dec.apply_recv(block, ptype)
                            got += 1
                        else:
                            held_back.setdefault(pic_idx, []).append(block)
                c0 = time.thread_time()
                with self._span("decode", picture=i):
                    ready = dec.decode_plan(tp)
                if self.partition_policy == "feedback":
                    # Thread CPU time, not wall time: with every tile
                    # sharing one GIL the wall span of each decode absorbs
                    # the other tiles' work and the telemetry flattens.
                    controller.observe_execute(
                        i, tid, serve_cpu + (time.thread_time() - c0)
                    )
                out_part = partitions.push(ptype, partition)
                if ready is not None:
                    out_q.put(("frame", tid, ready, out_part))
            tail = dec.flush()
            if tail is not None:
                out_q.put(("frame", tid, tail, partitions.flush()))

        threads = [threading.Thread(target=guard(root), name="root", daemon=True)]
        threads += [
            threading.Thread(
                target=guard(lambda s=s: splitter(s)), name=f"split{s}", daemon=True
            )
            for s in range(self.k)
        ]
        threads += [
            threading.Thread(
                target=guard(lambda t=t: decoder(t)), name=f"dec{t}", daemon=True
            )
            for t in range(n_tiles)
        ]
        for t in threads:
            t.start()

        # collect: every displayed picture produces one crop per tile,
        # stamped with the partition it was decoded under (the layout may
        # have changed between decode and display for held anchors).  A crop
        # is pasted when it arrives and the tile's full-raster frame let go,
        # so what is alive is the output plus the pictures in flight.
        try:
            frames: List[Frame] = []
            walls: Dict[int, Frame] = {}  # display index -> wall being pasted
            owed = [n_tiles] * n_pics  # crops each display index still lacks
            display_counter = [0] * n_tiles
            while len(frames) < n_pics:
                kind, *payload = out_q.get(timeout=timeout)
                if kind == "error":
                    raise payload[0]
                tid, tile_frame, p = payload
                idx = display_counter[tid]
                display_counter[tid] += 1
                if idx not in walls:
                    walls[idx] = Frame.blank(self.layout.width, self.layout.height)
                out = walls[idx]
                out.y[p.y0 : p.y1, p.x0 : p.x1] = tile_frame.y[p.y0 : p.y1, p.x0 : p.x1]
                out.cb[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2] = tile_frame.cb[
                    p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2
                ]
                out.cr[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2] = tile_frame.cr[
                    p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2
                ]
                owed[idx] -= 1
                if not owed[idx]:
                    # every tile emits in display order, so display indices
                    # complete in order too
                    frames.append(walls.pop(idx))
        finally:
            # Success or failure, poison and drain every worker: no thread
            # may outlive this call blocked on an unserviced queue.
            stop.set()
            deadline = time.monotonic() + timeout
            for t in threads:
                t.join(timeout=max(0.1, deadline - time.monotonic()))
        if self.errors:
            raise self.errors[0]
        return frames
