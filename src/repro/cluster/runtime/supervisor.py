"""Cluster supervisor: spawn the process tree, collect frames, tear down.

:class:`ClusterSupervisor` is the driver-side half of the runtime.  For
one decode it:

1. materializes a *run directory* (the rendezvous root): the encoded
   stream, ``cluster.json``, per-process trace/log files, and — for the
   Unix transport — the socket files themselves.  It is ``trace_dir`` if
   the caller named one; otherwise a temporary directory that is removed
   after a successful decode and kept, its path in the error, after a
   failed one;
2. binds the collector listener, imports the role modules (once per
   process: ``preload``) and forks ``1 + k + m*n`` workers off itself —
   each child runs :func:`repro.cluster.runtime.worker.main`, having
   imported nothing;
3. accepts one channel per tile decoder and collects displayed tile
   crops until every picture is assembled, polling child liveness the
   whole time — a crashed worker becomes a :class:`ClusterError` with a
   per-process diagnostic report, never a hang;
4. drains EOS and waits for children to exit (escalating terminate → kill
   past the deadline).  Every per-process trace of a run directory that
   stays is merged into one wall-clock timeline (``merged.trace.jsonl``)
   when :attr:`ClusterSupervisor.merged_trace_path` is first read — at
   once after a failed run, whose post-mortem it is.

The output is bit-identical to the sequential decoder — the same golden
assertion the threaded runner carries, now across process boundaries.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import signal
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.runtime.config import CONFIG_FILE, STREAM_FILE, WallConfig
from repro.cluster.runtime.messages import (
    MSG_EOS,
    MSG_ERROR,
    MSG_FRAME,
    MSG_FRAME_H,
    decode_error,
    decode_tile_frame,
    decode_tile_frame_hmsg,
)
from repro.cluster.runtime.rendezvous import Rendezvous, accept_labeled, pump
from repro.cluster.runtime.worker import load_role, role_kind, run_forked
from repro.mem import PoolRegistry, purge_pools
from repro.mpeg2.frames import Frame
from repro.mpeg2.parser import PictureScanner
from repro.net.channel import Channel, ChannelTimeout, Listener
from repro.perf.export import span_tail, write_chrome_trace
from repro.perf.metrics import StageTimes
from repro.perf.telemetry import emit_stats, registry
from repro.perf.trace import (
    TRACE_SUFFIX,
    TraceWriter,
    load_stage_times,
    merge_traces,
    read_trace_file,
)
from repro.wall.layout import TileLayout

MERGED_TRACE = "merged.trace.jsonl"
PERFETTO_TRACE = "trace.perfetto.json"

#: How many trailing trace events the crash post-mortem shows per process.
POSTMORTEM_EVENTS = 8


class ClusterError(RuntimeError):
    """A worker failed (or timed out); carries the diagnostic report."""

    def __init__(self, message: str, report: str = ""):
        super().__init__(message + (f"\n{report}" if report else ""))
        self.report = report


class WorkerProcess:
    """A forked worker, reaped by this process (so its CPU time and peak
    RSS land in this process's ``RUSAGE_CHILDREN``).

    The slice of ``subprocess.Popen`` the supervisor needs — ``pid``,
    ``poll``, ``wait``, ``terminate``, ``kill``, ``returncode`` (negative:
    killed by that signal) — except that a ``wait`` that times out returns
    None, like ``poll``, where Popen raises.  Safe to share between the
    decode thread and a thread calling :meth:`ClusterSupervisor.shutdown`.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: Optional[int] = None
        self._lock = threading.Lock()

    def _reap(self, flags: int) -> Optional[int]:
        """``waitpid`` once; the caller holds the lock."""
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, flags)
            if pid == self.pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def poll(self) -> Optional[int]:
        with self._lock:
            return self._reap(os.WNOHANG)

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        if timeout is None:
            with self._lock:
                return self._reap(0)
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            delay = min(2 * delay, remaining, 0.005)
            time.sleep(delay)
        return self.returncode

    def _signal(self, sig: int) -> None:
        with self._lock:  # never signal a pid that has been reaped
            if self._reap(os.WNOHANG) is None:
                os.kill(self.pid, sig)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def stop(self, grace_s: float) -> int:
        """Wait ``grace_s`` for the exit, then SIGKILL and reap."""
        rc = self.wait(grace_s)
        if rc is None:
            self.kill()
            rc = self.wait()
        return rc


def preload_roles(names: List[str]) -> Optional[dict]:
    """Import the role modules of processes ``names`` into *this* process,
    for its forks to start with.  Returns what that cost as the ``preload``
    event's data — ``roles``, ``modules``, ``seconds`` — or None when
    nothing was left to import (every job of a process but its first)."""
    loaded = len(sys.modules)
    t0 = time.perf_counter()
    for name in names:
        load_role(name)
    if len(sys.modules) == loaded:
        return None
    return {
        "roles": sorted({role_kind(name) for name in names}),
        "modules": len(sys.modules) - loaded,
        "seconds": round(time.perf_counter() - t0, 4),
    }


def _flush_stdio() -> None:
    """Whatever sits in a stdio buffer at ``fork()`` would be the child's
    to write a second time."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # detached or closed
            pass


class ClusterSupervisor:
    """Run the 1-k-(m,n) pipeline as real OS processes and supervise it."""

    def __init__(self, config: WallConfig, trace_dir: Optional[str] = None):
        self.config = config
        self.trace_dir = trace_dir
        self.rundir: Optional[Path] = None
        self.processes: Dict[str, WorkerProcess] = {}
        self.stage_times = StageTimes()  # aggregated from decoder traces
        self.stage_times_by_proc: Dict[str, StageTimes] = {}
        self._unmerged: Optional[Path] = None  # a kept rundir, not merged yet
        self._merged_trace_path: Optional[Path] = None
        self._perfetto_path: Optional[Path] = None
        self._tracer: Optional[TraceWriter] = None
        self._stopped = False
        self._death_hooks: List = []
        self._deaths_notified: set = set()

    def add_death_hook(self, hook) -> None:
        """Register ``hook(proc_name, returncode)``, fired (once per child)
        when liveness polling first sees that child dead with a nonzero
        status.  This is the fleet gateway's failover trigger: a session
        daemon learns of a worker death the moment the supervisor does,
        not when the decode eventually errors out.  Hooks run on the
        polling thread and must not block."""
        self._death_hooks.append(hook)

    @property
    def merged_trace_path(self) -> Optional[Path]:
        """The kept run directory's one wall-clock timeline (JSONL), merged
        when first asked for; None when the run directory is gone."""
        self._merge_traces()
        return self._merged_trace_path

    @property
    def perfetto_path(self) -> Optional[Path]:
        """The same timeline as a Perfetto-loadable Chrome trace."""
        self._merge_traces()
        return self._perfetto_path

    def _merge_traces(self) -> None:
        if self._unmerged is None:
            return
        rundir, self._unmerged = self._unmerged, None
        # Lenient merge: a crashed worker may leave a torn final line; the
        # post-mortem must still see everything that did flush.
        self._merged_trace_path = rundir / MERGED_TRACE
        events = merge_traces(rundir, self._merged_trace_path, strict=False)
        self._perfetto_path = rundir / PERFETTO_TRACE
        write_chrome_trace(events, self._perfetto_path)

    # ------------------------------------------------------------------ #

    def decode(self, stream: bytes, timeout: float = 120.0) -> List[Frame]:
        cfg = self.config
        # The trace paths answer for this job, never for the one before it.
        self._unmerged = self._merged_trace_path = self._perfetto_path = None
        sequence, pictures = PictureScanner(stream).scan()
        layout = TileLayout(sequence.width, sequence.height, cfg.m, cfg.n, cfg.overlap)
        n_pics, n_tiles = len(pictures), layout.n_tiles

        if self.trace_dir is not None:
            # Absolute: workers run with cwd *inside* the run directory and
            # receive this path on their command line.
            rundir = Path(self.trace_dir).resolve()
            rundir.mkdir(parents=True, exist_ok=True)
        else:
            # Ours to remove: it holds a copy of the whole stream plus every
            # trace, and nobody asked for either.  A failed run keeps it —
            # the logs and traces in it are the post-mortem.
            rundir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        self.rundir = rundir
        # Mint the run's pool token: workers name their shm segments
        # ``repro-pool-<token>-<proc>`` and the purge below reaps exactly
        # that namespace — even after a SIGKILL mid-lease.
        if cfg.pool_enabled and not cfg.pool_token:
            cfg.pool_token = uuid.uuid4().hex[:8]
        (rundir / STREAM_FILE).write_bytes(stream)
        (rundir / CONFIG_FILE).write_text(json.dumps({"config": cfg.to_dict()}))
        tracer = TraceWriter(rundir / f"supervisor{TRACE_SUFFIX}", "supervisor")
        self._tracer = tracer

        rv = Rendezvous(rundir, cfg.transport, cfg.connect_timeout)
        collector = rv.listen("collector")
        channels: Dict[int, Channel] = {}
        shm_dir = Path(cfg.shm_dir) if cfg.shm_dir else None
        pools = PoolRegistry(shm_dir) if cfg.pool_enabled else None
        done = False
        try:
            self._spawn(rundir, tracer)
            frames = self._collect(
                collector, channels, layout, n_pics, n_tiles, timeout, tracer,
                pools,
            )
            self._shutdown(timeout, tracer)
            done = True
            return frames
        except Exception:
            self._teardown(tracer)
            raise
        finally:
            for ch in channels.values():
                ch.close()
            collector.close()
            if pools is not None:
                pools.close()
            if cfg.pool_token:
                # Crash-safe leak check: every segment of this run must be
                # gone once the tree is down.  Workers deliberately never
                # unlink, so a *normal* run purges its segments here; an
                # empty /dev/shm afterwards is the leak-free invariant the
                # CI step asserts.
                removed = purge_pools(cfg.pool_token, shm_dir)
                tracer.emit("pool_purge", removed=removed)
            # Final counter snapshot: the supervisor releases every frame
            # handle it assembles, and the trace report balances leases
            # against releases across the whole process tree.
            emit_stats(tracer)
            tracer.close()
            if done and self.trace_dir is None:
                shutil.rmtree(rundir, ignore_errors=True)
                self.rundir = None
            else:
                # Merging is the reader's cost, not the job's (1.5-3 % of
                # a short one) — except after a failure, where the merged
                # timeline is the post-mortem and must exist.
                self._unmerged = rundir
                if not done:
                    self._merge_traces()

    # ------------------------------------------------------------------ #

    def _spawn(self, rundir: Path, tracer: TraceWriter) -> None:
        """Fork one worker per role off this process.

        A worker needs nothing this process does not already have loaded —
        an interpreter booted per worker spent its first 0.25-0.5 s
        importing — so the roles are imported here, once, and every child
        starts with them.  Not through a fork *server*: the children of a
        helper process are not this process's children, and the CPU they
        burn would vanish from its ``RUSAGE_CHILDREN``.
        """
        preloaded = preload_roles(self.config.process_names)
        if preloaded is not None:
            tracer.emit("preload", **preloaded)
        for name in self.config.process_names:
            _flush_stdio()
            tracer.flush()
            forked_at = time.time()
            pid = os.fork()
            if pid == 0:
                run_forked(rundir, name)  # never returns
            self.processes[name] = WorkerProcess(pid)
            tracer.emit("spawn", ts=forked_at, proc_name=name, pid=pid)

    def _poll_children(self) -> Optional[str]:
        """Name of the first child that exited with a nonzero status."""
        dead: Optional[str] = None
        for name, proc in self.processes.items():
            rc = proc.poll()
            if rc is not None and rc != 0:
                if name not in self._deaths_notified:
                    self._deaths_notified.add(name)
                    for hook in self._death_hooks:
                        try:
                            hook(name, rc)
                        except Exception:  # noqa: BLE001 - hooks can't kill polling
                            pass
                if dead is None:
                    dead = name
        return dead

    def _collect(
        self,
        collector: Listener,
        channels: Dict[int, Channel],
        layout: TileLayout,
        n_pics: int,
        n_tiles: int,
        timeout: float,
        tracer: TraceWriter,
        pools: Optional[PoolRegistry] = None,
    ) -> List[Frame]:
        cfg = self.config
        deadline = time.monotonic() + timeout

        def check(what: str) -> None:
            dead = self._poll_children()
            if dead is not None:
                raise self._error(
                    f"worker {dead!r} exited with status "
                    f"{self.processes[dead].returncode} while {what}"
                )
            if time.monotonic() >= deadline:
                raise self._error(
                    f"cluster timed out after {timeout:.0f}s while {what}"
                )

        # Accept one channel per tile decoder, polling liveness throughout.
        while len(channels) < n_tiles:
            check("waiting for decoders to connect")
            try:
                peer, ch = accept_labeled(collector, "supervisor", cfg, 0.25)
            except ChannelTimeout:
                continue
            if not peer.startswith("dec"):
                raise self._error(f"unexpected connection from {peer!r}")
            channels[int(peer[3:])] = ch
            tracer.emit("accept", peer=peer)

        frame_q: "queue.Queue" = queue.Queue()
        for tid, ch in channels.items():
            pump(ch, frame_q, f"dec{tid}")

        buckets: Dict[int, Dict[int, tuple]] = {}
        frames: Dict[int, Frame] = {}
        collected = 0
        eos_from: set = set()
        while collected < n_pics * n_tiles:
            check("collecting frames")
            try:
                kind, label, msg = frame_q.get(timeout=0.25)
            except queue.Empty:
                continue
            if kind == "closed":
                if label in eos_from:
                    continue
                raise self._error(f"{label} disconnected mid-stream")
            if kind == "error":
                raise self._error(f"{label}: {msg}")
            if msg.type == MSG_ERROR:
                proc_name, err = decode_error(msg.payload)
                raise self._error(f"worker {proc_name!r} reported: {err}")
            if msg.type == MSG_EOS:
                eos_from.add(label)
                continue
            if msg.type == MSG_FRAME_H:
                if pools is None:
                    raise self._error(
                        f"{label} sent a frame handle but the pool is off"
                    )
                tid, rect, y, cb, cr, handle, stamps = decode_tile_frame_hmsg(
                    msg.payload, pools.view
                )
            elif msg.type == MSG_FRAME:
                tid, rect, y, cb, cr, stamps = decode_tile_frame(msg.payload)
                handle = None
            else:
                raise self._error(f"unexpected message {msg.type} from {label}")
            buckets.setdefault(msg.picture, {})[tid] = (
                rect, y, cb, cr, handle, stamps,
            )
            collected += 1
            if len(buckets[msg.picture]) == n_tiles:
                crops = buckets.pop(msg.picture)
                frames[msg.picture] = self._assemble(layout, crops)
                # The paste copied every slab view out; give the slabs back.
                for _rect, _y, _cb, _cr, h, _st in crops.values():
                    if h is not None:
                        pools.release(h)
                tracer.emit("frame_assembled", picture=msg.picture)
                if cfg.telemetry:
                    self._emit_e2e(tracer, msg.picture, crops)
        return [frames[i] for i in sorted(frames)]

    @staticmethod
    def _emit_e2e(tracer: TraceWriter, picture: int, crops: Dict[int, tuple]) -> None:
        """End-to-end picture latency with per-hop attribution.

        The stamps (wall clock, one shared base per host) travel with the
        picture: ``t_root`` at pipeline ingress, ``t_split`` when the
        splitter ships the plans, ``t_dec`` when each decoder ships its
        tile.  The paste completes the path here.  The three hops are
        telescoping by construction — split + decode + collect is exactly
        the end-to-end figure — so the trace-report attribution and the
        e2e histogram cannot drift apart."""
        t_paste = time.time()
        stamps = [st for *_rest, st in crops.values() if st[0] > 0.0]
        if not stamps:
            return  # legacy peer or flushed tail without an ingress stamp
        t_root = stamps[0][0]
        t_split = max(st[1] for st in stamps)
        t_dec = max(st[2] for st in stamps)
        e2e = t_paste - t_root
        hops = {
            "split": t_split - t_root,
            "decode": t_dec - t_split,
            "collect": t_paste - t_dec,
        }
        critical = max(hops, key=hops.get)
        tracer.emit(
            "e2e",
            picture=picture,
            e2e_s=round(e2e, 6),
            critical=critical,
            **{f"{k}_s": round(v, 6) for k, v in hops.items()},
        )
        reg = registry()
        reg.histogram("e2e.latency").observe(max(0.0, e2e))
        reg.counter(f"e2e.critical.{critical}").inc()

    @staticmethod
    def _assemble(layout: TileLayout, crops: Dict[int, tuple]) -> Frame:
        """Paste each tile's partition crop — the multi-process equivalent
        of :func:`repro.wall.display.assemble_wall`."""
        out = Frame.blank(layout.width, layout.height)
        for _tid, (p, y, cb, cr, _h, _st) in crops.items():
            out.y[p.y0 : p.y1, p.x0 : p.x1] = y
            out.cb[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2] = cb
            out.cr[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2] = cr
        return out

    # ------------------------------------------------------------------ #

    def _shutdown(self, timeout: float, tracer: TraceWriter) -> None:
        """Graceful drain: all frames are in, so children exit on their own
        EOS cascade; escalate only past the deadline."""
        cfg = self.config
        deadline = time.monotonic() + min(timeout, cfg.shutdown_drain_s)
        for name, proc in self.processes.items():
            rc = proc.wait(max(0.1, deadline - time.monotonic()))
            if rc is None:
                proc.terminate()
                rc = proc.stop(cfg.terminate_grace_s)
            tracer.emit("child_exit", proc_name=name, returncode=rc)
        self._harvest_stage_times()
        tracer.emit("shutdown")

    def _teardown(self, tracer: TraceWriter) -> None:
        """Failure path: kill every child so nothing outlives the error."""
        for name, rc in self._terminate_all():
            tracer.emit("child_killed", proc_name=name, returncode=rc)
        tracer.emit("teardown")

    def _terminate_all(self):
        """SIGTERM every child, SIGKILL what outlives ``teardown_kill_s``;
        yields ``(name, returncode)`` as each is reaped."""
        for proc in self.processes.values():
            proc.terminate()
        deadline = time.monotonic() + self.config.teardown_kill_s
        for name, proc in self.processes.items():
            yield name, proc.stop(max(0.1, deadline - time.monotonic()))

    def shutdown(self, reason: str = "requested") -> None:
        """Stop *this* run's process tree cleanly, recording why.

        The per-session stop the wall service needs: a service running one
        supervisor per session can end a single session without touching
        the rest of the pool — only this supervisor's children are
        signalled (terminate, escalating to kill past
        ``config.teardown_kill_s``).  Idempotent and safe to call from
        another thread; a concurrent :meth:`decode` surfaces the stop as a
        :class:`ClusterError` on its own thread.  ``reason`` lands in the
        supervisor trace so the post-mortem distinguishes a requested stop
        from a crash teardown.
        """
        if self._stopped:
            return
        self._stopped = True
        tracer = self._tracer
        if tracer is not None:
            tracer.emit("shutdown_requested", reason=reason)
        for name, rc in self._terminate_all():
            if tracer is not None:
                tracer.emit("child_stopped", proc_name=name, returncode=rc)
        if tracer is not None:
            tracer.emit("shutdown_complete", reason=reason)

    def _harvest_stage_times(self) -> None:
        """Collect per-process stage timers out of the trace streams.

        ``stage_times_by_proc`` keeps every emitting process (splitters and
        decoders); ``stage_times`` stays the decoder-only aggregate for
        backward compatibility.
        """
        assert self.rundir is not None
        self.stage_times_by_proc = load_stage_times(self.rundir)
        for proc, st in self.stage_times_by_proc.items():
            if proc.startswith("dec"):
                self.stage_times.merge(st)

    def _error(self, message: str) -> ClusterError:
        return ClusterError(message, self._diagnostics())

    def _diagnostics(self) -> str:
        """Per-process post-mortem: where the run directory is (a failed
        run's is kept), exit codes, log tails, and the last few trace
        events — a SIGKILLed worker's open span begins say *where* in the
        pipeline it died."""
        lines = [f"run directory (kept): {self.rundir}"]
        for name, proc in self.processes.items():
            rc = proc.poll()
            state = "running" if rc is None else f"exit {rc}"
            lines.append(f"--- {name} ({state}) ---")
            log = (self.rundir / f"{name}.log") if self.rundir else None
            if log and log.exists():
                tail = log.read_text(errors="replace").splitlines()[-12:]
                lines.extend(f"    {ln}" for ln in tail)
            trace = (self.rundir / f"{name}{TRACE_SUFFIX}") if self.rundir else None
            if trace and trace.exists():
                try:
                    events = read_trace_file(trace, strict=False)
                except OSError:
                    events = []
                if events:
                    lines.append(f"    last {POSTMORTEM_EVENTS} trace events:")
                    lines.extend(
                        f"      {ln}" for ln in span_tail(events, POSTMORTEM_EVENTS)
                    )
        return "\n".join(lines)
