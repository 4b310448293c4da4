"""The multi-process cluster runtime, end to end.

These tests spawn real worker processes (``1 + k + m*n`` forks of the
test process) talking over the socket transport, so they are marked
``integration`` and run in a dedicated CI job rather than the default
matrix.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cluster.runtime import ClusterError, ClusterSupervisor, WallConfig
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.mei import DEST, SRC
from repro.perf import metrics, telemetry
from repro.perf.trace import TRACE_SUFFIX, TraceWriter, read_trace_file
from repro.wall.layout import TileLayout
from repro.workloads.synthetic import moving_pattern_frames

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def clip_stream():
    """A multi-GOP stream exercising I, P and B pictures."""
    clip = moving_pattern_frames(96, 64, 8, seed=21)
    stream = Encoder(EncoderConfig(gop_size=5, b_frames=2)).encode(clip)
    return clip, stream


@pytest.fixture(scope="module")
def wall_run(clip_stream, tmp_path_factory):
    """One full 2x2, k=2 decode over unix sockets, traced; shared by the
    assertions below so the expensive spawn happens once."""
    _, stream = clip_stream
    rundir = tmp_path_factory.mktemp("cluster-2x2")
    sup = ClusterSupervisor(
        WallConfig(m=2, n=2, k=2, transport="unix"), trace_dir=str(rundir)
    )
    frames = sup.decode(stream, timeout=120.0)
    return sup, frames, rundir


class TestBitIdentical:
    def test_2x2_two_splitters_matches_sequential(self, clip_stream, wall_run):
        _, stream = clip_stream
        ref = decode_stream(stream)
        _, frames, _ = wall_run
        assert len(frames) == len(ref)
        for i, (a, b) in enumerate(zip(ref, frames)):
            assert a.max_abs_diff(b) == 0, f"picture {i} diverged"

    def test_all_workers_exited_cleanly(self, wall_run):
        sup, _, _ = wall_run
        assert len(sup.processes) == 1 + 2 + 4
        for name, proc in sup.processes.items():
            assert proc.poll() == 0, f"{name} still running or failed"

    def test_stage_times_harvested_across_processes(self, wall_run):
        sup, frames, _ = wall_run
        # four decoders, eight pictures each
        assert sup.stage_times.pictures == 4 * len(frames)
        assert sup.stage_times.total > 0

    def test_tcp_transport(self, clip_stream, tmp_path, monkeypatch):
        _, stream = clip_stream
        ref = decode_stream(stream)
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        sup = ClusterSupervisor(WallConfig(m=2, n=1, k=1, transport="tcp"))
        frames = sup.decode(stream, timeout=120.0)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))
        # No trace_dir: the run directory (a copy of the stream plus every
        # trace and log) was the supervisor's own, and it is gone.
        assert os.listdir(tmp_path) == []
        assert sup.rundir is None and sup.merged_trace_path is None
        assert sup.stage_times.pictures == 2 * len(frames)  # harvested first

    def test_bitstream_fallback_matches_sequential(self, clip_stream):
        """ship_plans=False: decoders re-parse sub-picture bitstreams."""
        _, stream = clip_stream
        ref = decode_stream(stream)
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix", ship_plans=False)
        )
        frames = sup.decode(stream, timeout=120.0)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, frames))

    def test_plan_shipping_decoders_do_no_vlc(self, wall_run):
        """With plan shipping on (the default), every tile decoder's parse
        stage must be exactly zero — the splitters run VLC once."""
        sup, _, _ = wall_run
        decs = {p: st for p, st in sup.stage_times_by_proc.items() if p.startswith("dec")}
        assert len(decs) == 4
        for proc, st in decs.items():
            assert st.parse == 0.0, f"{proc} spent {st.parse}s in VLC"
            assert st.execute > 0.0


def worker_events(rundir, event):
    """``{proc: [data, ...]}`` of one event kind from the workers' own
    trace files of a run directory."""
    out = {}
    for path in sorted(Path(rundir).glob(f"*{TRACE_SUFFIX}")):
        for ev in read_trace_file(path):
            if ev.event == event and ev.proc not in ("supervisor", "merged"):
                out.setdefault(ev.proc, []).append(ev.data)
    return out


class TestForkContract:
    """Workers are forks of the caller.  What must not show: the caller's
    descriptors, buffers, locks, counters, exit handlers or stack."""

    SMALL = dict(m=2, n=1, k=1, transport="unix")

    def test_workers_inherit_no_descriptor_and_no_buffered_line(self, wall_run):
        sup, _, rundir = wall_run
        starts = worker_events(rundir, "start")
        assert set(starts) == set(sup.config.process_names)
        if os.path.exists("/proc/self/fd"):
            # the collector listener, the supervisor's trace file and
            # pytest's capture files were all open at the fork
            assert {p: d[0]["inherited_fds"] for p, d in starts.items()} == {
                p: [] for p in starts
            }
        # every worker says which slice walk it parses with, the ones that
        # build or check plans what builds them, and the ones that execute
        # plans what they execute them with
        from repro.mpeg2 import native_columns, native_execute, native_walk

        assert {d[0]["parse_engine"] for d in starts.values()} == {native_walk.engine()}
        assert {p: d[0].get("columns_engine") for p, d in starts.items()} == {
            p: None if p == "root" else native_columns.engine() for p in starts
        }
        assert {p: d[0].get("execute_engine") for p, d in starts.items()} == {
            p: native_execute.engine() if p.startswith("dec") else None for p in starts
        }
        # a trace buffer flushed on both sides of a fork would double a line
        lines = (rundir / f"supervisor{TRACE_SUFFIX}").read_text().splitlines()
        spawns = [json.loads(ln) for ln in lines if '"spawn"' in ln]
        assert sorted(sp["data"]["proc_name"] for sp in spawns) == sorted(
            sup.config.process_names
        )
        assert len(set(lines)) == len(lines)

    def test_locks_held_by_another_thread_at_the_fork(self, clip_stream, tmp_path):
        """A lock some other thread holds while the supervisor forks stays
        locked for ever in the child.  The process-global registries must
        come up replaced there, or the first counter a worker touches
        hangs it."""
        _, stream = clip_stream
        sup = ClusterSupervisor(WallConfig(**self.SMALL), trace_dir=str(tmp_path))
        bystander = TraceWriter(tmp_path / f"bystander{TRACE_SUFFIX}", "bystander")
        locks = [
            telemetry.registry()._lock,
            telemetry._CLOSED_LOCK,
            metrics.families()._lock,
            bystander._lock,
        ]
        held = threading.Event()

        def hold():
            for lock in locks:
                lock.acquire()
            held.set()
            deadline = time.monotonic() + 60.0
            while len(sup.processes) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)  # until the last fork: the parent needs them too
            for lock in locks:
                lock.release()

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(10.0)
        try:
            frames = sup.decode(stream, timeout=60.0)
        finally:
            holder.join(timeout=90.0)
            bystander.close()
        assert not holder.is_alive()
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(decode_stream(stream), frames))

    def test_parent_exit_handlers_and_stack_run_once(self, tmp_path):
        """Each child leaves through ``os._exit``: neither the caller's
        ``atexit`` list nor a ``finally`` around ``decode()`` runs in it."""
        marker = tmp_path / "marker"
        script = f"""
import atexit
from repro.cluster.runtime import ClusterSupervisor, WallConfig
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.workloads.synthetic import moving_pattern_frames

def mark(what):
    with open({str(marker)!r}, "a") as fh:
        fh.write(what + "\\n")

atexit.register(mark, "atexit")
stream = Encoder(EncoderConfig(gop_size=3)).encode(moving_pattern_frames(96, 64, 3, seed=1))
try:
    frames = ClusterSupervisor(WallConfig(m=2, n=1, k=1)).decode(stream, timeout=60.0)
finally:
    mark("finally")
print(len(frames), "frames", end="")  # stays in the stdio buffer until exit
"""
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout == "3 frames"
        assert sorted(marker.read_text().split()) == ["atexit", "finally"]

    def test_second_job_starts_from_zero_counters(self, clip_stream, tmp_path):
        """Job 2's workers are forked off a process whose registries hold
        job 1's collector channels and counters; they must report their own
        and nothing else."""
        _, stream = clip_stream
        # no heartbeat within the job: byte totals are the protocol's alone
        cfg = dict(self.SMALL, heartbeat_interval=30.0, dead_after=120.0)
        totals = []
        for job in ("job1", "job2"):
            sup = ClusterSupervisor(WallConfig(**cfg), trace_dir=str(tmp_path / job))
            sup.decode(stream, timeout=60.0)
            last = {p: d[-1] for p, d in worker_events(sup.rundir, "stats").items()}
            assert set(last) == set(sup.config.process_names)
            channels = {
                name: c for d in last.values() for name, c in d["channels"].items()
            }
            assert not [n for n in channels if n.startswith("supervisor")], channels
            totals.append(
                {
                    key: sum(c[key] for c in channels.values())
                    for key in ("sent_bytes", "handle_bytes")
                }
            )
            for proc, data in last.items():
                assert "e2e.latency" not in data["metrics"]["histograms"], proc
        assert totals[0] == totals[1] and totals[0]["handle_bytes"] > 0

    def test_trace_paths_answer_for_the_last_job_only(self, clip_stream, tmp_path):
        """One supervisor, a kept job and then a discarded one: the second
        job's run directory is gone, and so are the paths into the first's."""
        _, stream = clip_stream
        sup = ClusterSupervisor(WallConfig(**self.SMALL), trace_dir=str(tmp_path))
        sup.decode(stream, timeout=60.0)
        assert sup.merged_trace_path == tmp_path / "merged.trace.jsonl"
        assert sup.perfetto_path is not None and sup.perfetto_path.exists()
        sup.trace_dir = None
        sup.decode(stream, timeout=60.0)
        assert sup.rundir is None
        assert sup.merged_trace_path is None and sup.perfetto_path is None

    def test_worker_cpu_reaches_the_callers_rusage(self, clip_stream, tmp_path):
        """The harness charges a job ``RUSAGE_CHILDREN``: every worker must
        be this process's own child, reaped by it."""
        _, stream = clip_stream

        def children_cpu():
            ru = resource.getrusage(resource.RUSAGE_CHILDREN)
            return ru.ru_utime + ru.ru_stime

        before = children_cpu()
        sup = ClusterSupervisor(WallConfig(**self.SMALL), trace_dir=str(tmp_path))
        sup.decode(stream, timeout=60.0)
        charged = children_cpu() - before
        exits = worker_events(tmp_path, "exit")
        assert set(exits) == set(sup.config.process_names)
        reported = sum(d[0]["cpu_s"] for d in exits.values())
        assert reported > 0 and charged >= 0.9 * reported, (charged, reported)

    def test_decode_from_a_worker_thread(self, clip_stream, tmp_path):
        """The forking thread is the child's only thread — its main thread,
        whatever it was called in the parent."""
        _, stream = clip_stream
        sup = ClusterSupervisor(WallConfig(**self.SMALL), trace_dir=str(tmp_path))
        outcome = {}
        t = threading.Thread(
            target=lambda: outcome.update(frames=sup.decode(stream, timeout=60.0)),
            name="session-7",
        )
        t.start()
        t.join(timeout=90.0)
        assert not t.is_alive()
        ref = decode_stream(stream)
        assert all(a.max_abs_diff(b) == 0 for a, b in zip(ref, outcome["frames"]))
        for proc, starts in worker_events(tmp_path, "start").items():
            assert "tid" not in starts[0], proc


class TestTraceTimeline:
    def test_merged_trace_is_one_wall_clock_timeline(self, wall_run):
        sup, _, rundir = wall_run
        assert sup.merged_trace_path is not None and sup.merged_trace_path.exists()
        events = read_trace_file(sup.merged_trace_path)
        assert events, "merged trace is empty"
        stamps = [ev.ts for ev in events]
        assert stamps == sorted(stamps), "events not in wall-clock order"
        # every process contributed to the single timeline
        procs = {ev.proc for ev in events}
        assert procs >= {
            "supervisor", "root", "split0", "split1", "dec0", "dec1", "dec2", "dec3",
        }

    def test_timeline_covers_the_protocol(self, wall_run):
        sup, frames, _ = wall_run
        events = read_trace_file(sup.merged_trace_path)
        by_event = {}
        for ev in events:
            if "ph" in ev.data:
                continue  # span begin/end pairs are counted separately
            by_event.setdefault(ev.event, []).append(ev)
        assert len(by_event["picture_sent"]) == len(frames)  # root
        assert len(by_event["split"]) == len(frames)  # across k splitters
        assert len(by_event["decode"]) == 4 * len(frames)  # per tile
        assert len(by_event["frame_sent"]) == 4 * len(frames)

    def test_one_block_message_per_peer_and_picture(self, clip_stream, wall_run):
        """Each decoder sends one MSG_BLOCK(_H) per peer its SEND rows name
        and applies one from each peer its RECV rows name, per picture —
        not one per transfer."""
        _, stream = clip_stream
        sup, _, _ = wall_run
        sequence, pictures = PictureScanner(stream).scan()
        splitter = MacroblockSplitter(
            sequence, TileLayout(sequence.width, sequence.height, 2, 2)
        )
        want_out, want_in, transfers = {}, {}, 0
        for i, unit in enumerate(pictures):
            exchanges = splitter.split_plans(unit, i).mei.exchanges
            pairs = set(map(tuple, exchanges[:, [SRC, DEST]].tolist()))
            transfers += len(exchanges)
            for t in range(4):
                want_out[(t, i)] = sum(src == t for src, _ in pairs)
                want_in[(t, i)] = sum(dest == t for _, dest in pairs)
        got_out, got_in = {}, {}
        for ev in read_trace_file(sup.merged_trace_path):
            if ev.event == "decode" and "ph" not in ev.data:
                tile = int(ev.proc[len("dec"):])
                got_out[(tile, ev.picture)] = ev.data["block_msgs"]
                got_in[(tile, ev.picture)] = ev.data["block_msgs_in"]
        assert got_out == want_out and got_in == want_in
        # premise: blocks moved, and fewer messages than transfers
        assert 0 < sum(want_out.values()) < transfers

    def test_timeline_carries_spans(self, wall_run):
        """Every instrumented region appears as balanced B/E span pairs."""
        sup, frames, _ = wall_run
        events = read_trace_file(sup.merged_trace_path)
        begins, ends = {}, {}
        for ev in events:
            ph = ev.data.get("ph")
            if ph == "B":
                begins[ev.event] = begins.get(ev.event, 0) + 1
            elif ph == "E":
                ends[ev.event] = ends.get(ev.event, 0) + 1
        assert begins == ends, "unbalanced span begin/end pairs"
        # one decode span per tile-picture; exchange/credit waits visible
        assert begins["decode"] == 4 * len(frames)
        assert begins["credit_wait"] == len(frames)
        assert begins["exchange_wait"] == 4 * len(frames)
        assert begins["split"] == len(frames)
        for stage in ("plan", "execute", "wire"):
            assert begins.get(stage, 0) > 0, f"no {stage} spans"

    def test_every_worker_reports_its_role_and_import_time(self, wall_run):
        """``start`` lands once the role is imported; ``import_s`` is the
        process's age at that point (where the kernel tells: Linux)."""
        sup, _, _ = wall_run
        starts = {
            ev.proc: ev.data
            for ev in read_trace_file(sup.merged_trace_path)
            if ev.event == "start"
        }
        assert set(starts) == set(sup.config.process_names)
        for proc, data in starts.items():
            assert data["role"] == proc.rstrip("0123456789")
            if os.path.exists("/proc/self/stat"):
                assert 0 < data["import_s"] < 60, (proc, data)

    def test_trace_lines_are_valid_jsonl(self, wall_run):
        sup, _, _ = wall_run
        for line in sup.merged_trace_path.read_text().splitlines():
            rec = json.loads(line)
            assert {"ts", "proc", "event"} <= set(rec)


class TestFailureHandling:
    def test_killed_decoder_is_detected_and_torn_down(self, clip_stream, tmp_path):
        """SIGKILL a tile decoder mid-stream: the supervisor must surface a
        ClusterError promptly and leave no orphan process behind."""
        _, stream = clip_stream
        sup = ClusterSupervisor(
            WallConfig(m=2, n=2, k=1, transport="unix", fail_at="dec1@2"),
            trace_dir=str(tmp_path),
        )
        t0 = time.monotonic()
        with pytest.raises(ClusterError, match="dec1"):
            sup.decode(stream, timeout=120.0)
        assert time.monotonic() - t0 < 60, "failure detection took too long"
        for name, proc in sup.processes.items():
            assert proc.poll() is not None, f"{name} orphaned after teardown"
        assert sup.processes["dec1"].returncode == -9

    def test_sigkill_mid_lease_leaks_no_shm_segments(self, clip_stream, tmp_path):
        """Kill a decoder while frame leases are in flight: workers never
        unlink their own segments, so the supervisor's purge must reap the
        whole ``repro-pool-<token>-*`` namespace on the failure path too."""
        _, stream = clip_stream
        sup = ClusterSupervisor(
            WallConfig(
                m=2, n=2, k=1, transport="unix", fail_at="dec1@2",
                shm_dir=str(tmp_path),
            ),
            trace_dir=str(tmp_path),
        )
        with pytest.raises(ClusterError, match="dec1"):
            sup.decode(stream, timeout=120.0)
        assert sup.processes["dec1"].returncode == -9
        # the purge actually had segments to reap (the SIGKILL left the
        # dead decoder's pool behind), and none survive it
        purges = [
            ev.data["removed"]
            for ev in read_trace_file(sup.merged_trace_path)
            if ev.event == "pool_purge"
        ]
        assert purges and len(purges[0]) > 0
        assert [p for p in os.listdir(tmp_path) if p.startswith("repro-pool-")] == []

    def test_failure_report_carries_diagnostics(
        self, clip_stream, tmp_path, monkeypatch
    ):
        _, stream = clip_stream
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix", fail_at="split0@1")
        )
        with pytest.raises(ClusterError) as excinfo:
            sup.decode(stream, timeout=120.0)
        # the report names every process and its exit state
        for name in sup.config.process_names:
            assert name in str(excinfo.value)
        # A failed run keeps even a run directory nobody asked for — its logs
        # and traces are the post-mortem — and the error says where it is.
        (kept,) = tmp_path.iterdir()
        assert kept == sup.rundir and str(kept) in str(excinfo.value)
        assert (kept / "split0.log").exists()
        assert sup.merged_trace_path == kept / "merged.trace.jsonl"
        assert sup.merged_trace_path.exists()

    def test_no_stale_sockets_after_success(self, wall_run):
        _, _, rundir = wall_run
        leftovers = [p for p in os.listdir(rundir) if p.endswith(".sock")]
        assert leftovers == []


class TestShutdownAPI:
    def test_shutdown_interrupts_a_run_and_is_idempotent(self, tmp_path):
        """shutdown(reason=...) mid-decode: the decode thread surfaces a
        ClusterError, no child survives, the reason lands in the trace,
        and calling it again is a no-op."""
        clip = moving_pattern_frames(96, 64, 40, seed=7)
        stream = Encoder(EncoderConfig(gop_size=5, b_frames=2)).encode(clip)
        sup = ClusterSupervisor(
            WallConfig(m=2, n=1, k=1, transport="unix"), trace_dir=str(tmp_path)
        )
        outcome = {}

        def run():
            try:
                outcome["frames"] = sup.decode(stream, timeout=120.0)
            except ClusterError as exc:
                outcome["error"] = exc

        t = threading.Thread(target=run)
        t.start()
        deadline = time.monotonic() + 60.0
        while len(sup.processes) < 4 and time.monotonic() < deadline:
            time.sleep(0.02)  # wait for the tree to spawn
        assert len(sup.processes) == 4
        sup.shutdown(reason="session cancelled")
        sup.shutdown(reason="second call must be a no-op")
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert "error" in outcome, "shutdown did not interrupt the decode"
        for name, proc in sup.processes.items():
            assert proc.poll() is not None, f"{name} survived shutdown"
        events = read_trace_file(tmp_path / "supervisor.trace.jsonl")
        requested = [e for e in events if e.event == "shutdown_requested"]
        assert [e.data["reason"] for e in requested] == ["session cancelled"]
