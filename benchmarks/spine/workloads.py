"""The five workloads of the measurement spine.

Each ``run_*`` function executes in its own child process (see
``child.py``), takes a built :class:`~fixtures.Fixture` and returns a
:class:`Result`: per-repeat samples of the end-to-end metrics (untraced),
or — with ``trace`` set — the per-layer metrics of one traced pass.
Every output is compared with the sequential reference digest; what does
not match counts as failed.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.runtime import ClusterSupervisor, WallConfig
from repro.mpeg2 import plan_codec
from repro.mpeg2.decoder import Decoder
from repro.mpeg2.parser import PictureScanner
from repro.parallel.mb_splitter import MacroblockSplitter
from repro.parallel.threaded import ThreadedParallelDecoder
from repro.perf.trace import read_trace_file
from repro.service import ServiceClient, ServiceConfig, WallService
from repro.service.daemon import TRACE_FILE
from repro.wall.broadcast import WallBroadcaster, decode_margins
from repro.wall.config import WallSpec
from repro.wall.layout import TileLayout
from repro.wall.receiver import WallReceiver
from repro.workloads.streams import StreamSpec

import layers
from fixtures import GOP_SIZE, Fixture, digest_frames
from tracing import SpanRecorder
from yardstick import Yardstick

# Constants of the benchmark: never derived at run time.
# GOPs per job, one cycle.  A one-GOP job samples batch latency, the
# longest job of the cycle samples throughput.  The sequential decoder has
# no fixed cost, so its one-GOP jobs (~2 s) serve as both.  The cluster
# pays ~2.5 s of spawn per job: it needs the 18-picture stream to show its
# steady rate, and three short jobs because spawn time has a heavy tail.
SEQ_CYCLE = (1,)
CLUSTER_CYCLE = (1, 1, 3, 1)
CLUSTER_LONG_R = max(CLUSTER_CYCLE)
CLUSTER = dict(m=2, n=1, k=1, transport="unix", pin_cores=True)
THREADED_CYCLE = (1, 4)
THREADED_LONG_R = max(THREADED_CYCLE)
THREADED_GRID = (2, 2)
# The threaded decoder runs on ONE core here.  Under the GIL its six
# threads use 1.0-1.17 cores, and given two cores it is *slower* (16.4 fps
# at 0.071 CPU-s/frame against 17.5 at 0.057 on one): every hand-over
# crosses cores.  Worse for a ruler, the kernel keeps the threads together
# or spreads them for minutes at a time, so the same code reads either pair
# of numbers depending on when it is run.
THREADED_CORES = 1
WALL_GRID = (2, 1)  # cols, rows
WALL_TILES = WALL_GRID[0] * WALL_GRID[1]
# Pictures/s.  Capacity on the seed is ~20 /s after a pause and ~15 /s once
# the box has been loaded for some minutes (it slows under sustained load),
# so this is 40-55 % of it: close to saturation latency is set by the
# queue, not the program, and swings by a factor of two.
WALL_RATE = 8.0
WALL_PHASES = 3  # per repeat: an unpaced burst, then a paced phase, each time
WALL_BURST_R = 4  # a burst is a capacity sample: 24 pictures, ~1.2 s
WALL_BURST_S = 1.0  # share of a run's seconds one burst takes
WALL_ON_TIME_S = 0.250
# One session per client connection.  The two rates differ so that the
# sessions' picture clocks drift through every relative phase every two
# seconds: at equal rates the phase is whatever the two submits' timing
# left it, and latency reads 8 ms or 14 ms depending on whether the two
# sessions' pictures come due together (measured on the seed at 24 fps).
# At 24 + 25 fps the pool runs at 37-75 % depending on the box's mood and
# sheds B-pictures in its slow periods; at half that it never does.
SERVICE_FPS = (12.0, 12.5)
SERVICE_PHASE_S = 4.0  # playout of one pair of sessions: two beats of the two clocks
# The ladder's rungs, in frame periods (program default: 1, 3, 6).  One
# period is 83 ms here, and about once in 100 s the host stalls the VM for
# longer than that; at the default each stall sheds a B-picture, and a
# shed picture is a failed session to the digest gate.
SERVICE_LADDER = (4.0, 8.0, 16.0)
JOB_TIMEOUT_S = 120.0


@dataclass
class Context:
    fixture: Fixture
    workdir: Path  # scratch inside the checkout, removed by run.py
    seconds: float
    repeats: Optional[int]  # fixed repeat count; None = fill ``seconds``
    cores: int
    yardstick: Yardstick  # sampled between timed intervals, see Result.at_nominal_speed
    spans_out: Optional[Path] = None


@dataclass
class Result:
    # end-to-end metric -> its samples, one per timed job or phase
    samples: Dict[str, List[float]] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)  # traced pass
    attempted: int = 0
    failed: int = 0
    #: metrics the schedule sets, not the host's speed: reported as measured
    paced: tuple = ()

    def add(self, **values: float) -> None:
        for key, value in values.items():
            self.samples.setdefault(key, []).append(value)

    def at_nominal_speed(self, speed: float) -> Dict[str, List[float]]:
        """The samples as they would read on a box of speed 1.0 (see
        ``yardstick.py``): seconds scale with the host's speed, rates
        against it."""
        scale = {"fps": 1.0 / speed, "cpu_s_per_frame": speed, "latency_p50_ms": speed}
        return {
            key: values if key in self.paced else [v * scale[key] for v in values]
            for key, values in self.samples.items()
        }

    def check(self, n_expected: int, ok: bool) -> bool:
        self.attempted += n_expected
        if not ok:
            self.failed += n_expected
        return ok


def cpu_seconds() -> float:
    """user + sys of this process and its reaped children.  ``getrusage``
    and not ``os.times()``: the same clocks, without the 10 ms tick."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus the largest reaped child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def gop_latency_ms(latencies: Dict[tuple, float]) -> float:
    """``latency_p50_ms`` of a paced run from ``{(stream, picture): s}``.

    The median within each GOP (every picture type in its fixed
    proportion), then the median across GOPs: a stall moves one sample,
    not the result.  Pooled, the median sits where the B/P cluster ends and
    the tail of I-pictures and collisions begins, and jumps with a handful
    of samples; the mean within a GOP carries that tail into every sample
    (run-to-run spread on the seed: 4 % this way, 5 % pooled, 11 % by mean)."""
    by_gop: Dict[tuple, List[float]] = {}
    for (stream, picture), latency in latencies.items():
        by_gop.setdefault((stream, picture // GOP_SIZE), []).append(latency)
    return 1e3 * statistics.median(statistics.median(v) for v in by_gop.values())


def _enough(t_begin: float, done: int, ctx: Context) -> bool:
    """Stop after ``repeats``, or once another repeat would overrun
    ``seconds`` by more than a tenth."""
    if ctx.repeats is not None:
        return done >= ctx.repeats
    elapsed = time.perf_counter() - t_begin
    return elapsed + elapsed / done > 1.1 * ctx.seconds


# --------------------------------------------------------------------- #
# closed loop: seq-1080p, cluster-1080p, threaded-detail
# --------------------------------------------------------------------- #


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    ok: bool


def _timed_job(
    decode: Callable[[bytes], list], stream: bytes, n_frames: int, digest: str, res: Result
) -> Job:
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        frames = decode(stream)
    except Exception as exc:  # noqa: BLE001 - a failed job is a counted failure
        print(f"job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        frames = []
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    settle = getattr(decode, "settle", None)
    if settle is not None:
        settle()  # untimed housekeeping
    ok = len(frames) == n_frames and digest_frames(frames).hexdigest() == digest
    return Job(wall, cpu, res.check(n_frames, ok))


def _closed_loop(
    decode: Callable[[bytes], list], cycle: tuple, ctx: Context, warm_up: bool = True
) -> Result:
    """Run ``cycle`` (GOPs per job) over and over, each job through a cold
    object.  A one-GOP job is a sample of the batch latency — time from
    input to complete result, which carries every fixed cost; the longest
    job of the cycle is a sample of throughput and CPU cost."""
    fx, res = ctx.fixture, Result()
    jobs = {r: (fx.repeated(r), fx.reference_digest(r)) for r in set(cycle)}
    if warm_up:
        _sequential(fx.stream)  # allocator, imports, page cache
    ctx.yardstick.sample()
    t_begin, cycles = time.perf_counter(), 0
    while True:
        for r in cycle:
            stream, digest = jobs[r]
            n = GOP_SIZE * r
            job = _timed_job(decode, stream, n, digest, res)
            ctx.yardstick.sample()
            if job.ok and r == 1:
                res.add(latency_p50_ms=1e3 * job.wall_s)
            if job.ok and r == max(cycle):
                res.add(fps=n / job.wall_s, cpu_s_per_frame=job.cpu_s / n)
        cycles += 1
        if _enough(t_begin, cycles, ctx):
            return res


def _sequential(stream: bytes) -> list:
    return Decoder().decode(stream)


class _Cluster:
    """``ClusterSupervisor.decode`` with its run directory and shm pool
    inside the benchmark's scratch directory.

    The driver's contract confines a contracted run to its checkout, so the
    pool's segments are files mapped from the checkout's filesystem, not
    from the program's default ``/dev/shm``.  ``--ablations`` measures that
    difference (``ablation.checkout_shm_fps_ratio``)."""

    def __init__(self, workdir: Path, **overrides):
        self.workdir = workdir
        self.flags = {"shm_dir": str(workdir), **overrides}
        self.runs = 0
        # off the most recent run's trace, see settle()
        self.pool_exhausted = 0
        self.wire_bytes = 0
        self.handle_bytes = 0
        self._sup: Optional[ClusterSupervisor] = None

    def __call__(self, stream: bytes) -> list:
        self.runs += 1
        cfg = WallConfig(**CLUSTER, **self.flags)
        self._sup = ClusterSupervisor(cfg, trace_dir=str(self.workdir / f"c{self.runs}"))
        return self._sup.decode(stream, timeout=JOB_TIMEOUT_S)

    def settle(self) -> None:
        """Read the run's pool fallbacks and its channels' byte counters off
        its trace, then drop the run directory — kept out of the timed call."""
        sup, self._sup = self._sup, None
        if sup is None or sup.rundir is None:
            return
        if sup.merged_trace_path is not None and sup.merged_trace_path.exists():
            events = read_trace_file(sup.merged_trace_path, strict=False)
            self.pool_exhausted = sum(
                e.data.get("exhausted", 0) for e in events if e.event == "pool_stats"
            )
            # ``stats`` events carry each process's Channel counters as
            # running totals: the last one per process is the run's total.
            last = {e.proc: e.data.get("channels", {}) for e in events if e.event == "stats"}
            counters = [c for channels in last.values() for c in channels.values()]
            self.wire_bytes = sum(c["sent_bytes"] for c in counters)
            self.handle_bytes = sum(c["handle_bytes"] for c in counters)
        shutil.rmtree(sup.rundir, ignore_errors=True)


def _threaded(fx: Fixture) -> Callable[[bytes], list]:
    layout = TileLayout(fx.spec.width, fx.spec.height, *THREADED_GRID)

    def decode(stream: bytes) -> list:
        return ThreadedParallelDecoder(layout, k=1).decode(stream, timeout=JOB_TIMEOUT_S)

    return decode


def run_seq(ctx: Context) -> Result:
    return _closed_loop(_sequential, SEQ_CYCLE, ctx)


def run_cluster(ctx: Context) -> Result:
    # No warm-up: every job's workers are fresh processes, and a 1080p
    # decode in the supervisor would be what peak_rss_mb reports.
    return _closed_loop(_Cluster(ctx.workdir), CLUSTER_CYCLE, ctx, warm_up=False)


def _threaded_cores(ctx: Context) -> None:
    """Confine this process to THREADED_CORES cores (see there)."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:THREADED_CORES])
    ctx.cores = len(os.sched_getaffinity(0))


def run_threaded(ctx: Context) -> Result:
    _threaded_cores(ctx)
    return _closed_loop(_threaded(ctx.fixture), THREADED_CYCLE, ctx)


# ------------------------------ traced ------------------------------- #


def _dump(rec: SpanRecorder, ctx: Context) -> None:
    if ctx.spans_out is not None:
        rec.dump(ctx.spans_out)


def trace_seq(ctx: Context) -> Result:
    """Alternate the untraced call and its traced replay on one GOP."""
    fx, res = ctx.fixture, Result()
    digest = fx.reference_digest(1)
    _sequential(fx.stream)
    coverage, overhead, rows = [], [], []
    t_begin = time.perf_counter()
    while True:
        plain = _timed_job(_sequential, fx.stream, GOP_SIZE, digest, res)
        rec = SpanRecorder()
        t0 = time.perf_counter()
        frames, metrics = layers.replay_sequential(fx.stream, rec)
        traced_s = time.perf_counter() - t0
        res.check(GOP_SIZE, digest_frames(frames).hexdigest() == digest)
        coverage.append(layers.waterfall_coverage_pct(rec, plain.wall_s))
        overhead.append(100.0 * (traced_s - plain.wall_s) / plain.wall_s)
        rows.append(metrics)
        if _enough(t_begin, len(rows), ctx):
            break
    _dump(rec, ctx)
    res.layer = _median_rows(rows)
    res.layer["waterfall.coverage_pct"] = statistics.median(coverage)
    res.layer["trace.overhead_pct"] = statistics.median(overhead)
    return res


def _median_rows(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _model_residual(layer: Dict[str, float], measured_fps: float) -> None:
    layer["model.measured_fps"] = measured_fps
    layer["model.residual_pct"] = (
        100.0 * (layer["model.fps_pred"] - measured_fps) / measured_fps
    )


def trace_cluster(ctx: Context) -> Result:
    fx, res = ctx.fixture, Result()
    layout = TileLayout(fx.spec.width, fx.spec.height, CLUSTER["m"], CLUSTER["n"])
    cluster = _Cluster(ctx.workdir)
    n_long = GOP_SIZE * CLUSTER_LONG_R
    start = _timed_job(cluster, fx.stream, GOP_SIZE, fx.reference_digest(1), res)
    pool_exhausted = cluster.pool_exhausted
    wire_bytes, handle_bytes = cluster.wire_bytes, cluster.handle_bytes
    long_ = _timed_job(
        cluster, fx.repeated(CLUSTER_LONG_R), n_long,
        fx.reference_digest(CLUSTER_LONG_R), res,
    )
    _sequential(fx.stream)
    seq = _timed_job(_sequential, fx.stream, GOP_SIZE, fx.reference_digest(1), res)

    rec = SpanRecorder()
    frames, layer = layers.replay_tiled(fx.stream, layout, rec, ctx.cores, CLUSTER["k"])
    res.check(GOP_SIZE, digest_frames(frames).hexdigest() == fx.reference_digest(1))
    _dump(rec, ctx)

    sequence, pictures = PictureScanner(fx.stream).scan()
    plan = MacroblockSplitter(sequence, layout).split_plans(pictures[0], 0).plans[0]
    layer.update(layers.measure_channel(plan_codec.encode_plan(plan)))
    tile = layout.tile(0).partition
    crop_bytes = (tile.x1 - tile.x0) * (tile.y1 - tile.y0) * 3 // 2
    layer.update(layers.measure_pool(ctx.workdir, crop_bytes))
    # the one-GOP job's own counters (the long job ran after it)
    layer["pool.exhausted"] = pool_exhausted
    layer["pool.handle_bytes"] = handle_bytes
    layer["channel.bytes"] = wire_bytes

    # the fixed cost is what the long job's extra pictures do not explain
    steady_s = (long_.wall_s - start.wall_s) / (n_long - GOP_SIZE)
    fps, seq_fps = n_long / long_.wall_s, GOP_SIZE / seq.wall_s
    layer["cluster.startup_s"] = start.wall_s
    layer["cluster.fixed_s"] = start.wall_s - GOP_SIZE * steady_s
    layer["cluster.steady_fps"] = 1.0 / steady_s
    layer["cluster.speedup_vs_seq"] = fps / seq_fps
    layer["cluster.parallel_efficiency"] = (seq.cpu_s / GOP_SIZE) / (long_.cpu_s / n_long)
    _model_residual(layer, 1.0 / steady_s)
    res.layer = layer
    return res


def trace_threaded(ctx: Context) -> Result:
    fx, res = ctx.fixture, Result()
    _threaded_cores(ctx)
    layout = TileLayout(fx.spec.width, fx.spec.height, *THREADED_GRID)
    decode = _threaded(fx)
    stream, n = fx.repeated(THREADED_LONG_R), GOP_SIZE * THREADED_LONG_R
    digest = fx.reference_digest(THREADED_LONG_R)
    decode(fx.stream)
    job = _timed_job(decode, stream, n, digest, res)
    rec = SpanRecorder()
    frames, layer = layers.replay_tiled(stream, layout, rec, ctx.cores)
    res.check(n, digest_frames(frames).hexdigest() == digest)
    _dump(rec, ctx)
    _model_residual(layer, n / job.wall_s)
    res.layer = layer
    return res


# --------------------------------------------------------------------- #
# wall-paced: open loop through net.bcast to two in-process receivers
# --------------------------------------------------------------------- #


def crop_digest(frames, layout: TileLayout, tid: int) -> str:
    """SHA-256 over tile ``tid``'s partition crop (y, cb, cr) of every
    frame, display order — what a ``WallReceiver`` reports as ``digest``."""
    p = layout.tile(tid).partition
    h = hashlib.sha256()
    for f in frames:
        h.update(np.ascontiguousarray(f.y[p.y0 : p.y1, p.x0 : p.x1]))
        for plane in (f.cb, f.cr):
            h.update(
                np.ascontiguousarray(plane[p.y0 // 2 : p.y1 // 2, p.x0 // 2 : p.x1 // 2])
            )
    return h.hexdigest()


@dataclass
class WallRun:
    wall_s: float  # first publish -> last frame shown on the slowest tile
    cpu_s: float
    latencies: Dict[tuple, float]  # (tile, frame) -> s since the publish was due
    late: List[float]  # how late the generator published each picture
    summaries: Dict[int, dict]
    stats: dict


def _wall_run(
    fx: Fixture, r: int, rate: Optional[float], ctx: Context, tag: str, res: Result,
    rec: Optional[SpanRecorder] = None,
) -> WallRun:
    """Publish ``r`` GOPs at ``rate`` pictures/s (None: as fast as the
    sender accepts) and stamp every frame each tile shows."""
    n = GOP_SIZE * r
    wall = WallSpec(cols=WALL_GRID[0], rows=WALL_GRID[1], name="spine")
    bc = WallBroadcaster(
        fx.repeated(r), wall, ("unix", str(ctx.workdir / f"{tag}.sock")),
        fps=rate or 30.0,
    )
    shown: Dict[int, List[float]] = {t: [] for t in range(WALL_TILES)}
    summaries: Dict[int, dict] = {}

    def receive(tid: int) -> None:
        def on_frame(idx: int, frame) -> None:
            shown[tid].append(time.perf_counter())

        with WallReceiver(bc.control_address, tid, name=f"t{tid}", on_frame=on_frame) as rx:
            summaries[tid] = rx.run(max_wall_s=JOB_TIMEOUT_S)

    threads = [threading.Thread(target=receive, args=(t,)) for t in range(WALL_TILES)]
    try:
        for t in threads:
            t.start()
        bc.sender.wait_subscribers(WALL_TILES, timeout=20.0)
        due_at: List[float] = []
        late: List[float] = []
        c0, t0 = cpu_seconds(), time.perf_counter()
        bc.publish_sequence()
        for i in range(n + 1):  # picture n is the end-of-stream record
            due = t0 + i / rate if rate else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            due_at.append(due)
            if i == n:
                bc.publish_end()
                break
            late.append(time.perf_counter() - due)
            if rec is not None:
                with rec.span("bcast.publish", i):
                    bc.publish_picture(i)
            else:
                bc.publish_picture(i)
        for t in threads:
            t.join(timeout=JOB_TIMEOUT_S)
        t_end = max((s[-1] for s in shown.values() if s), default=time.perf_counter())
        cpu = cpu_seconds() - c0
        stats = bc.stats()
    finally:
        bc.close()

    layout = wall.to_layout(fx.spec.width, fx.spec.height)
    latencies: Dict[tuple, float] = {}
    for tid in range(WALL_TILES):
        s = summaries.get(tid, {})
        ok = (
            s.get("state") == "done"
            and len(shown[tid]) == n
            and s.get("digest") == crop_digest(fx.frames * r, layout, tid)
        )
        res.check(n, ok)
        # frame k is released by coded picture k+1 (the last by W_END)
        latencies.update({(tid, k): t - due_at[k + 1] for k, t in enumerate(shown[tid][:n])})
    return WallRun(t_end - t0, cpu, latencies, late, summaries, stats)


def _wall_paced_r(ctx: Context) -> int:
    """GOPs in one paced phase: its share of what the bursts leave of the
    run's seconds, at WALL_RATE pictures/s."""
    paced_s = max(1.0, ctx.seconds / WALL_PHASES - WALL_BURST_S)
    return max(1, round(WALL_RATE * paced_s / GOP_SIZE))


def run_wall(ctx: Context) -> Result:
    """A repeat alternates unpaced bursts (capacity) and paced phases
    (latency, CPU), a yardstick sample after each, and pools them: frames
    over seconds of all its bursts, every GOP of all its paced phases."""
    fx, res = ctx.fixture, Result()
    paced_r = _wall_paced_r(ctx)
    _wall_run(fx, 1, None, ctx, "w0", Result())  # warm-up
    ctx.yardstick.sample()
    t_begin, repeats = time.perf_counter(), 0
    while True:
        burst_s = paced_cpu_s = 0.0
        latencies: Dict[tuple, float] = {}
        for phase in range(WALL_PHASES):
            tag = f"{repeats}.{phase}"
            burst_s += _wall_run(fx, WALL_BURST_R, None, ctx, "u" + tag, res).wall_s
            ctx.yardstick.sample()
            paced = _wall_run(fx, paced_r, WALL_RATE, ctx, "p" + tag, res)
            ctx.yardstick.sample()
            paced_cpu_s += paced.cpu_s
            latencies.update(
                {((phase, tile), k): v for (tile, k), v in paced.latencies.items()}
            )
        res.add(
            fps=WALL_PHASES * GOP_SIZE * WALL_BURST_R / burst_s,
            latency_p50_ms=gop_latency_ms(latencies),
            cpu_s_per_frame=paced_cpu_s / (WALL_PHASES * GOP_SIZE * paced_r),
        )
        repeats += 1
        if _enough(t_begin, repeats, ctx):
            return res


def trace_wall(ctx: Context) -> Result:
    fx, res = ctx.fixture, Result()
    paced_r = WALL_PHASES * _wall_paced_r(ctx)  # one phase, as long as a run's three
    n = GOP_SIZE * paced_r
    _wall_run(fx, 1, None, ctx, "w0", Result())
    rec = SpanRecorder()
    paced = _wall_run(fx, paced_r, WALL_RATE, ctx, "p", res, rec)
    layer = {
        "bcast.publish_us": 1e6 * statistics.median(rec.durations("bcast.publish")),
        "bcast.encodes_per_record": paced.stats["encodes"] / (n + 2),  # + W_SEQ, W_END
        "bcast.bytes": paced.stats["encoded_bytes"],
        "loadgen.late_p95_ms": 1e3 * layers.percentile(paced.late, 95),
        "receiver.latency_p95_ms": 1e3 * layers.percentile(paced.latencies.values(), 95),
        "receiver.lag_max_ms": 1e3 * max(paced.latencies.values()),
        "paced.on_time_frac": sum(1 for x in paced.latencies.values() if x <= WALL_ON_TIME_S)
        / (n * WALL_TILES),
    }
    for key in ("dropped_tuning", "dropped_gap", "dropped_late"):
        layer[f"receiver.{key}"] = sum(s.get(key, 0) for s in paced.summaries.values())

    # receiver data path, off the network: both tiles over one GOP
    layout = TileLayout(fx.spec.width, fx.spec.height, *WALL_GRID)
    _, pictures = PictureScanner(fx.stream).scan()
    margins = decode_margins(pictures)
    bits = 0
    for tid in range(WALL_TILES):
        frames, m = layers.replay_wall_tile(fx.stream, layout, tid, margins, rec)
        bits += m["bits"]
        res.check(
            GOP_SIZE, crop_digest(frames, layout, tid) == crop_digest(fx.frames, layout, tid)
        )
    layer["parser.parse_s"] = rec.total("parser.parse")
    layer["parser.parse_ns_per_bit"] = 1e9 * layer["parser.parse_s"] / bits
    layer["receiver.reconstruct_s"] = rec.total("receiver.reconstruct")
    _dump(rec, ctx)
    res.layer = layer
    return res


# --------------------------------------------------------------------- #
# service-paced: two sessions through admission, scheduler, pacer
# --------------------------------------------------------------------- #


@dataclass
class ServiceRun:
    wall_s: float
    cpu_s: float
    latencies: Dict[tuple, float]  # (sid, picture) -> decode end - pacer gate, s
    submit_rtt: List[float]
    finals: List[dict]
    offered: int  # pictures submitted, all sessions
    released: int
    playout_s: float  # the longest session's ideal duration


def _service_run(fx: Fixture, seconds: float, ctx: Context, tag: str, res: Result) -> ServiceRun:
    """Submit one session of ``seconds`` of playout per rate in
    SERVICE_FPS, each over its own connection, and wait for all."""
    rundir = ctx.workdir / tag
    rundir.mkdir()
    config = ServiceConfig(workers=2, enter_levels=SERVICE_LADDER)
    gops = [max(1, round(fps * seconds / GOP_SIZE)) for fps in SERVICE_FPS]
    rtts: List[float] = [0.0] * len(SERVICE_FPS)
    finals: List[Optional[dict]] = [None] * len(SERVICE_FPS)

    def client(i: int) -> None:
        spec = StreamSpec(
            sid=900 + i, name=fx.name, width=fx.spec.width, height=fx.spec.height,
            fps=SERVICE_FPS[i], bpp=0.3, motion_pixels=2.0, n_frames=GOP_SIZE * gops[i],
            gop_size=GOP_SIZE, b_frames=2, content=fx.spec.generator,
        )
        with ServiceClient(rundir) as c:
            t0 = time.perf_counter()
            reply = c.submit(spec, stream=fx.repeated(gops[i]), name=f"s{i}")
            rtts[i] = time.perf_counter() - t0
            if "sid" in reply:
                finals[i] = c.wait(reply["sid"], timeout=JOB_TIMEOUT_S)

    with WallService(rundir, config) as service:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(SERVICE_FPS))]
        c0, t0 = cpu_seconds(), time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=JOB_TIMEOUT_S + 10)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        pacers = {sid: session.pacer for sid, session in service.sessions.items()}

    released = 0
    for f, r in zip(finals, gops):
        ok = (
            f is not None
            and f["state"] == "completed"
            and f["released"] == GOP_SIZE * r
            and f["output_digest"] == fx.reference_digest(r)
        )
        res.check(GOP_SIZE * r, ok)
        released += f["released"] if f else 0

    # Per-picture latency the way the session measures it — decode end
    # minus the pacer's gate — but at full resolution: span ends from the
    # service's trace (wall clock) against each session's own pacer
    # (monotonic clock), where the reply carries a coarse histogram.
    to_monotonic = time.monotonic() - time.time()
    open_span: Dict[str, tuple] = {}
    latencies: Dict[tuple, float] = {}
    for e in read_trace_file(rundir / TRACE_FILE, strict=False):
        if e.event != "decode":
            continue
        if e.data.get("ph") == "B":
            open_span[e.data["tid"]] = (e.data["sid"], e.picture)
        elif e.data.get("ph") == "E":
            sid, pic = open_span.pop(e.data["tid"])
            latencies[sid, pic] = e.ts + to_monotonic - pacers[sid].gate_time(pic)
    shutil.rmtree(rundir, ignore_errors=True)
    return ServiceRun(
        wall, cpu, latencies, rtts, [f for f in finals if f],
        offered=GOP_SIZE * sum(gops), released=released,
        playout_s=max(GOP_SIZE * r / fps for r, fps in zip(gops, SERVICE_FPS)),
    )


def run_service(ctx: Context) -> Result:
    # fps is what the two sessions' clocks release: the host's speed does
    # not move it until the pool saturates, so it is reported as measured.
    fx, res = ctx.fixture, Result(paced=("fps",))
    _service_run(fx, 0.25, ctx, "s0", Result())  # warm-up
    ctx.yardstick.sample()
    phase_s = min(SERVICE_PHASE_S, ctx.seconds)
    phases = max(1, round(ctx.seconds / phase_s))
    t_begin, repeats = time.perf_counter(), 0
    while True:
        repeats += 1
        wall_s = cpu_s = 0.0
        released = 0
        latencies: Dict[tuple, float] = {}
        for phase in range(phases):  # pooled: one sample of each metric per repeat
            run = _service_run(fx, phase_s, ctx, f"s{repeats}.{phase}", res)
            ctx.yardstick.sample()
            wall_s, cpu_s, released = wall_s + run.wall_s, cpu_s + run.cpu_s, released + run.released
            latencies.update({((phase, sid), k): v for (sid, k), v in run.latencies.items()})
        if released and latencies:
            res.add(
                fps=released / wall_s,
                latency_p50_ms=gop_latency_ms(latencies),
                cpu_s_per_frame=cpu_s / released,
            )
        if _enough(t_begin, repeats, ctx):
            return res


def trace_service(ctx: Context) -> Result:
    fx, res = ctx.fixture, Result()
    _service_run(fx, 0.25, ctx, "s0", Result())
    run = _service_run(fx, ctx.seconds, ctx, "s1", res)
    late = sum(f["late_frames"] for f in run.finals)
    layer = {
        "service.submit_rtt_ms": 1e3 * statistics.median(run.submit_rtt),
        "service.latency_p50_ms": statistics.median(f["latency_p50_ms"] for f in run.finals),
        "service.latency_p95_ms": max(f["latency_p95_ms"] for f in run.finals),
        "service.late_frames": late,
        "service.drops": sum(f["dropped_b"] + f["dropped_p"] for f in run.finals),
        "service.peak_degrade_level": max(f["peak_degrade_level"] for f in run.finals),
        "service.overrun_s": run.wall_s - run.playout_s,
        "paced.on_time_frac": (run.released - late) / run.offered,
    }
    rec = SpanRecorder()
    frames, m = layers.replay_session(fx.stream, rec)
    res.check(GOP_SIZE, digest_frames(frames).hexdigest() == fx.reference_digest(1))
    layer.update(m)
    _dump(rec, ctx)
    res.layer = layer
    return res


# --------------------------------------------------------------------- #
# ablations (outside the contracted run): cluster-1080p, one flag off
# --------------------------------------------------------------------- #

ABLATIONS = {
    "ablation.nopool_fps_ratio": {"use_shm_pool": False},
    "ablation.bitstream_fps_ratio": {"ship_plans": False},
    "ablation.notelemetry_fps_ratio": {"telemetry": False},
}
ABLATION_PAIRS = 3


def run_ablations(ctx: Context) -> Dict[str, dict]:
    """fps(variant) / fps(program default), alternating which side runs
    first.  Not a contracted run, so the baseline is the program as users
    run it: ``shm_dir=None``, the pool in ``/dev/shm``."""
    fx, res = ctx.fixture, Result()
    stream, n = fx.repeated(CLUSTER_LONG_R), GOP_SIZE * CLUSTER_LONG_R
    digest = fx.reference_digest(CLUSTER_LONG_R)
    default = _Cluster(ctx.workdir, shm_dir=None)
    default(fx.stream)
    default.settle()
    # the pool where a contracted run has to put it
    checkout_shm = {"ablation.checkout_shm_fps_ratio": {"shm_dir": str(ctx.workdir)}}
    out: Dict[str, dict] = {}
    for name, flags in {**ABLATIONS, **checkout_shm}.items():
        variant = _Cluster(ctx.workdir, **{"shm_dir": None, **flags})
        ratios = []
        for pair in range(ABLATION_PAIRS):
            order = (default, variant) if pair % 2 == 0 else (variant, default)
            wall = {id(d): _timed_job(d, stream, n, digest, res).wall_s for d in order}
            ratios.append(wall[id(default)] / wall[id(variant)])
        q = statistics.quantiles(ratios, n=4)
        out[name] = {"median": statistics.median(ratios), "q1": q[0], "q3": q[2], "runs": ratios}
    out["failed"] = res.failed
    return out


RUNNERS = {
    "seq-1080p": (run_seq, trace_seq),
    "cluster-1080p": (run_cluster, trace_cluster),
    "threaded-detail": (run_threaded, trace_threaded),
    "wall-paced": (run_wall, trace_wall),
    "service-paced": (run_service, trace_service),
}
