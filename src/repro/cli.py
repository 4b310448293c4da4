"""Command-line interface: ``python -m repro <command>``.

Commands
--------
encode    compress a .y4m clip (or a synthetic workload) to MPEG-2
decode    decode an MPEG-2 stream to .y4m with the sequential decoder
wall      decode in parallel on an m x n wall and verify bit-exactness
wall-broadcast  publish one stream to N wall receivers (one encode, any N)
wall-receive    subscribe one tile to a wall broadcast and decode it
run-cluster  decode on real OS processes over the socket transport
simulate  run the timed 1-k-(m,n) cluster simulation on a Table 4 stream
info      show stream structure (pictures, types, sizes)
trace-report  post-mortem a run directory: text report + Perfetto JSON
serve     run the multi-session wall-service daemon
submit    submit a decode session to a running wall service
sessions  list, cancel, or shut down wall-service sessions
fleet     sharded multi-daemon serving: gateway, status, drain
top       live fleet/daemon health dashboard (obs-plane scrape)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

# Each subcommand imports what it runs: building the parser (``--help``)
# loads neither numpy nor the codec.  The generator names are spelled out
# for that reason; tests/test_cli.py holds them to
# ``repro.workloads.synthetic.GENERATORS``.
SYNTHETIC_CHOICES = ("broadcast", "detail", "fish", "pattern")


def _load_frames(args) -> list:
    if args.input:
        from repro.mpeg2.video_io import read_y4m

        return read_y4m(args.input)
    from repro.workloads.synthetic import GENERATORS

    gen = GENERATORS[args.synthetic]
    return gen(args.width, args.height, args.frames, seed=args.seed)


def _load_stream(path: str) -> bytes:
    """Read an encoded stream; program streams are demuxed transparently."""
    data = Path(path).read_bytes()
    if data.startswith(b"\x00\x00\x01\xba"):
        from repro.mpeg2.systems import demux_program_stream

        data = demux_program_stream(data).video_es
    return data


def cmd_encode(args) -> int:
    from repro.mpeg2.encoder import Encoder, EncoderConfig

    frames = _load_frames(args)
    base = EncoderConfig(
        gop_size=args.gop, b_frames=args.b_frames, search_range=args.search_range
    )
    if args.bpp:
        from repro.mpeg2.ratecontrol import RateControlConfig, RateControlledEncoder

        enc = RateControlledEncoder(base, RateControlConfig(target_bpp=args.bpp))
        data = enc.encode(frames)
    else:
        data = Encoder(base).encode(frames)
    Path(args.output).write_bytes(data)
    bpp = 8 * len(data) / (frames[0].n_pixels * len(frames))
    print(
        f"encoded {len(frames)} frames {frames[0].width}x{frames[0].height} "
        f"-> {len(data)} bytes ({bpp:.3f} bpp) -> {args.output}"
    )
    return 0


def cmd_decode(args) -> int:
    from repro.mpeg2.decoder import decode_stream
    from repro.mpeg2.video_io import write_y4m

    stream = _load_stream(args.input)
    frames = decode_stream(stream)
    write_y4m(args.output, frames, fps=args.fps)
    print(f"decoded {len(frames)} frames -> {args.output}")
    return 0


def _wall_spec(args):
    """The :class:`~repro.wall.config.WallSpec` a wall verb should use:
    ``--wall-config`` JSON when given, else the -m/-n/--overlap flags."""
    from repro.wall.config import WallSpec

    if getattr(args, "wall_config", None):
        return WallSpec.load(args.wall_config)
    return WallSpec(
        cols=args.m, rows=args.n, overlap=getattr(args, "overlap", 0)
    )


def cmd_wall(args) -> int:
    from repro.mpeg2.decoder import decode_stream
    from repro.mpeg2.parser import PictureScanner
    from repro.mpeg2.video_io import write_y4m
    from repro.parallel.pipeline import ParallelDecoder

    stream = _load_stream(args.input)
    sequence, _ = PictureScanner(stream).scan()
    spec = _wall_spec(args)
    layout = spec.to_layout(sequence.width, sequence.height)
    pdec = ParallelDecoder(layout, k=args.k, verify_overlaps=True)
    wall_frames = pdec.decode(stream)
    if args.verify:
        reference = decode_stream(stream)
        worst = max(
            a.max_abs_diff(b) for a, b in zip(reference, wall_frames)
        )
        status = "bit-exact" if worst == 0 else f"MISMATCH (max diff {worst})"
        print(f"verification vs sequential decoder: {status}")
        if worst:
            return 1
    if args.output:
        write_y4m(args.output, wall_frames, fps=args.fps)
        print(f"wrote wall output -> {args.output}")
    s = pdec.stats
    print(
        f"1-{args.k}-({spec.cols},{spec.rows}): {len(wall_frames)} frames, "
        f"{s.exchange_count} block exchanges "
        f"({s.exchange_bytes / 1e3:.1f} kB), "
        f"SPH overhead {s.sph_overhead_fraction:.1%}"
    )
    return 0


def _bcast_control(args):
    if args.transport == "tcp":
        host, _, port = args.bind.partition(":")
        return ("tcp", host or "127.0.0.1", int(port or 0))
    return ("unix", args.bind)


def cmd_wall_broadcast(args) -> int:
    """Publish one stream to N wall receivers (one encode, any N)."""
    import json

    from repro.wall.broadcast import WallBroadcaster

    if args.input:
        stream = _load_stream(args.input)
    else:
        from repro.mpeg2.encoder import Encoder, EncoderConfig
        from repro.workloads.streams import stream_by_id

        spec = stream_by_id(args.stream)
        frames = spec.synthetic_frames(args.frames, max_width=args.max_width)
        cfg = EncoderConfig(gop_size=spec.gop_size, b_frames=spec.b_frames)
        stream = Encoder(cfg).encode(frames)
    wall = _wall_spec(args)
    bc = WallBroadcaster(
        stream,
        wall,
        _bcast_control(args),
        mode=args.mode,
        fps=args.fps,
        name=args.name,
    )
    print(
        f"broadcasting {len(bc.pictures)} pictures "
        f"({bc.sequence.width}x{bc.sequence.height}) to a "
        f"{wall.cols}x{wall.rows} wall at {bc.control_address}; "
        f"anchors: {bc.anchors}",
        flush=True,
    )
    from repro.net.channel import ChannelTimeout

    try:
        if args.wait_subscribers:
            try:
                bc.sender.wait_subscribers(
                    args.wait_subscribers, timeout=args.timeout
                )
            except ChannelTimeout as exc:
                print(f"timed out waiting for subscribers: {exc}", file=sys.stderr)
                return 1
        stats = bc.run(rate_fps=args.rate_fps or None)
        # Hold the channel open briefly so receivers can finish pulling
        # buffered records and file their final reports.
        import time as _time

        _time.sleep(args.linger)
        reports = bc.receiver_reports()
    finally:
        bc.close()
    print(json.dumps({"stats": stats, "receivers": reports}, indent=2))
    return 0


def cmd_wall_receive(args) -> int:
    """Run one tile's receiver against a wall broadcast."""
    import json

    from repro.wall.receiver import WallReceiver

    rx = WallReceiver(
        _bcast_control(args),
        args.tile,
        name=args.name or f"tile{args.tile}",
        use_clock=args.clock,
        connect_timeout=args.timeout,
    )
    print(
        f"subscribed tile {args.tile}: start_at={rx.start_at} "
        f"epoch={rx.rx.epoch}",
        flush=True,
    )
    with rx:
        summary = rx.run(max_wall_s=args.max_wall_s)
    if args.save_last and rx.last_frame is not None and rx.layout is not None:
        import numpy as np

        part = rx.layout.tile(args.tile).partition
        f = rx.last_frame
        np.savez(
            args.save_last,
            rect=np.array([part.x0, part.y0, part.x1, part.y1]),
            y=f.y[part.y0 : part.y1, part.x0 : part.x1],
            cb=f.cb[part.y0 // 2 : part.y1 // 2, part.x0 // 2 : part.x1 // 2],
            cr=f.cr[part.y0 // 2 : part.y1 // 2, part.x0 // 2 : part.x1 // 2],
        )
    text = json.dumps(summary, indent=2)
    if args.json_out:
        Path(args.json_out).write_text(text)
    print(text)
    return 0 if summary["state"] == "done" else 1


def cmd_run_cluster(args) -> int:
    from repro.cluster.runtime import ClusterError, ClusterSupervisor, WallConfig
    from repro.mpeg2.video_io import write_y4m

    stream = _load_stream(args.input)
    cfg = WallConfig(
        m=args.m,
        n=args.n,
        k=args.k,
        overlap=args.overlap,
        transport=args.transport,
        partition_policy=args.partition_policy,
        partition_ewma=args.partition_ewma,
    )
    sup = ClusterSupervisor(cfg, trace_dir=args.trace_dir)
    try:
        frames = sup.decode(stream, timeout=args.timeout)
    except ClusterError as exc:
        print(f"cluster failed: {exc}", file=sys.stderr)
        return 1
    if args.verify:
        from repro.mpeg2.decoder import decode_stream

        reference = decode_stream(stream)
        worst = max(a.max_abs_diff(b) for a, b in zip(reference, frames))
        status = "bit-exact" if worst == 0 else f"MISMATCH (max diff {worst})"
        print(f"verification vs sequential decoder: {status}")
        if worst:
            return 1
    if args.output:
        write_y4m(args.output, frames, fps=args.fps)
        print(f"wrote wall output -> {args.output}")
    st = sup.stage_times
    print(
        f"1-{cfg.k}-({cfg.m},{cfg.n}) on {1 + cfg.k + cfg.n_tiles} processes "
        f"({cfg.transport}): {len(frames)} frames, "
        f"decoder stage time {st.total:.2f}s across {st.pictures} tile-pictures"
    )
    if sup.merged_trace_path is not None:
        print(f"merged trace -> {sup.merged_trace_path}")
    if sup.perfetto_path is not None:
        print(f"perfetto timeline -> {sup.perfetto_path}")
    return 0


def cmd_trace_report(args) -> int:
    from repro.perf.export import build_report, render_report, write_chrome_trace
    from repro.perf.trace import merge_traces

    rundir = Path(args.rundir)
    if not rundir.is_dir():
        print(f"not a run directory: {rundir}", file=sys.stderr)
        return 2
    if args.follow:
        return _follow_trace(rundir, args)
    try:
        events = merge_traces(
            rundir, strict=not args.lenient, recursive=args.recursive
        )
    except (ValueError, KeyError) as exc:
        print(f"unparsable trace event in {rundir}: {exc}", file=sys.stderr)
        print("(re-run with --lenient to skip torn lines)", file=sys.stderr)
        return 1
    if not events:
        print(f"no *.trace.jsonl events found under {rundir}", file=sys.stderr)
        return 1

    json_path = Path(args.json) if args.json else rundir / "trace.perfetto.json"
    write_chrome_trace(events, json_path)

    text = render_report(build_report(events))
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report -> {args.out}")
    else:
        print(text, end="")
    print(f"perfetto timeline -> {json_path}  (open in ui.perfetto.dev)")
    return 0


def _follow_trace(rundir: Path, args) -> int:
    """``trace-report --follow``: re-merge the run directory's live trace
    streams every ``--interval`` seconds (always lenient — the writers
    are mid-line by definition) and redraw the report."""
    import time as _time

    from repro.perf.export import build_report, render_report
    from repro.perf.trace import merge_traces

    iterations = args.iterations
    shown = 0
    try:
        while True:
            events = merge_traces(rundir, strict=False, recursive=args.recursive)
            if iterations != 1:
                print("\x1b[2J\x1b[H", end="")
            if events:
                print(render_report(build_report(events)), end="")
            else:
                print(f"(no trace events yet under {rundir})")
            shown += 1
            if iterations and shown >= iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(
        Path(args.rundir),
        transport=args.transport,
        interval=args.interval,
        count=1 if args.once else args.count,
        clear=not (args.once or args.no_clear),
    )


def cmd_simulate(args) -> int:
    from repro.parallel.system import TimedSystem
    from repro.wall.layout import TileLayout
    from repro.workloads.streams import stream_by_id

    spec = stream_by_id(args.stream)
    layout = TileLayout(
        spec.width, spec.height, args.m, args.n, overlap=args.overlap
    )
    res = TimedSystem(
        spec,
        layout,
        k=args.k,
        n_frames=args.frames,
        tiles_per_node=args.tiles_per_node,
    ).run()
    print(
        f"{res.label} on stream {spec.sid} ({spec.width}x{spec.height}): "
        f"{res.fps:.1f} fps, {res.pixel_rate_mpps:.0f} Mpixel/s"
    )
    fr = res.mean_breakdown().fractions()
    print(
        "decoder time: "
        + "  ".join(f"{k_} {v:.0%}" for k_, v in fr.items())
    )
    if args.bandwidth:
        for name, (s, r) in res.bandwidth.items():
            print(f"  {name:12s} send {s:6.2f} MB/s   recv {r:6.2f} MB/s")
    return 0


def cmd_info(args) -> int:
    from repro.mpeg2 import native_columns, native_execute, native_walk
    from repro.mpeg2.parser import MacroblockParser, PictureScanner

    stream = _load_stream(args.input)
    sequence, pictures = PictureScanner(stream).scan()
    print(
        f"{sequence.width}x{sequence.height} @ {sequence.frame_rate:g} fps, "
        f"{len(pictures)} coded pictures, {len(stream)} bytes"
    )
    print(f"parse engine: {native_walk.engine()}")
    print(f"execute engine: {native_execute.engine()}")
    print(f"columns engine: {native_columns.engine()}")
    if args.pictures:
        parser = MacroblockParser(sequence)
        for unit in pictures:
            p = parser.parse_picture(unit.data)
            print(
                f"  #{unit.coded_index:3d} {p.header.picture_type.name} "
                f"tref={p.header.temporal_reference:3d} "
                f"{unit.size_bytes:6d} B  coded={p.n_coded:4d} "
                f"skipped={p.n_skipped}"
            )
    return 0


def cmd_report(args) -> int:
    from repro.perf.report import generate_report

    text = generate_report(n_frames=args.frames)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote report -> {args.output}")
    else:
        print(text)
    return 0


def cmd_validate(args) -> int:
    from repro.mpeg2.validate import validate_stream

    report = validate_stream(Path(args.input).read_bytes())
    for f in report.findings:
        print(f)
    print(
        f"{report.pictures} pictures, {report.macroblocks} macroblocks: "
        + ("OK" if report.ok else f"{len(report.errors())} error(s)")
    )
    return 0 if report.ok else 1


def cmd_streams(args) -> int:
    from repro.workloads.streams import table4_rows

    for r in table4_rows():
        print(
            f"{r['stream']:3d} {r['name']:8s} {r['resolution']:>10s} "
            f"{r['avg_frame_bytes']:>8d} B/frame  {r['bpp']:.2f} bpp  "
            f"{r['bit_rate_mbps']:6.1f} Mb/s"
        )
    return 0


def cmd_serve(args) -> int:
    from repro.service import ServiceConfig, WallService

    cfg = ServiceConfig(
        capacity_mpps=args.capacity,
        workers=args.workers,
        queue_slots=args.queue_slots,
        transport=args.transport,
        lookahead=args.lookahead,
        telemetry=not args.no_telemetry,
        metrics_port=args.metrics_port,
    )
    svc = WallService(Path(args.rundir), cfg)
    svc.start()
    print(
        f"wall service up: rundir={args.rundir} transport={cfg.transport} "
        f"capacity={cfg.capacity_mpps} Mpixel/s workers={cfg.workers}"
    )
    try:
        svc.serve_forever()
    finally:
        svc.stop()
        print("wall service stopped")
    return 0


def cmd_submit(args) -> int:
    import json as _json

    from repro.service import ServiceClient
    from repro.workloads.streams import stream_by_id

    spec = stream_by_id(args.stream)
    stream = _load_stream(args.input) if args.input else b""
    wall = None
    if args.wall:
        from repro.wall.config import WallSpec

        wall = WallSpec.load(args.wall).to_dict()
    with ServiceClient(Path(args.rundir), transport=args.transport) as client:
        reply = client.submit(
            spec,
            stream=stream,
            name=args.name,
            weight=args.weight,
            slowdown_s=args.slowdown,
            n_frames=args.frames,
            kind="broadcast" if args.broadcast else "decode",
            wall=wall,
            rate_fps=args.rate_fps or None,
        )
        admission = reply["admission"]
        print(_json.dumps(admission, indent=2, sort_keys=True))
        if "sid" not in reply:
            return 3  # structured rejection: reason + retry_after_s above
        sid = reply["sid"]
        print(f"session {sid} {admission['action']}")
        if "broadcast" in reply:
            print(_json.dumps(reply["broadcast"], indent=2, sort_keys=True))
        if args.wait:
            final = client.wait(sid, timeout=args.timeout)
            print(_json.dumps(final, indent=2, sort_keys=True))
            return 0 if final["state"] == "completed" else 1
    return 0


def cmd_sessions(args) -> int:
    from repro.service import ServiceClient

    with ServiceClient(Path(args.rundir), transport=args.transport) as client:
        if args.cancel is not None:
            reply = client.cancel(args.cancel, reason=args.reason)
            print(f"cancel {args.cancel}: {reply['cancelled']}")
            return 0
        if args.shutdown:
            client.shutdown(reason=args.reason)
            print("shutdown requested")
            return 0
        info = client.ping()
        print(
            f"service: {info['utilization']:.0%} of "
            f"{info['capacity_mpps']} Mpixel/s, {info['queued']} queued, "
            f"{info['workers']} workers, {info['leases']} leases"
        )
        rows = client.list_sessions()
        for s in sorted(rows, key=lambda r: r["sid"]):
            if s.get("kind") == "broadcast":
                print(
                    f"  [{s['sid']}] {s['name']:12s} {s['state']:10s} "
                    f"{s['processed']}/{s['pictures']} pics  "
                    f"broadcast subs {s['subscribers']}  "
                    f"encodes {s['encodes']}  repairs {s['repairs']}  "
                    f"gaps {s['gaps']}"
                )
                continue
            drops = s["dropped_b"] + s["dropped_p"]
            print(
                f"  [{s['sid']}] {s['name']:12s} {s['state']:10s} "
                f"{s['processed']}/{s['pictures']} pics  "
                f"drops {drops} (forced {s['forced_drops']})  "
                f"peak-level {s['peak_degrade_level']}  "
                f"p95 {s['latency_p95_ms']:.1f} ms"
            )
    return 0


def cmd_fleet_serve(args) -> int:
    from repro.fleet import FleetConfig, FleetGateway
    from repro.service import ServiceConfig

    svc = ServiceConfig(
        capacity_mpps=args.capacity,
        workers=args.workers,
        queue_slots=args.queue_slots,
    )
    cfg = FleetConfig(
        daemons=args.daemons,
        transport=args.transport,
        reliable_links=not args.no_reliable_links,
        service=svc,
    )
    gw = FleetGateway(Path(args.rundir), cfg)
    gw.start()
    print(
        f"fleet gateway up: rundir={args.rundir} daemons={cfg.daemons} "
        f"transport={cfg.transport} "
        f"capacity={cfg.daemons * svc.capacity_mpps:g} Mpixel/s total "
        f"(reliable links {'on' if cfg.reliable_links else 'off'})"
    )
    print(f"submit through it with: repro submit {args.rundir} --wait")
    try:
        gw.serve_forever()
    finally:
        gw.stop()
        print("fleet gateway stopped")
    return 0


def cmd_fleet_status(args) -> int:
    import json as _json

    from repro.service import ServiceClient

    with ServiceClient(Path(args.rundir), transport=args.transport) as client:
        info = client.ping()
        if args.json:
            print(_json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(
            f"gateway: {info.get('failovers', 0)} failover(s), "
            f"{info['active_demand_mpps']}/{info['capacity_mpps']} Mpixel/s "
            f"across {len(info.get('daemons', []))} daemon(s)"
        )
        for d in info.get("daemons", []):
            a = d.get("admission", {})
            flags = d["state"] + (", draining" if d.get("draining") else "")
            print(
                f"  {d['name']:10s} [{flags}]  "
                f"headroom {a.get('headroom_mpps', '?')} Mpixel/s  "
                f"queued {a.get('queued', '?')}/{a.get('queue_slots', '?')}"
            )
        rows = client.list_sessions()
        for s in sorted(rows, key=lambda r: r["sid"]):
            print(
                f"  [{s['sid']}] {s.get('name', '?'):12s} "
                f"{s.get('state', '?'):10s} on {s.get('daemon') or '-':10s} "
                f"failovers {s.get('failovers', 0)} "
                f"(dropped {s.get('failover_dropped', 0)} pics)"
            )
    return 0


def cmd_fleet_drain(args) -> int:
    from repro.service import ServiceClient

    with ServiceClient(Path(args.rundir), transport=args.transport) as client:
        verb = "undrain" if args.undo else "drain"
        reply = client.request(
            verb, {"daemon": args.daemon, "reason": args.reason}
        )
        print(
            f"{verb} {args.daemon}: draining={reply['draining']} "
            f"({reply.get('active', 0)} active session(s) finishing)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical parallel MPEG-2 decoder for tiled display walls",
    )
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("encode", help="encode y4m or synthetic content")
    e.add_argument("-i", "--input", help=".y4m input (default: synthetic)")
    e.add_argument("-o", "--output", required=True, help="output .m2v path")
    e.add_argument("--synthetic", choices=SYNTHETIC_CHOICES, default="pattern")
    e.add_argument("--width", type=int, default=192)
    e.add_argument("--height", type=int, default=128)
    e.add_argument("--frames", type=int, default=24)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--gop", type=int, default=9)
    e.add_argument("--b-frames", type=int, default=2)
    e.add_argument("--search-range", type=int, default=7)
    e.add_argument("--bpp", type=float, help="rate-control target (bits/pixel)")
    e.set_defaults(func=cmd_encode)

    d = sub.add_parser("decode", help="sequential decode to .y4m")
    d.add_argument("-i", "--input", required=True)
    d.add_argument("-o", "--output", required=True)
    d.add_argument("--fps", type=float, default=30.0)
    d.set_defaults(func=cmd_decode)

    w = sub.add_parser("wall", help="parallel decode on an m x n wall")
    w.add_argument("-i", "--input", required=True)
    w.add_argument("-o", "--output", help="optional .y4m of the wall image")
    w.add_argument("-m", type=int, default=2)
    w.add_argument("-n", type=int, default=2)
    w.add_argument("-k", type=int, default=1, help="second-level splitters")
    w.add_argument("--overlap", type=int, default=0)
    w.add_argument(
        "--wall-config",
        help="wall spec JSON (cols/rows/overlap/bezel/crops); overrides "
        "-m/-n/--overlap",
    )
    w.add_argument("--fps", type=float, default=30.0)
    w.add_argument("--verify", action="store_true", default=True)
    w.add_argument("--no-verify", dest="verify", action="store_false")
    w.set_defaults(func=cmd_wall)

    wb = sub.add_parser(
        "wall-broadcast",
        help="publish one stream to N wall receivers (one encode, any N)",
    )
    wb.add_argument("-i", "--input", help="encoded .m2v (default: synthesize)")
    wb.add_argument("--stream", type=int, default=5, help="Table 4 stream id")
    wb.add_argument("--frames", type=int, default=18)
    wb.add_argument("--max-width", type=int, default=96)
    wb.add_argument("-m", type=int, default=2)
    wb.add_argument("-n", type=int, default=2)
    wb.add_argument("--overlap", type=int, default=0)
    wb.add_argument(
        "--wall-config",
        help="wall spec JSON shared with receivers (overrides -m/-n/--overlap)",
    )
    wb.add_argument(
        "--bind", required=True,
        help="control socket: a unix path, or host:port with --transport tcp",
    )
    wb.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    wb.add_argument(
        "--mode", choices=["stream", "udp"], default="stream",
        help="fan-out payload path: per-subscriber stream or UDP multicast",
    )
    wb.add_argument("--fps", type=float, default=30.0, help="stream timeline fps")
    wb.add_argument(
        "--rate-fps", type=float, default=0.0,
        help="pace the publish loop at this rate (0 = free-run)",
    )
    wb.add_argument(
        "--wait-subscribers", type=int, default=0,
        help="block until N receivers have subscribed before publishing",
    )
    wb.add_argument(
        "--linger", type=float, default=1.0,
        help="seconds to keep serving repairs/reports after the last record",
    )
    wb.add_argument("--timeout", type=float, default=60.0)
    wb.add_argument("--name", default="wall")
    wb.set_defaults(func=cmd_wall_broadcast)

    wr = sub.add_parser(
        "wall-receive", help="subscribe one tile to a wall broadcast"
    )
    wr.add_argument(
        "--bind", required=True,
        help="the broadcaster's control socket (unix path or host:port)",
    )
    wr.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    wr.add_argument("--tile", type=int, required=True)
    wr.add_argument("--name", help="receiver label (default: tile<N>)")
    wr.add_argument(
        "--clock", action="store_true",
        help="present on the shared wall timeline (late frames drop); "
        "default free-runs",
    )
    wr.add_argument("--json-out", help="write the run summary JSON here")
    wr.add_argument(
        "--save-last", help="save the last displayed partition crop (.npz)"
    )
    wr.add_argument("--max-wall-s", type=float, default=120.0)
    wr.add_argument("--timeout", type=float, default=30.0)
    wr.set_defaults(func=cmd_wall_receive)

    c = sub.add_parser(
        "run-cluster", help="decode on real OS processes over sockets"
    )
    c.add_argument("-i", "--input", required=True)
    c.add_argument("-o", "--output", help="optional .y4m of the wall image")
    c.add_argument("-m", type=int, default=2)
    c.add_argument("-n", type=int, default=2)
    c.add_argument("-k", type=int, default=1, help="second-level splitters")
    c.add_argument("--overlap", type=int, default=0)
    c.add_argument(
        "--transport",
        choices=["unix", "tcp"],
        default="unix",
        help="socket flavor for every channel",
    )
    c.add_argument(
        "--trace-dir",
        help="keep the run directory (traces, logs) here instead of a tempdir",
    )
    c.add_argument(
        "--partition-policy",
        choices=["static", "content", "feedback"],
        default="static",
        help="runtime tile-partition policy; adaptive policies re-place "
        "partition lines at closed-GOP boundaries (output stays bit-exact)",
    )
    c.add_argument(
        "--partition-ewma",
        type=float,
        default=0.5,
        help="smoothing factor of the adaptive policy's load estimate",
    )
    c.add_argument("--timeout", type=float, default=120.0)
    c.add_argument("--fps", type=float, default=30.0)
    c.add_argument("--verify", action="store_true", default=True)
    c.add_argument("--no-verify", dest="verify", action="store_false")
    c.set_defaults(func=cmd_run_cluster)

    s = sub.add_parser("simulate", help="timed cluster simulation")
    s.add_argument("--stream", type=int, default=16, help="Table 4 stream id")
    s.add_argument("-m", type=int, default=4)
    s.add_argument("-n", type=int, default=4)
    s.add_argument("-k", type=int, default=4)
    s.add_argument("--overlap", type=int, default=0)
    s.add_argument("--frames", type=int, default=60)
    s.add_argument("--bandwidth", action="store_true")
    s.add_argument(
        "--tiles-per-node",
        type=int,
        default=1,
        help="projectors per decoder PC (multi-display extension)",
    )
    s.set_defaults(func=cmd_simulate)

    i = sub.add_parser("info", help="inspect an encoded stream")
    i.add_argument("-i", "--input", required=True)
    i.add_argument("--pictures", action="store_true")
    i.set_defaults(func=cmd_info)

    r = sub.add_parser("report", help="regenerate the full results report")
    r.add_argument("-o", "--output", help="markdown output path (default stdout)")
    r.add_argument("--frames", type=int, default=30)
    r.set_defaults(func=cmd_report)

    v = sub.add_parser("validate", help="conformance-check a stream")
    v.add_argument("-i", "--input", required=True)
    v.set_defaults(func=cmd_validate)

    t = sub.add_parser("streams", help="list the Table 4 test streams")
    t.set_defaults(func=cmd_streams)

    tr = sub.add_parser(
        "trace-report",
        help="post-mortem a cluster run directory (text report + Perfetto JSON)",
    )
    tr.add_argument("rundir", help="run directory holding *.trace.jsonl streams")
    tr.add_argument(
        "--json",
        help="Perfetto/Chrome trace output path "
        "(default: <rundir>/trace.perfetto.json)",
    )
    tr.add_argument("-o", "--out", help="text report path (default: stdout)")
    tr.add_argument(
        "--lenient",
        action="store_true",
        help="skip unparsable trace lines instead of failing",
    )
    tr.add_argument(
        "--recursive",
        action="store_true",
        help="also merge traces from subdirectories (fleet run layout: "
        "gateway trace on top, one directory per daemon)",
    )
    tr.add_argument(
        "--follow",
        action="store_true",
        help="tail the run directory: re-merge (leniently) and redraw the "
        "report every --interval seconds until interrupted",
    )
    tr.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --follow (seconds)",
    )
    tr.add_argument(
        "--iterations", type=int, default=0,
        help="stop --follow after N redraws (0 = until interrupted)",
    )
    tr.set_defaults(func=cmd_trace_report)

    sv = sub.add_parser(
        "serve", help="run the multi-session wall-service daemon"
    )
    sv.add_argument("rundir", help="run directory (rendezvous + traces)")
    sv.add_argument(
        "--capacity", type=float, default=400.0,
        help="pool decode capacity in Mpixel/s (admission currency)",
    )
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument("--queue-slots", type=int, default=4)
    sv.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    sv.add_argument("--lookahead", type=int, default=2)
    sv.add_argument("--no-telemetry", action="store_true")
    sv.add_argument(
        "--metrics-port", type=int, default=-1,
        help="HTTP /metrics listener port (0 = ephemeral, published to "
        "<rundir>/metrics.port; default: disabled)",
    )
    sv.set_defaults(func=cmd_serve)

    tp = sub.add_parser(
        "top", help="live fleet/daemon health dashboard (polls VERB_STATS)"
    )
    tp.add_argument("rundir", help="a gateway's or daemon's run directory")
    tp.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    tp.add_argument(
        "--interval", type=float, default=1.0, help="refresh period (seconds)"
    )
    tp.add_argument(
        "--count", type=int, default=0,
        help="stop after N frames (0 = until interrupted)",
    )
    tp.add_argument(
        "--once", action="store_true",
        help="print one plain snapshot and exit (CI / scripting)",
    )
    tp.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    tp.set_defaults(func=cmd_top)

    sb = sub.add_parser(
        "submit", help="submit a decode session to a running wall service"
    )
    sb.add_argument("rundir", help="the daemon's run directory")
    sb.add_argument("--stream", type=int, default=5, help="Table 4 stream id")
    sb.add_argument(
        "-i", "--input",
        help="encoded .m2v to play (default: synthesize from the spec)",
    )
    sb.add_argument("--name", help="session label (default: stream name)")
    sb.add_argument("--weight", type=float, default=1.0)
    sb.add_argument(
        "--slowdown", type=float, default=0.0,
        help="artificial per-picture decode load in seconds (load generation)",
    )
    sb.add_argument(
        "--frames", type=int, default=None,
        help="frames to synthesize when no --input is given",
    )
    sb.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    sb.add_argument("--wait", action="store_true", help="block until terminal")
    sb.add_argument("--timeout", type=float, default=300.0)
    sb.add_argument(
        "--broadcast", action="store_true",
        help="publish on a wall fan-out channel instead of pool decode "
        "(the reply prints the control address receivers subscribe to)",
    )
    sb.add_argument(
        "--wall", help="wall spec JSON for a --broadcast session"
    )
    sb.add_argument(
        "--rate-fps", type=float, default=0.0,
        help="pace a --broadcast publish loop (0 = free-run)",
    )
    sb.set_defaults(func=cmd_submit)

    ss = sub.add_parser(
        "sessions", help="list, cancel, or shut down wall-service sessions"
    )
    ss.add_argument("rundir", help="the daemon's run directory")
    ss.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    ss.add_argument("--cancel", type=int, help="cancel this session id")
    ss.add_argument("--shutdown", action="store_true", help="stop the daemon")
    ss.add_argument(
        "--reason", default="cli request", help="reason recorded in the trace"
    )
    ss.set_defaults(func=cmd_sessions)

    fl = sub.add_parser(
        "fleet", help="sharded multi-daemon serving behind one gateway"
    )
    fsub = fl.add_subparsers(dest="fleet_command", required=True)

    fs = fsub.add_parser("serve", help="run a gateway plus N wall daemons")
    fs.add_argument("rundir", help="gateway run directory (daemons nest under it)")
    fs.add_argument("--daemons", type=int, default=2)
    fs.add_argument(
        "--capacity", type=float, default=400.0,
        help="per-daemon decode capacity in Mpixel/s",
    )
    fs.add_argument("--workers", type=int, default=2, help="per-daemon workers")
    fs.add_argument("--queue-slots", type=int, default=4)
    fs.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    fs.add_argument(
        "--no-reliable-links", action="store_true",
        help="plain channels for gateway<->daemon RPC (no reconnect-resume)",
    )
    fs.set_defaults(func=cmd_fleet_serve)

    ft = fsub.add_parser("status", help="gateway, daemon, and session state")
    ft.add_argument("rundir", help="the gateway's run directory")
    ft.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    ft.add_argument("--json", action="store_true")
    ft.set_defaults(func=cmd_fleet_status)

    fd = fsub.add_parser(
        "drain", help="drain (or undrain) one daemon for maintenance"
    )
    fd.add_argument("rundir", help="the gateway's run directory")
    fd.add_argument("--daemon", required=True, help="daemon name, e.g. daemon0")
    fd.add_argument("--undo", action="store_true", help="undrain instead")
    fd.add_argument("--reason", default="cli request")
    fd.add_argument("--transport", choices=["unix", "tcp"], default="unix")
    fd.set_defaults(func=cmd_fleet_drain)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
