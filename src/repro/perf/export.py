"""Timeline export and post-mortem reporting for cluster trace streams.

Two consumers of the merged :class:`~repro.perf.trace.TraceEvent` stream:

- :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON (Perfetto-loadable, ``chrome://tracing`` compatible):
  one *process* track per cluster process, one *thread* track per traced
  thread inside it, ``B``/``E`` span pairs for every instrumented region,
  instant marks for the remaining events, and counter tracks for the
  per-channel wire-byte snapshots;
- :func:`build_report` / :func:`render_report` — the ``repro
  trace-report`` text post-mortem: per-stage attribution per process,
  per-picture latency percentiles, barrier-wait and credit-stall totals
  per tile, cross-tile imbalance, and bytes-on-wire per channel.

Per-stage totals are computed from span durations; because the runtime
emits stage spans from the very same measurements that feed
:class:`~repro.perf.metrics.StageTimes`, the report's attribution agrees
with :func:`~repro.perf.trace.load_stage_times` by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.perf.metrics import StageTimes
from repro.perf.trace import TraceEvent

#: Span events whose totals are "useful work" on a decoder track; used
#: for the cross-tile imbalance figure (waits deliberately excluded).
DECODER_BUSY = ("decode", "serve", "wire")

#: Wait-side spans: the flow-control/barrier attribution.
WAIT_EVENTS = ("exchange_wait", "credit_wait", "ack_wait")


def _proc_rank(proc: str) -> Tuple[int, str]:
    """Stable track order: root, splitters, decoders, then the rest."""
    for i, prefix in enumerate(("root", "split", "dec", "supervisor")):
        if proc.startswith(prefix):
            return (i, proc)
    return (4, proc)


# --------------------------------------------------------------------- #
# Chrome trace / Perfetto JSON
# --------------------------------------------------------------------- #


def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict:
    """Convert a merged timeline into a Chrome trace-event JSON object.

    Timestamps are rebased to the earliest event and expressed in
    microseconds, the native unit of the format.
    """
    procs = sorted({ev.proc for ev in events}, key=_proc_rank)
    pid_of = {p: i + 1 for i, p in enumerate(procs)}
    tid_of: Dict[Tuple[str, str], int] = {}
    base = min((ev.ts for ev in events), default=0.0)

    out: List[Dict] = []
    for proc in procs:
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid_of[proc],
                "args": {"name": proc},
            }
        )

    def tid(proc: str, thread: str) -> int:
        key = (proc, thread)
        if key not in tid_of:
            n = sum(1 for (p, _t) in tid_of if p == proc)
            tid_of[key] = n
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid_of[proc],
                    "tid": n,
                    "args": {"name": thread or "main"},
                }
            )
        return tid_of[key]

    for ev in events:
        data = ev.data
        ph = data.get("ph")
        common = {
            "name": ev.event,
            "pid": pid_of[ev.proc],
            "tid": tid(ev.proc, data.get("tid", "")),
            "ts": (ev.ts - base) * 1e6,
        }
        args = {
            k: v
            for k, v in data.items()
            if k not in ("ph", "tid", "dur_s")
        }
        if ev.picture >= 0:
            args["picture"] = ev.picture
        if ph in ("B", "E"):
            out.append({**common, "ph": ph, "cat": "span", "args": args})
        elif ev.event == "stats":
            # channel byte counters render as Perfetto counter tracks
            for chan, st in data.get("channels", {}).items():
                out.append(
                    {
                        "ph": "C",
                        "name": f"wire:{chan}",
                        "pid": common["pid"],
                        "tid": 0,
                        "ts": common["ts"],
                        "args": {
                            "sent_bytes": st.get("sent_bytes", 0),
                            "recv_bytes": st.get("recv_bytes", 0),
                        },
                    }
                )
        else:
            out.append(
                {**common, "ph": "i", "s": "t", "cat": "event", "args": args}
            )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Sequence[TraceEvent], path: Union[str, Path]
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(events)) + "\n")
    return path


# --------------------------------------------------------------------- #
# text report
# --------------------------------------------------------------------- #


def _pct(sorted_vals: List[float], p: float) -> float:
    """Exact percentile (linear interpolation) of a pre-sorted list."""
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    rank = p / 100.0 * (len(sorted_vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (rank - lo) * (sorted_vals[hi] - sorted_vals[lo])


@dataclass
class ProcSummary:
    """Everything the report knows about one process's track."""

    span_totals: Dict[str, float] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    picture_spans: List[float] = field(default_factory=list)  # decode/split
    open_spans: List[str] = field(default_factory=list)  # B without E
    channels: Dict[str, Dict] = field(default_factory=dict)
    credit: Dict[str, Dict] = field(default_factory=dict)
    stage_times: StageTimes = field(default_factory=StageTimes)
    # latest registry counter/gauge snapshot (pool.* lives here)
    metrics: Dict[str, float] = field(default_factory=dict)
    # final per-pool accounting from the worker's pool_stats event
    pools: Dict[str, Dict] = field(default_factory=dict)
    # decoder-only: per-picture decode+serve seconds (decode order), the
    # input to the per-GOP imbalance windows
    picture_busy: Dict[int, float] = field(default_factory=dict)


@dataclass
class SessionAgg:
    """Per-session attribution from a wall-service trace stream."""

    summary: Optional[Dict] = None  # the session_summary payload
    proc: str = ""  # the daemon whose trace carried this session
    decode_s: float = 0.0  # total decode span time billed to this sid
    decode_count: int = 0
    drop_events: int = 0  # instant "drop" events seen in the stream
    drops_by_type: Dict[str, int] = field(default_factory=dict)
    forced_drop_events: int = 0

    def consistent(self) -> bool:
        """Do streamed drop events agree with the summary's counters?"""
        if self.summary is None:
            return False
        counted = self.summary.get("dropped_b", 0) + self.summary.get(
            "dropped_p", 0
        )
        return counted == self.drop_events


@dataclass
class TraceReport:
    """Aggregated post-mortem of one cluster run."""

    procs: Dict[str, ProcSummary]
    wall_s: float
    n_events: int
    sessions: Dict[int, SessionAgg] = field(default_factory=dict)
    admission_rejects: List[Dict] = field(default_factory=list)
    failovers: List[Dict] = field(default_factory=list)  # gateway events
    # adaptive repartitioning: the root's versioned layout_update events,
    # the decoders' repartition (applied) events, and the GOP boundaries
    partition_updates: List[Dict] = field(default_factory=list)
    partition_evals: List[Dict] = field(default_factory=list)
    repartitions: List[Dict] = field(default_factory=list)
    gops: List[Dict] = field(default_factory=list)
    # end-to-end picture latency: the collector's per-picture ``e2e``
    # events (root ingress -> wall paste, with per-hop attribution)
    e2e: List[Dict] = field(default_factory=list)
    # SLO burn-rate alerts emitted by wall-service sessions
    slo_burns: List[Dict] = field(default_factory=list)
    # cluster workers' lifecycle stamps (wall clock), per process: the
    # supervisor's ``spawn`` and ``child_exit``, the worker's ``start``
    # (with its ``import_s``, ``parse_engine`` and, by role,
    # ``columns_engine`` and ``execute_engine``) and its first per-picture event
    lifecycle: Dict[str, Dict[str, object]] = field(default_factory=dict)
    # the supervisor's ``preload`` (roles, modules, seconds): the imports
    # the first job of a process pays before it forks its workers
    preload: Optional[Dict] = None
    last_frame_ts: Optional[float] = None  # the collector's last paste

    # -- derived views ------------------------------------------------- #

    def stage_totals(self, proc: str) -> Dict[str, float]:
        """parse/plan/execute/wire span totals for one process."""
        s = self.procs[proc].span_totals
        return {st: s.get(st, 0.0) for st in StageTimes.STAGES}

    def decoder_procs(self) -> List[str]:
        return sorted(
            (p for p in self.procs if p.startswith("dec")), key=_proc_rank
        )

    def imbalance(self) -> Dict[str, float]:
        """Cross-tile busy-time spread — the paper's §5.4 load balance."""
        busy = {
            p: sum(self.procs[p].span_totals.get(e, 0.0) for e in DECODER_BUSY)
            for p in self.decoder_procs()
        }
        if not busy:
            return {}
        vals = list(busy.values())
        mean = sum(vals) / len(vals)
        return {
            "min_s": min(vals),
            "max_s": max(vals),
            "mean_s": mean,
            "spread_s": max(vals) - min(vals),
            "max_over_mean": max(vals) / mean if mean > 0 else 0.0,
        }

    def pool_rollup(self) -> Dict[str, float]:
        """Cluster-wide shared-memory pool accounting.

        ``copies_avoided`` counts the frames whose payload crossed a
        process boundary as a pool handle instead of a socket copy;
        ``by_handle_bytes`` is the payload volume those handles carried.
        """
        keys = {
            "by_handle_bytes": "pool.bytes_by_handle",
            "by_copy_bytes": "pool.bytes_by_copy",
            "leases": "pool.leases",
            "releases": "pool.releases",
            "exhausted": "pool.exhausted",
        }
        roll = {
            out: sum(ps.metrics.get(m, 0.0) for ps in self.procs.values())
            for out, m in keys.items()
        }
        roll["copies_avoided"] = roll["leases"]
        return roll

    def daemon_rollup(self) -> Dict[str, Dict[str, float]]:
        """Per-daemon session attribution for fleet runs.

        Groups every session by the process whose trace stream carried it
        (each fleet daemon writes with a distinct ``trace_name``), so a
        merged fleet trace answers "which daemon did the work" directly.
        """
        roll: Dict[str, Dict[str, float]] = {}
        for agg in self.sessions.values():
            if not agg.proc:
                continue
            r = roll.setdefault(
                agg.proc,
                {"sessions": 0, "completed": 0, "decode_s": 0.0,
                 "drops": 0, "forced": 0},
            )
            r["sessions"] += 1
            s = agg.summary or {}
            if s.get("state") == "completed":
                r["completed"] += 1
            r["decode_s"] += agg.decode_s
            r["drops"] += agg.drop_events
            r["forced"] += agg.forced_drop_events
        return roll

    def gop_imbalance(self) -> List[Dict[str, float]]:
        """Cross-tile imbalance per GOP window (busy = decode+serve).

        Busy is the decoder's thread-CPU time where the trace recorded it
        (``cpu_s`` on the decode event), falling back to wall spans for
        older traces — CPU time keeps the figure meaningful even when the
        whole fleet time-slices a single core.

        Windows come from the root's ``gop`` events; pictures are binned
        in decode order.  This is how the adaptive partition's effect
        shows up: under a working policy the ``max_over_mean`` of late
        GOPs drops toward 1.0 while the first GOP (decoded under the
        static base layout) stays imbalanced.
        """
        starts = sorted({g["picture"] for g in self.gops})
        decs = self.decoder_procs()
        if not starts or not decs:
            return []
        n_pics = max(
            (max(self.procs[p].picture_busy, default=-1) for p in decs),
            default=-1,
        ) + 1
        out = []
        for w, start in enumerate(starts):
            end = starts[w + 1] if w + 1 < len(starts) else n_pics
            busy = [
                sum(
                    self.procs[p].picture_busy.get(i, 0.0)
                    for i in range(start, end)
                )
                for p in decs
            ]
            mean = sum(busy) / len(busy)
            out.append(
                {
                    "start": start,
                    "end": end,
                    "max_s": max(busy),
                    "mean_s": mean,
                    "max_over_mean": max(busy) / mean if mean > 0 else 0.0,
                }
            )
        return out

    def cold_start(self) -> Dict[str, Dict[str, object]]:
        """Where a job's fixed cost goes, per worker: ``spawn_to_start_s``
        (the fork, or interpreter boot and imports for a worker run by hand
        — ``import_s`` is the worker's own age at ``start``),
        ``start_to_first_picture_s`` (connect, handshakes, waiting for
        upstream) and ``last_frame_to_exit_s`` (the collector's last paste
        until the supervisor reaped the child: drain, trace flush, exit);
        and ``parse_engine`` / ``columns_engine`` / ``execute_engine``, the
        slice walk the worker said it parses with, what -- in a splitter or a
        decoder -- builds its columns and plans and what -- in a decoder --
        executes them (``native`` or ``python``, without the path or reason)."""

        def gap(a: Optional[float], b: Optional[float]) -> Optional[float]:
            return None if a is None or b is None else b - a

        return {
            proc: {
                "spawn_to_start_s": gap(st["spawn"], st.get("start")),
                "import_s": st.get("import_s"),
                "start_to_first_picture_s": gap(st.get("start"), st.get("first_picture")),
                "last_frame_to_exit_s": gap(self.last_frame_ts, st.get("child_exit")),
                "parse_engine": st.get("parse_engine"),
                "columns_engine": st.get("columns_engine"),
                "execute_engine": st.get("execute_engine"),
            }
            for proc, st in self.lifecycle.items()
            if "spawn" in st
        }

    def e2e_stats(self) -> Dict[str, object]:
        """Percentiles and critical-path attribution of the end-to-end
        picture latency.  The per-hop totals are telescoping (the stamps
        partition ``[t_root, t_paste]``), so ``split + decode + collect``
        equals ``sum_s`` exactly — the agreement invariant the obs tests
        assert."""
        vals = sorted(float(e["e2e_s"]) for e in self.e2e)
        hops = {"split": 0.0, "decode": 0.0, "collect": 0.0}
        critical: Dict[str, int] = {}
        for e in self.e2e:
            for h in hops:
                hops[h] += float(e.get(f"{h}_s", 0.0))
            c = e.get("critical")
            if c:
                critical[c] = critical.get(c, 0) + 1
        return {
            "count": len(vals),
            "p50_ms": 1e3 * _pct(vals, 50),
            "p95_ms": 1e3 * _pct(vals, 95),
            "p99_ms": 1e3 * _pct(vals, 99),
            "max_ms": 1e3 * (vals[-1] if vals else 0.0),
            "sum_s": sum(vals),
            "hops_s": hops,
            "critical": critical,
        }

    def picture_percentiles(self, proc: str) -> Dict[str, float]:
        vals = sorted(self.procs[proc].picture_spans)
        return {
            "count": len(vals),
            "p50_ms": 1e3 * _pct(vals, 50),
            "p95_ms": 1e3 * _pct(vals, 95),
            "p99_ms": 1e3 * _pct(vals, 99),
            "max_ms": 1e3 * (vals[-1] if vals else 0.0),
        }


def build_report(events: Sequence[TraceEvent]) -> TraceReport:
    """Fold a merged timeline into the aggregates the text report shows."""
    procs: Dict[str, ProcSummary] = {}
    open_begins: Dict[Tuple[str, str, str, int], int] = {}
    open_sids: Dict[Tuple[str, str, str, int], List[int]] = {}
    sessions: Dict[int, SessionAgg] = {}
    rejects: List[Dict] = []
    failovers: List[Dict] = []
    partition_updates: List[Dict] = []
    partition_evals: List[Dict] = []
    repartitions: List[Dict] = []
    gops: List[Dict] = []
    e2e: List[Dict] = []
    slo_burns: List[Dict] = []
    lifecycle: Dict[str, Dict[str, float]] = {}
    preload: Optional[Dict] = None
    last_frame_ts: Optional[float] = None
    t_lo, t_hi = float("inf"), float("-inf")

    def session(sid) -> SessionAgg:
        return sessions.setdefault(int(sid), SessionAgg())

    for ev in events:
        ps = procs.setdefault(ev.proc, ProcSummary())
        t_lo, t_hi = min(t_lo, ev.ts), max(t_hi, ev.ts)
        ph = ev.data.get("ph")
        key = (ev.proc, ev.data.get("tid", ""), ev.event, ev.picture)
        if ev.picture >= 0 and ev.proc != "supervisor":
            lifecycle.setdefault(ev.proc, {}).setdefault("first_picture", ev.ts)
        if ph == "B":
            open_begins[key] = open_begins.get(key, 0) + 1
            if "sid" in ev.data:
                # E spans carry no data; remember which sid this B opened
                open_sids.setdefault(key, []).append(int(ev.data["sid"]))
        elif ph == "E":
            if open_begins.get(key, 0) > 0:
                open_begins[key] -= 1
            dur = float(ev.data.get("dur_s", 0.0))
            ps.span_totals[ev.event] = ps.span_totals.get(ev.event, 0.0) + dur
            ps.span_counts[ev.event] = ps.span_counts.get(ev.event, 0) + 1
            if (ev.proc.startswith("dec") and ev.event == "decode") or (
                ev.proc.startswith("split") and ev.event == "split"
            ):
                ps.picture_spans.append(dur)
            if (
                ev.proc.startswith("dec")
                and ev.event in ("decode", "serve")
                and ev.picture >= 0
            ):
                ps.picture_busy[ev.picture] = (
                    ps.picture_busy.get(ev.picture, 0.0) + dur
                )
            sids = open_sids.get(key)
            if sids:
                agg = session(sids.pop())
                agg.decode_s += dur
                agg.decode_count += 1
                agg.proc = agg.proc or ev.proc
        elif (
            ev.proc.startswith("dec")
            and ev.event == "decode"
            and "cpu_s" in ev.data
            and ev.picture >= 0
        ):
            # The decoder's summary event carries thread-CPU busy time,
            # which excludes scheduler preemption.  It lands after the
            # wall-clock serve/decode spans of the same picture, so it
            # overrides their sum wherever both were recorded.
            ps.picture_busy[ev.picture] = float(ev.data["cpu_s"])
        elif ev.event == "drop" and "sid" in ev.data:
            agg = session(ev.data["sid"])
            agg.drop_events += 1
            agg.proc = agg.proc or ev.proc
            ptype = ev.data.get("ptype", "?")
            agg.drops_by_type[ptype] = agg.drops_by_type.get(ptype, 0) + 1
            if ev.data.get("forced"):
                agg.forced_drop_events += 1
        elif ev.event == "session_summary" and "sid" in ev.data:
            agg = session(ev.data["sid"])
            agg.summary = dict(ev.data)
            agg.proc = ev.proc  # the summary's stream is authoritative
        elif ev.event in ("spawn", "child_exit") and "proc_name" in ev.data:
            lifecycle.setdefault(ev.data["proc_name"], {})[ev.event] = ev.ts
        elif ev.event == "start":
            stamps = lifecycle.setdefault(ev.proc, {})
            stamps["start"] = ev.ts
            if "import_s" in ev.data:
                stamps["import_s"] = float(ev.data["import_s"])
            for engine in ("parse_engine", "columns_engine", "execute_engine"):
                if engine in ev.data:
                    # "native (<path>)" | "python (<reason>)": which, not where
                    stamps[engine] = str(ev.data[engine]).split(" ", 1)[0]
        elif ev.event == "preload":
            preload = dict(ev.data)
        elif ev.event == "frame_assembled":
            last_frame_ts = ev.ts
        elif ev.event == "failover":
            failovers.append(dict(ev.data))
        elif ev.event == "layout_update":
            partition_updates.append({"picture": ev.picture, **ev.data})
        elif ev.event == "partition_eval":
            partition_evals.append({"picture": ev.picture, **ev.data})
        elif ev.event == "repartition":
            repartitions.append(
                {"proc": ev.proc, "picture": ev.picture, **ev.data}
            )
        elif ev.event == "gop":
            gops.append({"picture": ev.picture, **ev.data})
        elif ev.event == "e2e":
            e2e.append({"picture": ev.picture, **ev.data})
        elif ev.event == "slo_burn":
            slo_burns.append({"proc": ev.proc, "picture": ev.picture, **ev.data})
            if "sid" in ev.data:
                session(ev.data["sid"]).proc = (
                    session(ev.data["sid"]).proc or ev.proc
                )
        elif ev.event == "admission_reject":
            rejects.append(dict(ev.data))
        elif ev.event == "stats":
            # later snapshots supersede earlier ones (counters are totals)
            ps.channels.update(ev.data.get("channels", {}))
            metrics = ev.data.get("metrics", {})
            ps.metrics.update(metrics.get("counters", {}))
            ps.metrics.update(metrics.get("gauges", {}))
        elif ev.event == "pool_stats":
            ps.pools[ev.data.get("pool", "?")] = {
                k: v for k, v in ev.data.items() if k != "pool"
            }
        elif ev.event == "credit_totals":
            ps.credit = {
                k: v for k, v in ev.data.items() if isinstance(v, dict)
            }
        elif ev.event == "stage_times":
            clean = {
                k: v for k, v in ev.data.items() if k != "tid"
            }
            ps.stage_times.merge(StageTimes.from_dict(clean))

    for (proc, _tid, event, _pic), n in open_begins.items():
        if n > 0:
            procs[proc].open_spans.extend([event] * n)

    wall = (t_hi - t_lo) if t_hi >= t_lo else 0.0
    return TraceReport(
        procs=procs,
        wall_s=wall,
        n_events=len(events),
        sessions=sessions,
        admission_rejects=rejects,
        failovers=failovers,
        partition_updates=partition_updates,
        partition_evals=partition_evals,
        repartitions=repartitions,
        gops=gops,
        e2e=e2e,
        slo_burns=slo_burns,
        lifecycle=lifecycle,
        preload=preload,
        last_frame_ts=last_frame_ts,
    )


def _fmt_row(cols: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cols, widths)).rstrip()


def _table(header: Sequence[str], rows: List[Sequence[str]]) -> List[str]:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = [_fmt_row(header, widths), _fmt_row(["-" * w for w in widths], widths)]
    lines += [_fmt_row(r, widths) for r in rows]
    return lines


def render_report(report: TraceReport) -> str:
    """The ``repro trace-report`` text body."""
    L: List[str] = []
    L.append(
        f"trace report: {report.n_events} events, "
        f"{len(report.procs)} processes, {report.wall_s:.3f}s wall"
    )
    L.append("")

    # ---- per-stage attribution ---------------------------------------- #
    L.append("Per-stage attribution (seconds of span time per process):")
    stage_names = list(StageTimes.STAGES) + [
        "split", "decode", "serve", "exchange_wait", "credit_wait", "ack_wait"
    ]
    rows = []
    for proc in sorted(report.procs, key=_proc_rank):
        tot = report.procs[proc].span_totals
        if not tot:
            continue
        rows.append(
            [proc] + [f"{tot.get(s, 0.0):.3f}" for s in stage_names]
        )
    if rows:
        L += _table(["proc"] + stage_names, rows)
    else:
        L.append("  (no spans recorded — telemetry disabled?)")
    L.append("")

    # ---- per-picture latency ------------------------------------------ #
    pic_rows = []
    for proc in sorted(report.procs, key=_proc_rank):
        if not report.procs[proc].picture_spans:
            continue
        p = report.picture_percentiles(proc)
        pic_rows.append(
            [
                proc,
                p["count"],
                f"{p['p50_ms']:.2f}",
                f"{p['p95_ms']:.2f}",
                f"{p['p99_ms']:.2f}",
                f"{p['max_ms']:.2f}",
            ]
        )
    if pic_rows:
        L.append("Per-picture latency (decode/split span, ms):")
        L += _table(["proc", "pictures", "p50", "p95", "p99", "max"], pic_rows)
        L.append("")

    # ---- end-to-end picture latency ------------------------------------ #
    if report.e2e:
        st = report.e2e_stats()
        L.append("End-to-end picture latency (root ingress -> wall paste, ms):")
        L += _table(
            ["pictures", "p50", "p95", "p99", "max"],
            [
                [
                    st["count"],
                    f"{st['p50_ms']:.2f}",
                    f"{st['p95_ms']:.2f}",
                    f"{st['p99_ms']:.2f}",
                    f"{st['max_ms']:.2f}",
                ]
            ],
        )
        hops = st["hops_s"]
        total = sum(hops.values()) or 1.0
        L.append(
            "Critical-path attribution: "
            + ", ".join(
                f"{h} {hops[h]:.3f}s ({100.0 * hops[h] / total:.0f}%, "
                f"critical on {st['critical'].get(h, 0)} pictures)"
                for h in ("split", "decode", "collect")
            )
        )
        L.append("")

    # ---- cold start and exit -------------------------------------------- #
    cold = report.cold_start()
    if cold:

        def secs(v: Optional[float]) -> str:
            return "-" if v is None else f"{v:.3f}"

        rows = [
            [
                proc,
                secs(c["spawn_to_start_s"]),
                secs(c["import_s"]),
                secs(c["start_to_first_picture_s"]),
                secs(c["last_frame_to_exit_s"]),
                c["parse_engine"] or "-",
                c["execute_engine"] or "-",
                c["columns_engine"] or "-",
            ]
            for proc, c in sorted(cold.items(), key=lambda kv: _proc_rank(kv[0]))
        ]
        if report.preload:
            # what the workers no longer import: the supervisor did, once
            # in its process, before the first fork
            roles = "+".join(report.preload.get("roles", []))
            rows.insert(
                0,
                [f"preload {roles}", "-", secs(report.preload.get("seconds")), "-", "-", "-", "-", "-"],
            )
        L.append("Cold start and exit (seconds; the job's fixed cost, per worker):")
        L += _table(
            ["proc", "spawn->start", "(import_s)", "start->first picture",
             "last frame->child_exit", "parse engine", "execute engine", "columns engine"],
            rows,
        )
        L.append("")

    # ---- waits and flow control --------------------------------------- #
    wait_rows = []
    for proc in sorted(report.procs, key=_proc_rank):
        tot = report.procs[proc].span_totals
        if not any(tot.get(w) for w in WAIT_EVENTS):
            continue
        wait_rows.append(
            [proc] + [f"{tot.get(w, 0.0):.3f}" for w in WAIT_EVENTS]
        )
    if wait_rows:
        L.append("Barrier / flow-control waits (seconds):")
        L += _table(["proc"] + list(WAIT_EVENTS), wait_rows)
        L.append("")
    for proc in sorted(report.procs, key=_proc_rank):
        if report.procs[proc].credit:
            parts = ", ".join(
                f"{peer}: {d.get('stalls', 0)} stalls / {d.get('wait_s', 0.0):.3f}s"
                for peer, d in sorted(report.procs[proc].credit.items())
            )
            L.append(f"Credit stalls at {proc}: {parts}")
    if any(p.credit for p in report.procs.values()):
        L.append("")

    # ---- imbalance ----------------------------------------------------- #
    imb = report.imbalance()
    if imb:
        L.append(
            "Cross-tile imbalance (busy = decode+serve+wire): "
            f"min {imb['min_s']:.3f}s, max {imb['max_s']:.3f}s, "
            f"spread {imb['spread_s']:.3f}s, "
            f"max/mean {imb['max_over_mean']:.3f}"
        )
        L.append("")

    # ---- adaptive repartitioning ---------------------------------------- #
    if report.partition_evals:
        moved = sum(e.get("version") is not None for e in report.partition_evals)
        L.append(
            f"Repartition points evaluated: {len(report.partition_evals)} "
            f"(pictures {[e['picture'] for e in report.partition_evals]}), "
            f"{moved} moved a boundary"
        )
        if not report.partition_updates:
            L.append("")
    if report.partition_updates:
        L.append("Partition updates (adaptive repartitioning):")
        applied: Dict[int, List[str]] = {}
        for r in report.repartitions:
            applied.setdefault(int(r.get("version", 0)), []).append(r["proc"])
        for u in report.partition_updates:
            v = int(u.get("version", 0))
            who = sorted(set(applied.get(v, [])), key=_proc_rank)
            L.append(
                f"  v{v} @ picture {u['picture']}: "
                f"x={u.get('x_bounds')} y={u.get('y_bounds')}"
                + (f"  applied by {', '.join(who)}" if who else "")
            )
        L.append("")
    gop_imb = report.gop_imbalance()
    if gop_imb and (report.partition_updates or len(gop_imb) > 1):
        L.append("Per-GOP cross-tile imbalance (busy = decode+serve):")
        L += _table(
            ["gop@", "pictures", "max_s", "mean_s", "max/mean"],
            [
                [
                    g["start"],
                    f"{g['start']}..{g['end'] - 1}",
                    f"{g['max_s']:.3f}",
                    f"{g['mean_s']:.3f}",
                    f"{g['max_over_mean']:.3f}",
                ]
                for g in gop_imb
            ],
        )
        L.append("")

    # ---- wire ---------------------------------------------------------- #
    chan_rows = []
    for proc in sorted(report.procs, key=_proc_rank):
        for chan, st in sorted(report.procs[proc].channels.items()):
            chan_rows.append(
                [
                    proc,
                    chan,
                    f"{st.get('sent_bytes', 0) / 1e6:.3f}",
                    f"{st.get('recv_bytes', 0) / 1e6:.3f}",
                    st.get("sent_frames", 0),
                    st.get("recv_frames", 0),
                    f"{st.get('handle_bytes', 0) / 1e6:.3f}",
                    f"{st.get('send_blocked_s', 0.0):.3f}",
                ]
            )
    if chan_rows:
        L.append("Bytes on wire per channel (MB; handle_MB = payload that")
        L.append("travelled as shm-pool handles, not socket bytes):")
        L += _table(
            ["proc", "channel", "sent_MB", "recv_MB", "sframes", "rframes",
             "handle_MB", "blocked_s"],
            chan_rows,
        )
        L.append("")

    # ---- shared-memory pool -------------------------------------------- #
    pool_rows = []
    for proc in sorted(report.procs, key=_proc_rank):
        ps = report.procs[proc]
        if not ps.pools and not any(k.startswith("pool.") for k in ps.metrics):
            continue
        m = ps.metrics
        hwm = max((st.get("hwm_slabs", 0) for st in ps.pools.values()), default=0)
        pool_rows.append(
            [
                proc,
                int(m.get("pool.leases", 0)),
                int(m.get("pool.releases", 0)),
                int(m.get("pool.exhausted", 0)),
                hwm or int(m.get("pool.hwm_slabs", 0)),
                f"{m.get('pool.bytes_by_handle', 0) / 1e6:.3f}",
                f"{m.get('pool.bytes_by_copy', 0) / 1e6:.3f}",
            ]
        )
    if pool_rows:
        L.append("Shared-memory frame pool (per process):")
        L += _table(
            ["proc", "leases", "releases", "exhausted", "hwm_slabs",
             "by_handle_MB", "by_copy_MB"],
            pool_rows,
        )
        roll = report.pool_rollup()
        L.append(
            f"copies_avoided: {int(roll['copies_avoided'])} payloads / "
            f"{roll['by_handle_bytes'] / 1e6:.3f} MB shipped by handle "
            f"(vs {roll['by_copy_bytes'] / 1e6:.3f} MB by socket copy); "
            f"leases {int(roll['leases'])}, releases {int(roll['releases'])}, "
            f"exhausted-fallbacks {int(roll['exhausted'])}"
        )
        L.append("")

    # ---- wall-service sessions ----------------------------------------- #
    if report.sessions:
        # Per-daemon attribution only appears for fleet runs: more than
        # one daemon carried sessions, or a failover happened.  A single
        # daemon's report is byte-for-byte what it always was.
        daemons = {a.proc for a in report.sessions.values() if a.proc}
        fleet = len(daemons) > 1 or bool(report.failovers)
        L.append("Service sessions (per-session decode time and drop ledger):")
        sess_rows = []
        for sid in sorted(report.sessions):
            agg = report.sessions[sid]
            s = agg.summary or {}
            decoded = s.get("decoded", {})
            row = [
                sid,
                s.get("name", "?"),
                s.get("state", "?"),
                f"{agg.decode_s:.3f}",
                agg.decode_count,
                sum(decoded.values()) if decoded else 0,
                s.get("dropped_b", 0),
                s.get("dropped_p", 0),
                s.get("forced_drops", 0),
                s.get("peak_degrade_level", 0),
                f"{s.get('latency_p95_ms', 0.0):.2f}",
                "yes" if agg.consistent() else "NO",
            ]
            if fleet:
                row.insert(1, agg.proc or "?")
            sess_rows.append(row)
        header = ["sid", "name", "state", "busy_s", "spans", "decoded",
                  "dropB", "dropP", "forced", "peak_lvl", "p95_ms", "ledger_ok"]
        if fleet:
            header.insert(1, "daemon")
        L += _table(header, sess_rows)
        if fleet:
            L.append("")
            L.append("Per-daemon rollup:")
            roll_rows = [
                [
                    name,
                    int(r["sessions"]),
                    int(r["completed"]),
                    f"{r['decode_s']:.3f}",
                    int(r["drops"]),
                    int(r["forced"]),
                ]
                for name, r in sorted(report.daemon_rollup().items())
            ]
            L += _table(
                ["daemon", "sessions", "completed", "decode_s", "drops",
                 "forced"],
                roll_rows,
            )
        if report.failovers:
            L.append("")
            L.append("Failovers:")
            for f in report.failovers:
                L.append(
                    f"  gsid {f.get('gsid')} ({f.get('name', '?')}): "
                    f"{f.get('from_daemon', '?')} -> "
                    f"{f.get('to_daemon') or '(none)'}, "
                    f"last_processed {f.get('last_processed')}, "
                    f"resume_at {f.get('resume_at')}, "
                    f"dropped {f.get('dropped_pictures')}, "
                    f"resume {1e3 * float(f.get('resume_s', 0.0)):.1f} ms"
                )
        bad = [
            sid
            for sid, agg in report.sessions.items()
            if agg.summary is not None and not agg.consistent()
        ]
        if bad:
            L.append(
                "DROP LEDGER MISMATCH: streamed drop events disagree with "
                f"session_summary counters for sid(s) {sorted(bad)}"
            )
        L.append("")
    if report.slo_burns:
        L.append("SLO burn alerts (multi-window burn-rate threshold crossings):")
        for b in report.slo_burns:
            L.append(
                f"  sid {b.get('sid', '?')} on {b.get('proc', '?')} "
                f"@ picture {b.get('picture')}: "
                f"worst burn {float(b.get('burn', 0.0)):.2f}x "
                f"(windows {b.get('windows_s')})"
            )
        L.append("")
    if report.admission_rejects:
        reasons: Dict[str, int] = {}
        for r in report.admission_rejects:
            reasons[r.get("reason", "?")] = reasons.get(r.get("reason", "?"), 0) + 1
        parts = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        L.append(f"Admission rejections: {parts}")
        L.append("")

    # ---- crash indicators ---------------------------------------------- #
    for proc in sorted(report.procs, key=_proc_rank):
        if report.procs[proc].open_spans:
            L.append(
                f"UNFINISHED spans on {proc} (died inside?): "
                + ", ".join(report.procs[proc].open_spans)
            )
    return "\n".join(L).rstrip() + "\n"


# --------------------------------------------------------------------- #
# crash post-mortem helper
# --------------------------------------------------------------------- #


def span_tail(events: Sequence[TraceEvent], n: int = 8) -> List[str]:
    """The last ``n`` events of one process's trace, one formatted line
    each — what the supervisor prints per process when a worker dies so
    fault injection shows *where* the worker was, not just that it exited.
    """
    lines = []
    for ev in events[-n:]:
        ph = ev.data.get("ph")
        kind = {"B": "begin", "E": "end  "}.get(ph, "event")
        pic = f" picture={ev.picture}" if ev.picture >= 0 else ""
        dur = (
            f" dur={1e3 * float(ev.data['dur_s']):.2f}ms"
            if "dur_s" in ev.data
            else ""
        )
        lines.append(f"{ev.ts:.6f} {kind} {ev.event}{pic}{dur}")
    return lines


__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "build_report",
    "render_report",
    "span_tail",
    "TraceReport",
    "ProcSummary",
    "SessionAgg",
]
