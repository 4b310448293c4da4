"""Timeline merge, Perfetto export, and the trace-report post-mortem."""

import json

import pytest

from repro.cli import main as cli_main
from repro.perf.export import (
    build_report,
    render_report,
    span_tail,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.perf.trace import (
    TraceEvent,
    TraceWriter,
    load_stage_times,
    merge_traces,
    read_trace_file,
)


def _write_trace(path, proc, events):
    with TraceWriter(path, proc) as tr:
        for ev in events:
            kwargs = dict(ev)
            tr.emit(kwargs.pop("event"), **kwargs)


class TestMergeTraces:
    def test_sorted_by_ts_with_proc_tiebreak(self, tmp_path):
        _write_trace(
            tmp_path / "b.trace.jsonl", "procB",
            [{"event": "x", "ts": 2.0}, {"event": "tie", "ts": 5.0}],
        )
        _write_trace(
            tmp_path / "a.trace.jsonl", "procA",
            [{"event": "y", "ts": 3.0}, {"event": "tie", "ts": 5.0}],
        )
        events = merge_traces(tmp_path)
        assert [(e.ts, e.proc) for e in events] == [
            (2.0, "procB"), (3.0, "procA"), (5.0, "procA"), (5.0, "procB"),
        ]

    def test_merged_output_is_excluded_from_rescan(self, tmp_path):
        _write_trace(tmp_path / "a.trace.jsonl", "a", [{"event": "x", "ts": 1.0}])
        out = tmp_path / "merged.trace.jsonl"
        merge_traces(tmp_path, out)
        # a second merge over the same dir must not double-count
        assert len(merge_traces(tmp_path, out)) == 1

    def test_strict_raises_on_torn_line_lenient_skips(self, tmp_path):
        p = tmp_path / "a.trace.jsonl"
        _write_trace(p, "a", [{"event": "x", "ts": 1.0}])
        with open(p, "a") as fh:
            fh.write('{"ts": 2.0, "proc": "a", "ev')  # torn final write
        with pytest.raises(ValueError):
            merge_traces(tmp_path)
        assert len(merge_traces(tmp_path, strict=False)) == 1


class TestLoadStageTimes:
    def test_multiple_stage_times_events_accumulate(self, tmp_path):
        _write_trace(
            tmp_path / "dec0.trace.jsonl", "dec0",
            [
                {"event": "stage_times", "ts": 1.0,
                 "parse": 0.5, "plan": 0.1, "execute": 1.0, "wire": 0.2,
                 "pictures": 4},
                {"event": "stage_times", "ts": 2.0,
                 "parse": 0.5, "plan": 0.3, "execute": 1.0, "wire": 0.2,
                 "pictures": 4},
            ],
        )
        st = load_stage_times(tmp_path)["dec0"]
        assert st.parse == pytest.approx(1.0)
        assert st.plan == pytest.approx(0.4)
        assert st.pictures == 8


def _span_events(proc="dec0"):
    """A tiny but complete synthetic timeline: spans, stats, stage_times."""
    return [
        TraceEvent(ts=1.0, proc=proc, event="decode", picture=0,
                   data={"ph": "B"}),
        TraceEvent(ts=1.2, proc=proc, event="decode", picture=0,
                   data={"ph": "E", "dur_s": 0.2}),
        TraceEvent(ts=1.3, proc=proc, event="exchange_wait", picture=1,
                   data={"ph": "B"}),
        TraceEvent(ts=1.4, proc=proc, event="exchange_wait", picture=1,
                   data={"ph": "E", "dur_s": 0.1}),
        TraceEvent(ts=1.5, proc=proc, event="stats",
                   data={"metrics": {}, "channels": {
                       "dec0->supervisor": {"sent_bytes": 1000,
                                            "recv_bytes": 10}}}),
        TraceEvent(ts=1.6, proc=proc, event="frame_sent", picture=0),
        TraceEvent(ts=1.7, proc=proc, event="stage_times",
                   data={"parse": 0.0, "plan": 0.0, "execute": 0.2,
                         "wire": 0.01, "pictures": 1}),
    ]


class TestChromeTraceExport:
    def test_schema_and_span_pairs(self):
        doc = to_chrome_trace(_span_events())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        evs = doc["traceEvents"]
        meta = [e for e in evs if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {m["name"] for m in meta}
        spans = [e for e in evs if e["ph"] in ("B", "E")]
        assert len(spans) == 4
        b, e = spans[0], spans[1]
        assert b["name"] == e["name"] == "decode"
        assert (b["pid"], b["tid"]) == (e["pid"], e["tid"])
        assert e["ts"] >= b["ts"]
        assert b["args"]["picture"] == 0

    def test_timestamps_rebased_to_microseconds(self):
        evs = to_chrome_trace(_span_events())["traceEvents"]
        spans = [e for e in evs if e["ph"] in ("B", "E")]
        assert spans[0]["ts"] == 0.0  # earliest event is the base
        assert spans[1]["ts"] == pytest.approx(0.2e6)

    def test_stats_become_counter_events(self):
        evs = to_chrome_trace(_span_events())["traceEvents"]
        counters = [e for e in evs if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "wire:dec0->supervisor"
        assert counters[0]["args"] == {"sent_bytes": 1000, "recv_bytes": 10}

    def test_other_events_become_instants(self):
        evs = to_chrome_trace(_span_events())["traceEvents"]
        instants = {e["name"] for e in evs if e["ph"] == "i"}
        assert "frame_sent" in instants

    def test_write_is_valid_json_file(self, tmp_path):
        path = write_chrome_trace(_span_events(), tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]


class TestReport:
    def test_build_report_aggregates(self):
        rep = build_report(_span_events())
        ps = rep.procs["dec0"]
        assert ps.span_totals["decode"] == pytest.approx(0.2)
        assert ps.span_totals["exchange_wait"] == pytest.approx(0.1)
        assert ps.picture_spans == [pytest.approx(0.2)]
        assert ps.channels["dec0->supervisor"]["sent_bytes"] == 1000
        assert ps.stage_times.execute == pytest.approx(0.2)
        assert rep.wall_s == pytest.approx(0.7)

    def test_open_span_detected(self):
        events = _span_events() + [
            TraceEvent(ts=2.0, proc="dec0", event="decode", picture=5,
                       data={"ph": "B"}),  # worker died inside
        ]
        rep = build_report(events)
        assert rep.procs["dec0"].open_spans == ["decode"]
        assert "UNFINISHED" in render_report(rep)

    def test_render_report_mentions_everything(self):
        text = render_report(build_report(_span_events()))
        for needle in (
            "Per-stage attribution", "Per-picture latency",
            "flow-control waits", "Bytes on wire", "dec0->supervisor",
        ):
            assert needle in text, f"report missing {needle!r}"

    def test_cold_start_decomposes_a_workers_fixed_cost(self):
        """spawn -> start -> first picture, and last paste -> child_exit,
        from the supervisor's and the worker's own events."""
        ev = TraceEvent
        events = [
            ev(ts=9.99, proc="supervisor", event="preload",
               data={"roles": ["dec", "root"], "modules": 330, "seconds": 0.3411}),
            ev(ts=10.0, proc="supervisor", event="spawn", data={"proc_name": "dec0"}),
            ev(ts=10.6, proc="dec0", event="start",
               data={"import_s": 0.58, "pid": 1,
                     "parse_engine": "native (/site/repro/mpeg2/_walk-x86_64-0a1b2c3d.so)",
                     "execute_engine": "python (compile failed: cc exited 1)",
                     "columns_engine": "native (/site/repro/mpeg2/_columns-x86_64-4d5e6f70.so)"}),
            ev(ts=10.7, proc="dec0", event="connect", data={"peer": "collector"}),
            ev(ts=11.0, proc="dec0", event="decode", picture=0, data={"ph": "B"}),
            ev(ts=11.1, proc="dec0", event="decode", picture=0,
               data={"ph": "E", "dur_s": 0.1}),
            ev(ts=11.4, proc="supervisor", event="frame_assembled", picture=0),
            ev(ts=11.9, proc="supervisor", event="frame_assembled", picture=1),
            ev(ts=12.0, proc="supervisor", event="child_exit",
               data={"proc_name": "dec0", "returncode": 0}),
        ]
        rep = build_report(events)
        cold = rep.cold_start()
        assert set(cold) == {"dec0"}  # the supervisor is not a worker
        assert cold["dec0"]["spawn_to_start_s"] == pytest.approx(0.6)
        assert cold["dec0"]["import_s"] == pytest.approx(0.58)
        assert cold["dec0"]["start_to_first_picture_s"] == pytest.approx(0.4)
        assert cold["dec0"]["last_frame_to_exit_s"] == pytest.approx(0.1)
        assert cold["dec0"]["parse_engine"] == "native"  # which, not from where
        assert cold["dec0"]["execute_engine"] == "python"  # ... or why not
        assert cold["dec0"]["columns_engine"] == "native"
        text = render_report(rep)
        assert "Cold start and exit" in text
        section = text[text.index("Cold start and exit"):].split("\n\n")[0]
        (row,) = [ln for ln in section.splitlines() if ln.startswith("dec0 ")]
        assert row.split()[-3:] == ["native", "python", "native"]
        # what the supervisor imported for its forks, once, is a row of its own
        (row,) = [ln for ln in text.splitlines() if ln.startswith("preload dec+root")]
        assert row.split()[2:] == ["-", "0.341", "-", "-", "-", "-", "-"]
        # a run that is not a cluster job (no spawn events) has no such section
        assert "Cold start" not in render_report(build_report(_span_events()))
        # a worker killed before it started leaves gaps, not a crash
        rep = build_report(events[1:2] + events[-1:])
        assert rep.cold_start()["dec0"]["spawn_to_start_s"] is None
        assert "Cold start and exit" in render_report(rep)
        assert "preload" not in render_report(rep)  # not the process's first job

    def test_span_tail_formats_last_events(self):
        lines = span_tail(_span_events(), n=3)
        assert len(lines) == 3
        assert "frame_sent" in lines[-2]
        assert "event" in lines[-1] or "stage_times" in lines[-1]


class TestTraceReportCli:
    def _make_rundir(self, tmp_path):
        _write_trace(
            tmp_path / "dec0.trace.jsonl", "dec0",
            [dict(event=e.event, ts=e.ts, picture=e.picture, **e.data)
             for e in _span_events()],
        )
        return tmp_path

    def test_cli_writes_report_and_perfetto_json(self, tmp_path, capsys):
        rundir = self._make_rundir(tmp_path)
        out = tmp_path / "report.txt"
        rc = cli_main(["trace-report", str(rundir), "-o", str(out)])
        assert rc == 0
        assert "Per-stage attribution" in out.read_text()
        doc = json.loads((rundir / "trace.perfetto.json").read_text())
        assert doc["traceEvents"]

    def test_cli_fails_on_torn_trace_unless_lenient(self, tmp_path):
        rundir = self._make_rundir(tmp_path)
        with open(rundir / "dec0.trace.jsonl", "a") as fh:
            fh.write('{"torn')
        assert cli_main(["trace-report", str(rundir)]) == 1
        assert cli_main(["trace-report", str(rundir), "--lenient"]) == 0

    def test_cli_rejects_missing_dir(self, tmp_path):
        assert cli_main(["trace-report", str(tmp_path / "nope")]) == 2

    def test_cli_rejects_empty_dir(self, tmp_path):
        assert cli_main(["trace-report", str(tmp_path)]) == 1


@pytest.mark.integration
class TestClusterReportEndToEnd:
    def test_report_agrees_with_stage_times_within_1pct(self, tmp_path):
        """4-process run: per-stage span totals in the report must match
        the stage_times harvest within 1% (they share measurements)."""
        from repro.cluster.runtime import ClusterSupervisor, WallConfig
        from repro.mpeg2.encoder import Encoder, EncoderConfig
        from repro.workloads.synthetic import moving_pattern_frames

        clip = moving_pattern_frames(96, 64, 6, seed=7)
        stream = Encoder(EncoderConfig(gop_size=3, b_frames=1)).encode(clip)
        sup = ClusterSupervisor(
            WallConfig(m=2, n=2, k=1, transport="unix"),
            trace_dir=str(tmp_path),
        )
        sup.decode(stream, timeout=120.0)

        events = merge_traces(tmp_path)
        rep = build_report(events)
        harvested = load_stage_times(tmp_path)
        for proc, st in harvested.items():
            spans = rep.stage_totals(proc)
            for stage in ("parse", "plan", "execute", "wire"):
                want = getattr(st, stage)
                got = spans[stage]
                assert abs(got - want) <= max(0.01 * want, 1e-3), (
                    f"{proc}.{stage}: spans {got} vs stage_times {want}"
                )

        # the supervisor auto-exported a Perfetto-loadable timeline with
        # every instrumented region present
        assert sup.perfetto_path is not None and sup.perfetto_path.exists()
        doc = json.loads(sup.perfetto_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "B"}
        for expected in (
            "parse", "plan", "execute", "wire",
            "exchange_wait", "credit_wait", "decode", "split",
        ):
            assert expected in names, f"no {expected} spans in timeline"

        text = render_report(rep)
        assert "Cross-tile imbalance" in text
        assert "Credit stalls" in text

        # the fixed cost decomposes per worker: every one of the six was
        # spawned, started (reporting how long it took to import), saw a
        # picture and was reaped after the last paste
        cold = rep.cold_start()
        assert sorted(cold) == ["dec0", "dec1", "dec2", "dec3", "root", "split0"]
        for proc, c in cold.items():
            assert c["spawn_to_start_s"] > 0, proc
            assert c["start_to_first_picture_s"] >= 0, proc
            assert c["last_frame_to_exit_s"] > 0, proc
            if c["import_s"] is not None:  # /proc-less hosts do not report it
                # process age at ``start`` (10 ms ticks): the same interval
                # seen from inside, give or take when ``spawn`` was stamped
                assert 0 < c["import_s"] < c["spawn_to_start_s"] + 0.5, (proc, c)
        assert "Cold start and exit" in text
