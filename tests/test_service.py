"""Wall service: protocol, admission, pacing ladder, fair-share pool,
drop-capable decode, and the daemon end to end (in-process threads)."""

import json
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import Decoder
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.vbv import plan_initial_fill, simulate_vbv
from repro.net.channel import ConnectPolicy, Listener
from repro.perf.export import build_report, render_report
from repro.perf.trace import read_trace_file
from repro.service import (
    AdmissionController,
    LadderConfig,
    PoolScheduler,
    ServiceClient,
    ServiceConfig,
    SessionPacer,
    WallService,
)
from repro.service.admission import (
    PoolView,
    REJECT_DRAINING,
    REJECT_OVERSIZE,
    REJECT_QUEUE_FULL,
    REJECT_VBV,
    vbv_buffer_for,
)
from repro.service.client import ServiceError
from repro.service.pacer import DegradationLadder
from repro.service.protocol import (
    SVC_RESPONSE,
    ProtocolError,
    ProtocolVersionError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.session import (
    PacedStreamDecoder,
    clean_decode_digest,
    i_picture_indices,
    peek_picture_type,
)
from repro.workloads.streams import StreamSpec, stream_by_id

SPEC = stream_by_id(5)  # fish1: 1280x720@30, 27.6 Mpixel/s demand


@pytest.fixture(scope="module")
def clip_stream():
    frames = SPEC.synthetic_frames(18, max_width=96)
    return Encoder(EncoderConfig(gop_size=6, b_frames=2)).encode(frames)


def tiny_spec(**kw) -> StreamSpec:
    base = dict(
        sid=99, name="tiny", width=96, height=64, fps=30.0, bpp=0.3,
        motion_pixels=4.0, n_frames=18, gop_size=6, b_frames=2,
    )
    base.update(kw)
    return StreamSpec(**base)


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #


class TestProtocol:
    def test_request_roundtrip_with_blob(self):
        blob = bytes(range(256)) * 3
        payload = encode_request("submit", {"weight": 2.0, "name": "x"}, blob)
        verb, fields, out = decode_request(payload)
        assert verb == "submit"
        assert fields == {"weight": 2.0, "name": "x"}
        assert out == blob

    def test_response_roundtrip(self):
        doc = decode_response(
            encode_response(True, {"sid": 3, "admission": {"action": "accept"}})
        )
        assert doc["ok"] is True and doc["sid"] == 3

    def test_error_response(self):
        doc = decode_response(encode_response(False, {}, error="nope"))
        assert doc["ok"] is False and doc["error"] == "nope"

    def test_unknown_verb_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            encode_request("explode", {})
        payload = encode_request("status", {})
        bad = payload.replace(b"status", b"statuz")
        with pytest.raises(ProtocolError):
            decode_request(bad)

    def test_version_mismatch_raises_before_fields(self):
        payload = bytearray(encode_request("ping", {}))
        payload[0] ^= 0xFF  # corrupt the little-endian version word
        with pytest.raises(ProtocolVersionError):
            decode_request(bytes(payload))

    def test_truncated_payload(self):
        payload = encode_request("ping", {"a": 1})
        with pytest.raises(ProtocolError):
            decode_request(payload[:4])

    def test_response_with_binary_tail_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response(encode_response(True, {}) + b"tail")


# --------------------------------------------------------------------- #
# admission
# --------------------------------------------------------------------- #


class TestAdmission:
    def test_decisions_are_deterministic(self):
        ac = AdmissionController(capacity_mpps=100.0)
        pool = PoolView(active_demand_mpps=50.0, queued=1, soonest_finish_s=2.5)
        a = ac.evaluate(SPEC, pool)
        b = ac.evaluate(SPEC, pool)
        assert a == b

    def test_accept_under_capacity_reports_utilization(self):
        ac = AdmissionController(capacity_mpps=100.0)
        d = ac.evaluate(SPEC, PoolView())
        assert d.accepted and d.reason == "ok"
        assert d.utilization == pytest.approx(SPEC.demand_mpps / 100.0)
        assert d.vbv["underflows"] == 0 and d.vbv["overflows"] == 0

    def test_oversize_rejected_with_reason(self):
        ac = AdmissionController(capacity_mpps=10.0)
        d = ac.evaluate(SPEC, PoolView())
        assert d.action == "reject" and d.reason == REJECT_OVERSIZE
        assert "Mpixel/s" in d.detail

    def test_orion4_fails_vbv_deterministically(self):
        # orion4's modeled I-picture exceeds even the MP@HL buffer, so no
        # vbv_delay can save it: a stable machine-readable rejection.
        ac = AdmissionController(capacity_mpps=1000.0)
        d = ac.evaluate(stream_by_id(16), PoolView())
        assert d.action == "reject" and d.reason == REJECT_VBV
        assert d.vbv["underflows"] > 0
        assert d.to_dict()["reason"] == REJECT_VBV

    def test_all_other_table4_streams_pass_vbv(self):
        ac = AdmissionController(capacity_mpps=1000.0)
        for sid in range(1, 16):
            d = ac.evaluate(stream_by_id(sid), PoolView())
            assert d.accepted, (sid, d.reason, d.detail)

    def test_queue_then_queue_full(self):
        ac = AdmissionController(capacity_mpps=30.0, queue_slots=1)
        busy = PoolView(active_demand_mpps=28.0, queued=0, soonest_finish_s=4.0)
        d = ac.evaluate(SPEC, busy)
        assert d.action == "queue" and d.retry_after_s == 4.0
        full = PoolView(active_demand_mpps=28.0, queued=1, soonest_finish_s=4.0)
        d2 = ac.evaluate(SPEC, full)
        assert d2.action == "reject" and d2.reason == REJECT_QUEUE_FULL
        assert d2.retry_after_s == 4.0  # structured retry hint survives

    def test_bad_spec_rejected(self):
        ac = AdmissionController(capacity_mpps=100.0)
        d = ac.evaluate(tiny_spec(fps=-1.0), PoolView())
        assert d.action == "reject" and d.reason == "reject-bad-spec"

    def test_level_appropriate_buffers(self):
        assert vbv_buffer_for(stream_by_id(1)) == 1_835_008  # 720x480 ML
        assert vbv_buffer_for(stream_by_id(5)) == 7_340_032  # 720p High-1440
        assert vbv_buffer_for(stream_by_id(10)) == 9_781_248  # 1080 HL


class TestVBVPlanning:
    def test_planner_finds_fill_steady_stream(self):
        fill = plan_initial_fill([1000] * 30, 30_000, 30.0, buffer_bits=50_000)
        assert fill is not None
        res = simulate_vbv(
            [1000] * 30, 30_000, 30.0, buffer_bits=50_000,
            initial_delay=fill / 30_000,
        )
        assert res.ok

    def test_planner_infeasible_when_picture_exceeds_buffer(self):
        assert (
            plan_initial_fill([60_000], 30_000, 30.0, buffer_bits=50_000) is None
        )

    def test_planner_fill_respects_overflow_band(self):
        # tiny pictures force occupancy to rise; the planner must leave
        # headroom, and its choice must replay clean
        sizes = [10] * 10 + [9_000]
        fill = plan_initial_fill(sizes, 30_000, 30.0, buffer_bits=20_000)
        assert fill is not None
        res = simulate_vbv(
            sizes, 30_000, 30.0, buffer_bits=20_000, initial_delay=fill / 30_000
        )
        assert res.ok


# --------------------------------------------------------------------- #
# ladder + pacer
# --------------------------------------------------------------------- #


class TestLadder:
    def test_never_drops_i_pictures(self):
        ladder = DegradationLadder()
        ladder.update(100.0)  # deeply late: level 3
        assert ladder.level == 3
        assert not ladder.should_drop(PictureType.I, 0, 12)
        assert ladder.should_drop(PictureType.P, 1, 12)
        assert ladder.should_drop(PictureType.B, 2, 12)

    def test_levels_enter_in_order(self):
        ladder = DegradationLadder(LadderConfig(enter_levels=(1.0, 3.0, 6.0)))
        assert ladder.update(0.5) == 0
        assert ladder.update(1.5) == 1
        assert ladder.update(3.5) == 2
        assert ladder.update(6.5) == 3
        assert ladder.peak_level == 3

    def test_hysteresis_blocks_flapping(self):
        ladder = DegradationLadder(
            LadderConfig(enter_levels=(1.0, 3.0, 6.0), exit_hysteresis=0.5)
        )
        ladder.update(1.5)
        assert ladder.level == 1
        assert ladder.update(0.8) == 1  # above 0.5 * 1.0: stays degraded
        assert ladder.update(0.4) == 0  # clearly recovered

    def test_level2_drops_only_gop_tail_p(self):
        ladder = DegradationLadder()
        ladder.update(4.0)  # level 2
        assert not ladder.should_drop(PictureType.P, 1, 12)  # GOP head
        assert ladder.should_drop(PictureType.P, 7, 12)  # GOP tail
        assert ladder.should_drop(PictureType.B, 2, 12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LadderConfig(enter_levels=(3.0, 1.0, 6.0))
        with pytest.raises(ValueError):
            LadderConfig(exit_hysteresis=1.5)
        with pytest.raises(ValueError):
            LadderConfig(lookahead=0)


class TestPacer:
    def test_deadlines_on_presentation_clock(self):
        p = SessionPacer(fps=10.0)
        p.start(100.0)
        assert p.deadline(0) == pytest.approx(100.1)
        assert p.deadline(9) == pytest.approx(101.0)

    def test_gate_limits_decode_ahead(self):
        p = SessionPacer(fps=10.0, config=LadderConfig(lookahead=2))
        p.start(100.0)
        assert p.gate_time(0) == 100.0  # within lookahead of t0
        assert p.gate_time(10) == pytest.approx(100.0 + 1.1 - 0.2)

    def test_decide_drops_b_when_late(self):
        p = SessionPacer(fps=10.0)
        p.start(100.0)
        # picture 0's deadline is 100.1; now = 100.35 -> 2.5 periods late
        drop, level = p.decide(0, PictureType.B, 2, 6, now=100.35)
        assert drop and level == 1
        drop_i, _ = p.decide(0, PictureType.I, 0, 6, now=100.35)
        assert not drop_i


# --------------------------------------------------------------------- #
# scheduler
# --------------------------------------------------------------------- #


class StubSession:
    def __init__(self, name, weight=1.0, gate=0.0):
        self.name = name
        self.weight = weight
        self.vt = 0.0
        self.in_flight = False
        self.gate = gate

    def wants_lease(self, now):
        return not self.in_flight and self.gate <= now

    def gate_time(self):
        return self.gate


class TestScheduler:
    def test_weighted_fair_share(self):
        clock = [0.0]
        sched = PoolScheduler(now_fn=lambda: clock[0])
        a = StubSession("a", weight=1.0)
        b = StubSession("b", weight=2.0)
        sched.add(a)
        sched.add(b)
        counts = Counter()
        for _ in range(300):
            s = sched.next_lease(timeout=0.0)
            assert s is not None
            counts[s.name] += 1
            sched.complete(s, cost_s=0.01)  # equal per-picture cost
        # weight 2 gets twice the leases of weight 1
        assert counts["b"] == pytest.approx(2 * counts["a"], rel=0.05)

    def test_gated_session_is_invisible(self):
        clock = [0.0]
        sched = PoolScheduler(now_fn=lambda: clock[0])
        gated = StubSession("g", gate=10.0)
        open_ = StubSession("o")
        sched.add(gated)
        sched.add(open_)
        for _ in range(5):
            s = sched.next_lease(timeout=0.0)
            assert s is open_  # work-conserving: gated never picked
            sched.complete(s, 0.01)
        clock[0] = 11.0
        # now the gated session is behind in vt and must win
        s = sched.next_lease(timeout=0.0)
        assert s is gated

    def test_late_joiner_starts_at_pool_virtual_time(self):
        sched = PoolScheduler(now_fn=lambda: 0.0)
        old = StubSession("old")
        old.vt = 5.0
        sched.add(old)
        newcomer = StubSession("new")
        sched.add(newcomer)
        assert newcomer.vt == 5.0  # no catch-up monopoly

    def test_timeout_returns_none_and_counts_idle(self):
        sched = PoolScheduler()
        assert sched.next_lease(timeout=0.01) is None
        assert sched.idle_waits == 1

    def test_close_unblocks_waiters(self):
        sched = PoolScheduler()
        out = []

        def wait():
            out.append(sched.next_lease(timeout=5.0))

        t = threading.Thread(target=wait)
        t.start()
        time.sleep(0.05)
        sched.close()
        t.join(timeout=2.0)
        assert out == [None]


# --------------------------------------------------------------------- #
# drop-capable decode
# --------------------------------------------------------------------- #


class TestPacedStreamDecoder:
    def test_no_drop_run_is_bit_identical(self, clip_stream):
        ref = Decoder().decode(clip_stream)
        d = PacedStreamDecoder(clip_stream)
        out = []
        while not d.done:
            r = d.step(drop=False)
            if r.frame is not None:
                out.append(r.frame)
        tail = d.flush()
        if tail is not None:
            out.append(tail)
        assert len(out) == len(ref)
        for a, b in zip(out, ref):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.cb, b.cb)
            assert np.array_equal(a.cr, b.cr)

    def test_meta_matches_headers(self, clip_stream):
        d = PacedStreamDecoder(clip_stream)
        for unit, meta in zip(d.pictures, d.meta):
            assert peek_picture_type(unit.data) == meta.ptype
        assert d.meta[0].ptype == PictureType.I and d.meta[0].gop_pos == 0

    def test_b_drops_leave_anchors_bit_identical(self, clip_stream):
        ref = Decoder().decode(clip_stream)
        d = PacedStreamDecoder(clip_stream)
        anchors = []
        while not d.done:
            meta = d.meta[d.next_index]
            r = d.step(drop=meta.ptype == PictureType.B)
            if r.frame is not None:
                anchors.append((r.index, r.frame))
        tail = d.flush()
        assert tail is not None
        assert all(not np.array_equal(f.y, 0) for _, f in anchors)
        # every emitted anchor is bit-identical to some reference frame
        ref_ys = [fr.y for fr in ref]
        for _, frame in anchors:
            assert any(np.array_equal(frame.y, y) for y in ref_ys)

    def test_p_drop_breaks_gop_until_next_i(self, clip_stream):
        d = PacedStreamDecoder(clip_stream)
        # drop the first P that has non-I pictures after it in its GOP
        broke_at = next(
            i
            for i, m in enumerate(d.meta)
            if m.ptype == PictureType.P
            and i + 1 < len(d.meta)
            and d.meta[i + 1].ptype != PictureType.I
        )
        next_i = next(
            i
            for i, m in enumerate(d.meta)
            if i > broke_at and m.ptype == PictureType.I
        )
        forced = []
        while not d.done:
            i = d.next_index
            r = d.step(drop=i == broke_at)
            if r.forced:
                forced.append(i)
            if broke_at < i < next_i:
                # broken chain: nothing decodes until the next keyframe
                assert not r.decoded and r.forced
            elif i > next_i:
                assert r.decoded  # the I re-anchored the chain
        d.flush()
        assert forced == list(range(broke_at + 1, next_i))

    def test_dropping_i_is_a_bug(self, clip_stream):
        d = PacedStreamDecoder(clip_stream)
        with pytest.raises(ValueError):
            d.step(drop=True)  # picture 0 is an I


# --------------------------------------------------------------------- #
# the daemon, end to end (threads in this process)
# --------------------------------------------------------------------- #


@pytest.fixture()
def service(tmp_path):
    # The ladder the measurement spine calibrated for a shared host
    # (benchmarks/spine: SERVICE_LADDER): with the default (1, 3, 6) one
    # stall longer than a 33 ms frame period sheds a B-picture, and "no
    # drops under capacity" would test how busy the box is.
    cfg = ServiceConfig(
        capacity_mpps=200.0, workers=2, queue_slots=2, enter_levels=(4, 8, 16)
    )
    svc = WallService(tmp_path, cfg)
    svc.start()
    yield svc, tmp_path
    svc.stop()


def submit_tiny(client, clip_stream, **kw):
    return client.submit(SPEC, stream=clip_stream, **kw)


class TestServiceEndToEnd:
    def test_concurrent_sessions_no_drops_under_capacity(
        self, service, clip_stream
    ):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            sids = [
                submit_tiny(client, clip_stream, name=f"s{i}")["sid"]
                for i in range(4)
            ]
            finals = [client.wait(sid, timeout=90.0) for sid in sids]
        for f in finals:
            assert f["state"] == "completed"
            assert f["dropped_b"] == 0 and f["dropped_p"] == 0
            assert f["released"] == 18
            assert f["peak_degrade_level"] == 0

    def test_oversubscribed_sessions_degrade_reference_safely(
        self, tmp_path, clip_stream
    ):
        cfg = ServiceConfig(capacity_mpps=200.0, workers=1)
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                sids = [
                    submit_tiny(
                        client, clip_stream, name=f"o{i}", slowdown_s=0.05
                    )["sid"]
                    for i in range(3)
                ]
                finals = [client.wait(sid, timeout=120.0) for sid in sids]
        total_drops = 0
        for f in finals:
            assert f["state"] == "completed"
            assert f["decoded"]["I"] == 3  # every keyframe survived
            total_drops += f["dropped_b"] + f["dropped_p"]
            assert f["peak_degrade_level"] >= 1
        assert total_drops > 0

        # drop ledger: trace events agree with summary counters exactly
        events = read_trace_file(tmp_path / "service.trace.jsonl")
        drops = Counter(
            e.data["sid"] for e in events if e.event == "drop"
        )
        summaries = {
            e.data["sid"]: e.data["dropped_b"] + e.data["dropped_p"]
            for e in events
            if e.event == "session_summary"
        }
        assert dict(drops) == {k: v for k, v in summaries.items() if v}
        # nothing in the stream ever dropped an I
        assert all(
            e.data["ptype"] in ("P", "B")
            for e in events
            if e.event == "drop"
        )

    def test_structured_rejection_is_deterministic(self, tmp_path, clip_stream):
        # pool big enough that orion4 clears the capacity check and fails
        # on its VBV model instead — the deterministic conformance reject
        with WallService(tmp_path, ServiceConfig(capacity_mpps=1000.0)) as svc:
            with ServiceClient(tmp_path) as client:
                replies = [client.submit(stream_by_id(16)) for _ in range(2)]
        for r in replies:
            assert "sid" not in r
            assert r["admission"]["action"] == "reject"
            assert r["admission"]["reason"] == REJECT_VBV
        assert replies[0]["admission"] == replies[1]["admission"]

    def test_oversize_rejection_names_capacity(self, tmp_path, clip_stream):
        with WallService(tmp_path, ServiceConfig(capacity_mpps=5.0)) as svc:
            with ServiceClient(tmp_path) as client:
                r = client.submit(SPEC, stream=clip_stream)
        assert r["admission"]["reason"] == REJECT_OVERSIZE
        assert "retry_after_s" not in r["admission"]  # waiting cannot help

    def test_queue_promotion(self, tmp_path, clip_stream):
        # capacity for one fish stream at a time; second waits its turn
        cfg = ServiceConfig(capacity_mpps=30.0, workers=1, queue_slots=2)
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                first = submit_tiny(client, clip_stream, name="front")
                second = submit_tiny(client, clip_stream, name="back")
                assert first["admission"]["action"] == "accept"
                assert second["admission"]["action"] == "queue"
                assert second["admission"]["retry_after_s"] > 0
                done = client.wait(second["sid"], timeout=90.0)
        assert done["state"] == "completed"
        assert done["released"] == 18

    def test_cancel_mid_session(self, tmp_path, clip_stream):
        cfg = ServiceConfig(capacity_mpps=200.0, workers=1)
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                sid = submit_tiny(
                    client, clip_stream, name="doomed", slowdown_s=0.05
                )["sid"]
                time.sleep(0.2)
                reply = client.cancel(sid, reason="test says stop")
                final = client.wait(sid, timeout=30.0)
        assert reply["cancelled"] is True
        assert final["state"] == "cancelled"
        assert final["reason"] == "test says stop"
        events = read_trace_file(tmp_path / "service.trace.jsonl")
        summaries = [e for e in events if e.event == "session_summary"]
        assert len(summaries) == 1  # cancelled sessions still summarize

    def test_status_unknown_sid_is_an_error(self, service, clip_stream):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            with pytest.raises(ServiceError):
                client.status(777)

    def test_ping_reports_pool_state(self, service, clip_stream):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            info = client.ping()
        assert info["capacity_mpps"] == 200.0
        assert info["workers"] == 2
        assert info["protocol"] == 1

    def test_shutdown_verb_stops_daemon(self, tmp_path):
        svc = WallService(tmp_path, ServiceConfig())
        svc.start()
        with ServiceClient(tmp_path) as client:
            client.shutdown(reason="test over")
        deadline = time.monotonic() + 10.0
        while not svc._stop.is_set() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert svc._stop.is_set()
        svc.stop()

    def test_shutdown_ack_flushes_before_teardown(self, tmp_path):
        # Regression: the shutdown reply must reach the requester before
        # teardown begins (no retries to paper over a lost ack), and a
        # concurrent stop() — the foreground serve loop waking on
        # ``_stop`` — must block until cleanup finished, so the process
        # cannot exit while the reply or the final trace events are
        # still being written.
        svc = WallService(tmp_path, ServiceConfig())
        svc.start()
        with ServiceClient(tmp_path, retries=0) as client:
            reply = client.shutdown(reason="ack ordering")
        assert reply["stopping"] is True
        svc.stop()  # second caller: returns only after cleanup is done
        assert svc._stop_done.is_set()
        events = read_trace_file(tmp_path / "service.trace.jsonl")
        assert any(e.event == "service_stop" for e in events)

    def test_tcp_transport(self, tmp_path, clip_stream):
        cfg = ServiceConfig(capacity_mpps=200.0, transport="tcp")
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path, transport="tcp") as client:
                sid = submit_tiny(client, clip_stream, name="tcp")["sid"]
                final = client.wait(sid, timeout=90.0)
        assert final["state"] == "completed"


class TestTraceReportSessions:
    def test_report_attributes_sessions_and_checks_ledger(
        self, tmp_path, clip_stream
    ):
        cfg = ServiceConfig(capacity_mpps=200.0, workers=1)
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                sid = submit_tiny(
                    client, clip_stream, name="traced", slowdown_s=0.05
                )["sid"]
                client.wait(sid, timeout=90.0)
                client.submit(stream_by_id(16))  # one structured rejection
        events = read_trace_file(tmp_path / "service.trace.jsonl")
        report = build_report(events)
        assert sid in report.sessions
        agg = report.sessions[sid]
        assert agg.summary is not None
        assert agg.consistent()
        assert agg.decode_count == agg.summary["decoded"]["I"] + (
            agg.summary["decoded"]["P"] + agg.summary["decoded"]["B"]
        )
        assert len(report.admission_rejects) == 1
        text = render_report(report)
        assert "Service sessions" in text
        assert "Admission rejections" in text
        assert "reject-oversize: 1" in text


# --------------------------------------------------------------------- #
# config knobs (satellites)
# --------------------------------------------------------------------- #


class TestConfigKnobs:
    def test_wallconfig_connect_policy_roundtrip(self):
        from repro.cluster.runtime import WallConfig

        cfg = WallConfig(
            connect_retry_interval=0.01, connect_backoff=2.0,
            connect_max_interval=0.1,
        )
        p = cfg.connect_policy
        assert isinstance(p, ConnectPolicy)
        assert (p.retry_interval, p.backoff, p.max_interval) == (0.01, 2.0, 0.1)
        again = WallConfig.from_dict(cfg.to_dict())
        assert again.connect_policy == p

    def test_wallconfig_teardown_budgets_validated(self):
        from repro.cluster.runtime import WallConfig

        with pytest.raises(ValueError):
            WallConfig(terminate_grace_s=0.0)
        with pytest.raises(ValueError):
            WallConfig(teardown_kill_s=-1.0)

    def test_service_config_roundtrip_and_validation(self):
        cfg = ServiceConfig(capacity_mpps=50.0, enter_levels=(2.0, 4.0, 8.0))
        again = ServiceConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        assert again == cfg
        assert again.ladder().enter_levels == (2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(transport="carrier-pigeon")

    def test_metrics_prune(self):
        from repro.perf.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("session.7.leases").inc()
        reg.gauge("session.7.level").set(2)
        reg.histogram("session.7.latency").observe(0.1)
        reg.counter("pool.leases").inc()
        assert reg.prune("session.7.") == 3
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["pool.leases"]


# --------------------------------------------------------------------- #
# client retry, drain, and resume (fleet-facing service surface)
# --------------------------------------------------------------------- #


class TestClientRetryOnFlappingListener:
    def test_request_survives_connection_resets(self, tmp_path):
        """Regression: a listener that accepts and immediately drops two
        connections (a restarting daemon) must not fail the request —
        the client re-dials with backoff and completes on the third."""
        lst = Listener(("unix", str(tmp_path / "service.sock")))
        drops = []

        def serve():
            for i in range(2):  # flap: accept, then slam the door
                ch = lst.accept(timeout=10.0)
                drops.append(i)
                ch.close()
            ch = lst.accept(timeout=10.0)
            msg = ch.recv(timeout=10.0)
            verb, _fields, _blob = decode_request(msg.payload)
            ch.send(SVC_RESPONSE, encode_response(True, {"echo": verb}))
            time.sleep(0.2)
            ch.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        try:
            with ServiceClient(
                tmp_path, connect_timeout=5.0, request_timeout=5.0
            ) as client:
                reply = client.request("ping", {})
        finally:
            lst.close()
            t.join(timeout=5.0)
        assert reply["echo"] == "ping"
        assert len(drops) == 2

    def test_retries_exhausted_raises(self, tmp_path):
        lst = Listener(("unix", str(tmp_path / "service.sock")))

        def serve():
            while True:
                try:
                    lst.accept(timeout=5.0).close()
                except Exception:  # noqa: BLE001 - listener torn down
                    return

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        try:
            with ServiceClient(
                tmp_path, connect_timeout=2.0, request_timeout=2.0, retries=2
            ) as client:
                with pytest.raises(Exception):
                    client.request("ping", {})
        finally:
            lst.close()
            t.join(timeout=5.0)


class TestDrainVerb:
    def test_drain_rejects_submits_until_undrained(self, tmp_path, clip_stream):
        cfg = ServiceConfig(capacity_mpps=200.0, workers=1)
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                assert client.ping()["draining"] is False
                r = client.drain(reason="rolling restart")
                assert r["draining"] is True
                rej = submit_tiny(client, clip_stream, name="refused")
                assert "sid" not in rej
                assert rej["admission"]["action"] == "reject"
                assert rej["admission"]["reason"] == REJECT_DRAINING
                assert client.ping()["draining"] is True
                r2 = client.undrain(reason="restart done")
                assert r2["draining"] is False
                ok = submit_tiny(client, clip_stream, name="accepted")
                assert "sid" in ok
                final = client.wait(ok["sid"], timeout=90.0)
        assert final["state"] == "completed"

    def test_drain_leaves_running_sessions_alone(self, tmp_path, clip_stream):
        cfg = ServiceConfig(capacity_mpps=200.0, workers=1)
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                sid = submit_tiny(client, clip_stream, name="rider")["sid"]
                client.drain(reason="drain while busy")
                final = client.wait(sid, timeout=90.0)
        assert final["state"] == "completed"
        assert final["released"] == 18


class TestStartAtResume:
    def test_resume_output_is_bit_identical_from_anchor(
        self, tmp_path, clip_stream
    ):
        """A session submitted with ``start_at`` (the failover replay path)
        reports exactly the digest of a clean decode from that anchor."""
        anchors = i_picture_indices(clip_stream)
        assert anchors[0] == 0 and len(anchors) >= 2
        k = anchors[1]
        cfg = ServiceConfig(
            capacity_mpps=200.0, workers=1, enter_levels=(1e9, 1e9, 1e9)
        )
        with WallService(tmp_path, cfg) as svc:
            with ServiceClient(tmp_path) as client:
                sid = submit_tiny(
                    client, clip_stream, name="resumed", start_at=k
                )["sid"]
                final = client.wait(sid, timeout=90.0)
        assert final["state"] == "completed"
        assert final["start_at"] == k
        assert final["output_digest"] == clean_decode_digest(
            clip_stream, start_at=k
        )

    def test_start_at_must_be_an_i_picture(self, clip_stream):
        with pytest.raises(ValueError):
            PacedStreamDecoder(clip_stream, start_at=1)  # coded 1 is not I

    def test_negative_start_at_is_a_protocol_error(self, service, clip_stream):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            with pytest.raises(ServiceError):
                client.request(
                    "submit",
                    {"spec": SPEC.to_dict(), "start_at": -3},
                )
