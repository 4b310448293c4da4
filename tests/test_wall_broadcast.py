"""Wall broadcast plane: tune-in anchors, decode margins, bit-exact
tile receivers, presentation clock, and the broadcast session kind."""

import threading

import numpy as np
import pytest

from repro.mpeg2.constants import PictureType
from repro.mpeg2.decoder import decode_stream
from repro.mpeg2.encoder import Encoder, EncoderConfig
from repro.mpeg2.parser import PictureScanner
from repro.service import ServiceClient, ServiceConfig, WallService
from repro.bitstream import BitstreamError
from repro.mpeg2.structures import SequenceHeader
from repro.wall.broadcast import (
    WallBroadcaster,
    _parse_picture_header,
    decode_margins,
    decode_seq_payload,
    encode_seq_payload,
    tune_anchors,
)
from repro.wall.clock import PresentationClock
from repro.wall.config import WallSpec
from repro.wall.display import assemble_wall
from repro.wall.receiver import WallReceiver, tile_decode_digest
from repro.workloads.streams import stream_by_id

SPEC = stream_by_id(5)


@pytest.fixture(scope="module")
def clip_stream():
    frames = SPEC.synthetic_frames(18, max_width=96)
    return Encoder(EncoderConfig(gop_size=6, b_frames=2)).encode(frames)


@pytest.fixture(scope="module")
def wall_spec():
    return WallSpec(cols=2, rows=2, overlap=0, name="testwall")


def unix_addr(tmp_path, name="wall.sock"):
    return ("unix", str(tmp_path / name))


# --------------------------------------------------------------------- #
# the W_SEQ payload: JSON and coded header bytes, nothing that executes
# --------------------------------------------------------------------- #


def test_every_byte_mutation_of_a_seq_payload_parses_or_is_refused(clip_stream):
    """The one record a receiver takes from a multicast group before it has
    checked anything: whatever a byte of it is changed to, decoding returns
    a (meta, header) pair or raises ``ValueError`` / ``BitstreamError``."""
    sequence, _ = PictureScanner(clip_stream).scan()
    meta = {"width": sequence.width, "height": sequence.height, "anchors": [0, 6, 12]}
    payload = encode_seq_payload(meta, sequence)
    assert decode_seq_payload(payload) == (meta, sequence)
    outcomes = {"parsed": 0, "refused": 0}
    for at in range(len(payload)):
        for value in (0x00, 0xFF, payload[at] ^ 0x01, payload[at] ^ 0x80):
            damaged = payload[:at] + bytes([value]) + payload[at + 1 :]
            try:
                got_meta, got = decode_seq_payload(damaged)
            except (ValueError, BitstreamError):
                outcomes["refused"] += 1
            else:
                assert isinstance(got_meta, dict) and isinstance(got, SequenceHeader)
                outcomes["parsed"] += 1
    assert outcomes["parsed"] and outcomes["refused"]
    for cut in range(len(payload)):
        with pytest.raises((ValueError, BitstreamError)):
            decode_seq_payload(payload[:cut])


# --------------------------------------------------------------------- #
# anchors and margins
# --------------------------------------------------------------------- #


class TestAnchorsAndMargins:
    def test_anchors_are_i_pictures(self, clip_stream):
        _, pictures = PictureScanner(clip_stream).scan()
        anchors = tune_anchors(pictures)
        assert anchors and anchors[0] == 0
        assert anchors == sorted(set(anchors))
        for a in anchors:
            h = _parse_picture_header(pictures[a].data)
            assert h.picture_type == PictureType.I

    def test_margins_cover_every_picture(self, clip_stream):
        _, pictures = PictureScanner(clip_stream).scan()
        margins = decode_margins(pictures)
        assert len(margins) == len(pictures)
        assert all(m >= 0 for m in margins)
        # references carry downstream motion requirements; with B-frames
        # in the clip at least one reference must demand a margin
        assert max(margins) > 0

    def test_open_gop_not_an_anchor(self):
        frames = SPEC.synthetic_frames(12, max_width=96)
        stream = Encoder(
            EncoderConfig(gop_size=6, b_frames=2, closed_gop=False)
        ).encode(frames)
        _, pictures = PictureScanner(stream).scan()
        # an open GOP's leading B-frames reference the previous GOP, so
        # only picture 0 (which needs no prior state) may tune a joiner
        assert tune_anchors(pictures) == [0]


# --------------------------------------------------------------------- #
# end to end: broadcast -> 4 receivers -> bit-exact wall
# --------------------------------------------------------------------- #


class TestWallEndToEnd:
    def test_four_tiles_bit_exact(self, tmp_path, clip_stream, wall_spec):
        bc = WallBroadcaster(
            clip_stream, wall_spec, unix_addr(tmp_path), mode="stream"
        )
        try:
            layout = wall_spec.to_layout(
                bc.sequence.width, bc.sequence.height
            )
            last = {}
            summaries = {}

            def run_tile(tid):
                rx = WallReceiver(
                    bc.control_address,
                    tid,
                    on_frame=lambda i, f, t=tid: last.__setitem__(t, f),
                )
                with rx:
                    summaries[tid] = rx.run(max_wall_s=60.0)

            threads = [
                threading.Thread(target=run_tile, args=(t,), daemon=True)
                for t in range(4)
            ]
            for t in threads:
                t.start()
            bc.sender.wait_subscribers(4, timeout=20.0)
            bc.run(rate_fps=None)
            for t in threads:
                t.join(timeout=60.0)

            assert set(summaries) == {0, 1, 2, 3}
            for tid, s in summaries.items():
                assert s["state"] == "done"
                assert s["tuned_at"] == 0
                assert s["digest"] == tile_decode_digest(
                    clip_stream, layout, tid, start_at=0
                )
            # single-encode fan-out: encodes track pictures, not receivers
            st = bc.stats()
            assert st["encodes"] == st["n_pictures"] + 2  # + W_SEQ + W_END
            assert st["fanout_sends"] >= 4 * st["encodes"]

            # assembled wall == sequential decode, bit for bit
            wall = assemble_wall(layout, last)
            ref = decode_stream(clip_stream)[-1]
            assert np.array_equal(wall.y, ref.y)
            assert np.array_equal(wall.cb, ref.cb)
            assert np.array_equal(wall.cr, ref.cr)
        finally:
            bc.close()

    def test_receivers_in_one_process_decode_one_picture_at_a_time(
        self, tmp_path, clip_stream, wall_spec, monkeypatch
    ):
        """Two receivers inside ``reconstruct_picture`` at once would be
        trading the GIL at every numpy call; they take turns instead."""
        import time

        from repro.wall import receiver as receiver_module

        real = receiver_module.reconstruct_picture
        inside, most = [0], [0]

        def reconstruct(*args, **kwargs):
            inside[0] += 1
            most[0] = max(most[0], inside[0])
            time.sleep(0.002)  # drops the GIL: anyone allowed in would come
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(receiver_module, "reconstruct_picture", reconstruct)
        bc = WallBroadcaster(clip_stream, wall_spec, unix_addr(tmp_path), mode="stream")
        try:
            layout = wall_spec.to_layout(bc.sequence.width, bc.sequence.height)
            summaries = {}

            def run_tile(tid):
                with WallReceiver(bc.control_address, tid) as rx:
                    summaries[tid] = rx.run(max_wall_s=60.0)

            threads = [
                threading.Thread(target=run_tile, args=(t,), daemon=True) for t in range(4)
            ]
            for t in threads:
                t.start()
            bc.sender.wait_subscribers(4, timeout=20.0)
            bc.run(rate_fps=None)
            for t in threads:
                t.join(timeout=60.0)
            assert most[0] == 1
            for tid in range(4):
                assert summaries[tid]["state"] == "done"
                assert summaries[tid]["digest"] == tile_decode_digest(
                    clip_stream, layout, tid, start_at=0
                )
        finally:
            bc.close()

    def test_late_joiner_tunes_at_next_anchor(
        self, tmp_path, clip_stream, wall_spec
    ):
        bc = WallBroadcaster(
            clip_stream, wall_spec, unix_addr(tmp_path), mode="stream"
        )
        try:
            layout = wall_spec.to_layout(bc.sequence.width, bc.sequence.height)
            bc.publish_sequence()
            for i in range(8):  # cursor lands mid-GOP
                bc.publish_picture(i)
            rx = WallReceiver(bc.control_address, 0, name="late0")
            expected = next(a for a in bc.anchors if a > 7)
            assert rx.start_at == expected
            for i in range(8, len(bc.pictures)):
                bc.publish_picture(i)
            bc.publish_end()
            s = rx.run(max_wall_s=60.0)
            rx.close()
            assert s["state"] == "done"
            assert s["tuned_at"] == expected
            assert s["dropped_tuning"] == expected - 8
            assert s["digest"] == tile_decode_digest(
                clip_stream, layout, 0, start_at=expected
            )
        finally:
            bc.close()


# --------------------------------------------------------------------- #
# presentation clock
# --------------------------------------------------------------------- #


class TestPresentationClock:
    def test_free_run_releases_everything(self):
        clk = PresentationClock(fps=None)
        assert all(clk.offer(i) for i in range(5))
        assert clk.released == 5 and clk.dropped_late == 0

    def test_due_timeline(self):
        clk = PresentationClock(fps=10.0, epoch=100.0, latency_s=0.25)
        assert clk.due(0) == pytest.approx(100.25)
        assert clk.due(10) == pytest.approx(101.25)

    def test_early_frame_sleeps_until_due(self):
        now = [100.0]
        slept = []
        clk = PresentationClock(
            fps=10.0,
            epoch=100.0,
            latency_s=0.25,
            time_fn=lambda: now[0],
            sleep_fn=slept.append,
        )
        assert clk.offer(0)
        assert slept == [pytest.approx(0.25)]
        assert clk.released == 1

    def test_late_frame_dropped_and_accounted(self):
        now = [105.0]  # frame 0 due at 100.25: hopelessly late
        clk = PresentationClock(
            fps=10.0,
            epoch=100.0,
            latency_s=0.25,
            time_fn=lambda: now[0],
            sleep_fn=lambda s: None,
        )
        assert not clk.offer(0)
        assert clk.dropped_late == 1 and clk.released == 0
        assert clk.last_lag_s == pytest.approx(4.75)
        d = clk.to_dict()
        assert d["dropped_late"] == 1
        assert d["max_lag_s"] == pytest.approx(4.75)

    def test_tolerance_admits_slightly_late(self):
        now = [100.30]
        clk = PresentationClock(
            fps=10.0,
            epoch=100.0,
            latency_s=0.25,
            late_tolerance_s=0.1,
            time_fn=lambda: now[0],
            sleep_fn=lambda s: None,
        )
        assert clk.offer(0)
        assert clk.dropped_late == 0


# --------------------------------------------------------------------- #
# the broadcast session kind on the daemon
# --------------------------------------------------------------------- #


@pytest.fixture()
def service(tmp_path):
    cfg = ServiceConfig(capacity_mpps=200.0, workers=2, queue_slots=2)
    svc = WallService(tmp_path, cfg)
    svc.start()
    yield svc, tmp_path
    svc.stop()


class TestBroadcastSessionKind:
    def test_submit_publishes_and_receiver_matches_oracle(
        self, service, clip_stream, wall_spec
    ):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            reply = client.submit(
                SPEC,
                stream=clip_stream,
                name="bcast1",
                kind="broadcast",
                wall=wall_spec.to_dict(),
                rate_fps=10.0,  # hold the publish open for the subscribe
            )
            assert reply["admission"]["action"] == "accept"
            info = reply["broadcast"]
            assert info["anchors"][0] == 0
            control = tuple(info["control"])
            rx = WallReceiver(control, 2, name="svc-tile2")
            s = rx.run(max_wall_s=60.0)
            layout = rx.layout  # raster-true geometry from the broadcast
            rx.close()
            # the daemon free-runs from submit, so the receiver may tune
            # late; the oracle is keyed on its actual tune-in point
            assert s["digest"] == tile_decode_digest(
                clip_stream, layout, 2, start_at=s["tuned_at"]
            )
            done = client.wait(reply["sid"], timeout=30.0)
            assert done["state"] == "completed"
            assert done["kind"] == "broadcast"

    def test_cancel_mid_broadcast(self, service, clip_stream, wall_spec):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            reply = client.submit(
                SPEC,
                stream=clip_stream,
                name="bcast2",
                kind="broadcast",
                wall=wall_spec.to_dict(),
                rate_fps=2.0,  # slow publish so the cancel lands mid-run
            )
            sid = reply["sid"]
            out = client.cancel(sid)
            assert out["cancelled"] is True
            done = client.wait(sid, timeout=30.0)
            assert done["state"] == "cancelled"

    def test_broadcasts_do_not_consume_pool_capacity(
        self, service, clip_stream, wall_spec
    ):
        svc, rundir = service
        with ServiceClient(rundir) as client:
            client.submit(
                SPEC,
                stream=clip_stream,
                kind="broadcast",
                wall=wall_spec.to_dict(),
                rate_fps=2.0,
            )
            snap = client.stats()["stats"]
            adm = snap["admission"]
            assert adm["active_demand_mpps"] == pytest.approx(0.0)
            assert snap["wall"]["broadcasts"] >= 1
