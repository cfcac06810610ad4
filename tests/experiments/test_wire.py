"""Wire-protocol tests: framing, channels, and send-side fault injection."""

import socket

import pytest

from repro.chaos import FaultRule, FaultSchedule
from repro.experiments.fabric_core import MSG_HEARTBEAT, MSG_RESULT
from repro.experiments.wire import (
    FABRIC_SECRET_ENV,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FramedChannel,
    SendFaults,
    encode_frame,
    fabric_secret,
    format_address,
    parse_address,
)


class TestFraming:
    def test_round_trip(self):
        message = {"kind": MSG_RESULT, "index": 3, "result": [1.5, 2.5]}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_byte_dribble_reassembles(self):
        """A frame fed one byte at a time still comes out whole."""
        message = {"kind": "task", "payload": "x" * 100}
        frame = encode_frame(message)
        decoder = FrameDecoder()
        out = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i : i + 1]))
        assert out == [message]

    def test_multiple_frames_in_one_chunk(self):
        messages = [{"kind": "a", "i": i} for i in range(5)]
        chunk = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(chunk) == messages

    def test_oversized_length_prefix_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_undecodable_payload_normalised_to_value_error(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(ValueError, match="undecodable frame"):
            decoder.feed(struct.pack(">I", 4) + b"\x00ohno"[:4])


class TestAuthentication:
    def test_tagged_round_trip(self):
        message = {"kind": MSG_RESULT, "index": 3}
        decoder = FrameDecoder(secret="hunter2")
        frame = encode_frame(message, secret="hunter2")
        assert decoder.feed(frame) == [message]
        # The tag really is on the wire: authenticated frames are one
        # HMAC-SHA256 digest longer than plain ones.
        assert len(frame) == len(encode_frame(message, secret=None)) + 32

    def test_mismatched_secret_rejected(self):
        frame = encode_frame({"kind": "task"}, secret="right")
        decoder = FrameDecoder(secret="wrong")
        with pytest.raises(ValueError, match="auth tag mismatch"):
            decoder.feed(frame)

    def test_untagged_frame_rejected_by_authenticated_peer(self):
        frame = encode_frame({"k": 1}, secret=None)
        decoder = FrameDecoder(secret="hunter2")
        # A short plain frame cannot even hold a tag; a longer one fails
        # the tag check.  Both normalise to ValueError.
        with pytest.raises(ValueError):
            decoder.feed(frame)

    def test_tagged_frame_rejected_by_plain_peer(self):
        frame = encode_frame({"kind": "task"}, secret="hunter2")
        decoder = FrameDecoder(secret=None)
        with pytest.raises(ValueError, match="undecodable frame"):
            decoder.feed(frame)

    def test_secret_defaults_to_environment(self, monkeypatch):
        monkeypatch.setenv(FABRIC_SECRET_ENV, "lab-segment")
        assert fabric_secret() == b"lab-segment"
        message = {"kind": MSG_HEARTBEAT}
        assert FrameDecoder().feed(encode_frame(message)) == [message]
        with pytest.raises(ValueError, match="auth tag mismatch"):
            FrameDecoder(secret="other").feed(encode_frame(message))
        monkeypatch.setenv(FABRIC_SECRET_ENV, "")
        assert fabric_secret() is None

    def test_authenticated_channel_pair(self, monkeypatch):
        monkeypatch.setenv(FABRIC_SECRET_ENV, "lab-segment")
        left, right = socket.socketpair()
        a, b = FramedChannel(left), FramedChannel(right)
        try:
            assert a.send({"kind": MSG_RESULT, "index": 9})
            assert b.recv() == {"kind": MSG_RESULT, "index": 9}
        finally:
            a.close()
            b.close()

    def test_secret_mismatch_across_channel_drops(self):
        left, right = socket.socketpair()
        a = FramedChannel(left, secret="alpha")
        b = FramedChannel(right, secret="beta")
        try:
            assert a.send({"kind": MSG_HEARTBEAT})
            with pytest.raises(ValueError, match="auth tag mismatch"):
                b.recv()
        finally:
            a.close()
            b.close()


class TestAddress:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10.0.0.2:7777", ("10.0.0.2", 7777)),
            (":7777", ("127.0.0.1", 7777)),
            ("7777", ("127.0.0.1", 7777)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_address(text) == expected

    @pytest.mark.parametrize("text", ["host:notaport", "host:", "", "1:99999"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_address(text)

    def test_format_inverts_parse(self):
        assert parse_address(format_address("10.0.0.2", 80)) == ("10.0.0.2", 80)


def _pair():
    left, right = socket.socketpair()
    return FramedChannel(left), FramedChannel(right)


class TestFramedChannel:
    def test_send_recv_round_trip(self):
        a, b = _pair()
        try:
            assert a.send({"kind": MSG_HEARTBEAT})
            assert a.send({"kind": MSG_RESULT, "index": 0})
            assert b.recv() == {"kind": MSG_HEARTBEAT}
            assert b.recv() == {"kind": MSG_RESULT, "index": 0}
        finally:
            a.close()
            b.close()

    def test_recv_none_on_eof(self):
        a, b = _pair()
        a.close()
        try:
            assert b.recv() is None
        finally:
            b.close()

    def test_chaos_drop_swallows_message(self, tmp_path):
        left, right = socket.socketpair()
        chaos = FaultSchedule(tmp_path, [FaultRule(kind="result", action="drop")])
        a = FramedChannel(left, chaos=chaos)
        b = FramedChannel(right)
        try:
            assert not a.send({"kind": "result", "index": 0})  # dropped
            assert a.send({"kind": "result", "index": 1})  # window passed
            assert b.recv() == {"kind": "result", "index": 1}
        finally:
            a.close()
            b.close()

    def test_chaos_duplicate_writes_twice(self, tmp_path):
        left, right = socket.socketpair()
        chaos = FaultSchedule(tmp_path, [FaultRule(kind="task", action="duplicate")])
        a = FramedChannel(left, chaos=chaos)
        b = FramedChannel(right)
        try:
            assert a.send({"kind": "task", "index": 7})
            assert b.recv() == {"kind": "task", "index": 7}
            assert b.recv() == {"kind": "task", "index": 7}
        finally:
            a.close()
            b.close()

    def test_chaos_partition_mutes_everything(self, tmp_path):
        """During the outage window every kind is discarded, then service
        resumes — the liveness detector on the other side is what must
        notice, not the sender."""
        left, right = socket.socketpair()
        chaos = FaultSchedule(
            tmp_path,
            [FaultRule(kind="result", action="partition", seconds=0.2)],
        )
        a = FramedChannel(left, chaos=chaos)
        b = FramedChannel(right)
        try:
            assert not a.send({"kind": "result", "index": 0})  # opens window
            assert not a.send({"kind": "heartbeat"})  # muted too
            import time

            time.sleep(0.25)
            assert a.send({"kind": "heartbeat"})  # window over
            assert b.recv() == {"kind": "heartbeat"}
        finally:
            a.close()
            b.close()

    def test_chaos_only_consults_matching_kind(self, tmp_path):
        left, right = socket.socketpair()
        chaos = FaultSchedule(tmp_path, [FaultRule(kind="result", action="drop")])
        a = FramedChannel(left, chaos=chaos)
        b = FramedChannel(right)
        try:
            assert a.send({"kind": "heartbeat"})  # different kind: untouched
            assert b.recv() == {"kind": "heartbeat"}
        finally:
            a.close()
            b.close()


class TestSendFaults:
    """The send-side fault decision on the caller's clock: what a socket
    channel does on the monotonic clock and an in-memory one on a fake
    clock."""

    def test_plan_on_a_fake_clock(self, tmp_path):
        faults = SendFaults(
            FaultSchedule(
                tmp_path,
                [
                    FaultRule(kind="task", action="duplicate"),
                    FaultRule(kind="result", action="delay", seconds=2.0),
                    FaultRule(kind="ack", action="partition", seconds=5.0),
                ],
            )
        )
        assert faults.plan("task", 0.0) == (2, 0.0)
        assert faults.plan("task", 0.0) == (1, 0.0)  # window passed
        assert faults.plan("result", 1.0) == (1, 2.0)
        assert faults.plan("ack", 10.0) == (0, 0.0)  # opens the outage
        assert faults.plan("heartbeat", 14.9) == (0, 0.0)  # muted too
        assert faults.plan("heartbeat", 15.0) == (1, 0.0)  # outage over

    def test_no_schedule_is_the_healthy_wire(self):
        assert SendFaults().plan("task", 0.0) == (1, 0.0)
