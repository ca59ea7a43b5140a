"""H4 framing codec tests: byte fixtures, round trips, incremental
decoding, direction audit."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bcmdiag.errors import InvariantViolation, UnknownH4Type
from bcmdiag.h4 import (
    DIAG_PAYLOAD_LEN,
    Direction,
    H4Frame,
    H4StreamDecoder,
    H4Type,
    HciCommand,
    HciEvent,
    audit_direction,
    decode_one,
    decode_stream,
    direction_legal,
    encode_frame,
)

from helpers import feed_in_pieces, random_h4_frame


READ_LOCAL_VERSION = bytes.fromhex("01011000")


class TestFixtures:
    def test_read_local_version_encode(self):
        frame = HciCommand(0x1001).to_frame()
        assert encode_frame(frame) == READ_LOCAL_VERSION

    def test_read_local_version_decode(self):
        frames, consumed = decode_stream(READ_LOCAL_VERSION)
        assert consumed == 4
        assert len(frames) == 1
        cmd = HciCommand.from_frame(frames[0])
        assert cmd.opcode == 0x1001
        assert cmd.params == b""

    def test_empty_input(self):
        assert decode_stream(b"") == ([], 0)

    def test_diag_toggle_frame(self):
        wire = b"\x07\xf0\x01" + bytes(61)
        assert len(wire) == 64
        frames, consumed = decode_stream(wire)
        assert consumed == 64
        assert frames[0].h4_type is H4Type.DIAG
        assert frames[0].payload.startswith(b"\xf0\x01")
        assert len(frames[0].payload) == DIAG_PAYLOAD_LEN

    def test_event_framing(self):
        frame = HciEvent(0x0E, b"\x01\x01\x10\x00").to_frame()
        assert encode_frame(frame) == bytes.fromhex("040e04") + b"\x01\x01\x10\x00"

    def test_diag_helper_pads(self):
        frame = H4Frame.diag(b"\xf0\x01")
        assert len(frame.payload) == DIAG_PAYLOAD_LEN
        assert encode_frame(frame)[:3] == b"\x07\xf0\x01"


class TestErrors:
    def test_unknown_type_offset(self):
        stream = READ_LOCAL_VERSION + b"\x55"
        with pytest.raises(UnknownH4Type) as excinfo:
            decode_stream(stream)
        assert excinfo.value.offset == 4
        assert excinfo.value.byte == 0x55

    def test_unknown_type_reported_in_decoder(self):
        decoder = H4StreamDecoder()
        assert decoder.feed(READ_LOCAL_VERSION) != []
        with pytest.raises(UnknownH4Type) as excinfo:
            decoder.feed(b"\xaa")
        assert excinfo.value.offset == 4

    def test_unknown_type_offset_after_partial_frame(self):
        """The bad tag arrives two feeds later, behind a frame that was
        split across them; its offset counts from the stream start."""
        decoder = H4StreamDecoder()
        assert decoder.feed(READ_LOCAL_VERSION + READ_LOCAL_VERSION[:2]) != []
        with pytest.raises(UnknownH4Type) as excinfo:
            decoder.feed(READ_LOCAL_VERSION[2:] + b"\x55")
        assert excinfo.value.offset == 8
        assert excinfo.value.byte == 0x55

    def test_length_field_mismatch_rejected(self):
        bad = H4Frame(H4Type.HCI_COMMAND, bytes.fromhex("0110" + "05" + "00"))
        with pytest.raises(InvariantViolation):
            encode_frame(bad)

    def test_short_diag_payload_rejected(self):
        with pytest.raises(InvariantViolation):
            encode_frame(H4Frame(H4Type.DIAG, b"\xf0\x01"))

    def test_oversize_diag_body_rejected(self):
        with pytest.raises(InvariantViolation):
            H4Frame.diag(bytes(64))

    def test_command_params_over_255(self):
        with pytest.raises(InvariantViolation):
            HciCommand(0x1001, bytes(256)).to_frame()


class TestRoundTrip:
    def test_fuzz_round_trip(self):
        rng = random.Random(0xB7C0)
        for _ in range(10_000):
            frame = random_h4_frame(rng)
            frames, consumed = decode_stream(encode_frame(frame))
            assert frames == [frame]
            assert consumed == 1 + len(frame.payload)

    def test_multi_frame_stream(self):
        rng = random.Random(0xB7C1)
        frames = [random_h4_frame(rng) for _ in range(50)]
        stream = b"".join(encode_frame(f) for f in frames)
        decoded, consumed = decode_stream(stream)
        assert decoded == frames
        assert consumed == len(stream)

    def test_decode_one(self):
        rng = random.Random(0xB7C2)
        frames = [random_h4_frame(rng) for _ in range(3)]
        stream = b"".join(encode_frame(f) for f in frames)
        first, consumed = decode_one(stream)
        assert first == frames[0]
        assert consumed == 1 + len(frames[0].payload)


class TestIncremental:
    def test_every_split_point(self):
        rng = random.Random(0xB7C3)
        frames = [random_h4_frame(rng) for _ in range(4)]
        stream = b"".join(encode_frame(f) for f in frames)
        for split in range(len(stream) + 1):
            decoder = H4StreamDecoder()
            got = decoder.feed(stream[:split]) + decoder.feed(stream[split:])
            assert got == frames, f"split at {split}"
            assert decoder.pending == b""

    def test_byte_by_byte(self):
        rng = random.Random(0xB7C4)
        frames = [random_h4_frame(rng) for _ in range(8)]
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = H4StreamDecoder()
        got = []
        for i in range(len(stream)):
            got += decoder.feed(stream[i : i + 1])
        assert got == frames

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 12),
        cuts=st.lists(st.integers(0, 2**16), max_size=16),
    )
    def test_any_split_yields_the_frames_of_one_feed(self, seed, count, cuts):
        rng = random.Random(seed)
        frames = [random_h4_frame(rng) for _ in range(count)]
        stream = b"".join(encode_frame(f) for f in frames)
        assert H4StreamDecoder().feed(stream) == frames
        decoder = H4StreamDecoder()
        assert feed_in_pieces(decoder, stream, cuts) == frames
        assert decoder.pending == b""

    def test_partial_frame_left_unconsumed(self):
        stream = READ_LOCAL_VERSION + b"\x04\x0e"  # event header incomplete
        frames, consumed = decode_stream(stream)
        assert len(frames) == 1
        assert consumed == 4


class TestDirectionAudit:
    @pytest.mark.parametrize(
        "h4_type,direction,legal",
        [
            (H4Type.HCI_COMMAND, Direction.HOST_TO_CONTROLLER, True),
            (H4Type.HCI_COMMAND, Direction.CONTROLLER_TO_HOST, False),
            (H4Type.HCI_EVENT, Direction.CONTROLLER_TO_HOST, True),
            (H4Type.HCI_EVENT, Direction.HOST_TO_CONTROLLER, False),
            (H4Type.ACL_DATA, Direction.HOST_TO_CONTROLLER, True),
            (H4Type.ACL_DATA, Direction.CONTROLLER_TO_HOST, True),
            (H4Type.DIAG, Direction.HOST_TO_CONTROLLER, True),
            (H4Type.DIAG, Direction.CONTROLLER_TO_HOST, True),
        ],
    )
    def test_legality_table(self, h4_type, direction, legal):
        assert direction_legal(h4_type, direction) is legal

    def test_audit_flags_but_does_not_fail(self):
        frame = HciCommand(0x1001).to_frame()
        warning = audit_direction(frame, Direction.CONTROLLER_TO_HOST)
        assert warning is not None and "HCI_COMMAND" in warning
        assert audit_direction(frame, Direction.HOST_TO_CONTROLLER) is None
