"""Wire-protocol tests: framing, round-trips, validation.

The paper validated its protocol with a model checker [13]; we settle
for exhaustive round-trip property tests.
"""

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nub import protocol as p


class TestFraming:
    def test_encode_decode_round_trip(self):
        msg = p.fetch("d", 0x1234, 4)
        decoded, rest = p.decode(p.encode(msg))
        assert decoded == msg and rest == b""

    def test_partial_frame_returns_none(self):
        data = p.encode(p.fetch("d", 0, 4))
        decoded, rest = p.decode(data[:3])
        assert decoded is None and rest == data[:3]

    def test_two_frames_in_buffer(self):
        data = p.encode(p.ok()) + p.encode(p.cont())
        first, rest = p.decode(data)
        second, rest = p.decode(rest)
        assert first.mtype == p.MSG_OK
        assert second.mtype == p.MSG_CONTINUE
        assert rest == b""

    def test_little_endian_length(self):
        """The protocol is little-endian regardless of host order."""
        msg = p.data(b"\x01\x02\x03")
        raw = p.encode(msg)
        assert raw[1:5] == (3).to_bytes(4, "little")


class TestMessages:
    def test_fetch_fields(self):
        space, address, size = p.parse_fetch(p.fetch("c", 0xDEAD, 8))
        assert (space, address, size) == ("c", 0xDEAD, 8)

    def test_store_fields(self):
        space, address, data = p.parse_store(p.store("d", 64, b"\x2a\0\0\0"))
        assert (space, address, data) == ("d", 64, b"\x2a\0\0\0")

    def test_signal_fields(self):
        assert p.parse_signal(p.signal(5, 0, 0x100)) == (5, 0, 0x100)

    def test_exited_negative_status(self):
        assert p.parse_exited(p.exited(-1)) == -1

    def test_error_code(self):
        assert p.parse_error(p.error(p.ERR_BAD_SPACE)) == p.ERR_BAD_SPACE

    def test_bad_fetch_size_rejected(self):
        with pytest.raises(p.ProtocolError):
            p.fetch("d", 0, 3)

    def test_bad_store_size_rejected(self):
        with pytest.raises(p.ProtocolError):
            p.store("d", 0, b"\x00" * 7)

    def test_value_sizes_are_the_abstract_memory_sizes(self):
        """Three integer sizes and three float sizes (Sec. 4.1) — 4 and
        8 bytes shared between the families."""
        assert p.VALUE_SIZES == (1, 2, 4, 8, 10)

    def test_core_protocol_has_no_breakpoint_or_step_messages(self):
        """The key simplification (Sec. 6): the core protocol does not
        mention breakpoints or single-stepping.  PLANT/UNPLANT/BREAKS
        are the paper's own Sec. 7.1 enrichment, stores the nub
        remembers, kept apart from the core messages; every nub answers
        them, so the debugger neither probes nor falls back."""
        core = {p.MSG_FETCH, p.MSG_STORE, p.MSG_CONTINUE, p.MSG_DETACH,
                p.MSG_KILL, p.MSG_SIGNAL, p.MSG_EXITED, p.MSG_DATA,
                p.MSG_OK, p.MSG_ERROR}
        extension = {p.MSG_PLANT, p.MSG_UNPLANT, p.MSG_BREAKS,
                     p.MSG_BREAKLIST}
        assert not core & extension
        assert not any("STEP" in n for n in dir(p) if n.startswith("MSG_"))


class TestBlockMessages:
    """The block-transfer extension: raw memory spans in one message."""

    def test_blockfetch_fields(self):
        space, address, length = p.parse_blockfetch(
            p.blockfetch("d", 0x1000, 64))
        assert (space, address, length) == ("d", 0x1000, 64)

    def test_blockstore_fields(self):
        image = bytes(range(16))
        space, address, data = p.parse_blockstore(
            p.blockstore("c", 0x2000, image))
        assert (space, address, data) == ("c", 0x2000, image)

    def test_block_messages_are_extension_types(self):
        core = {p.MSG_FETCH, p.MSG_STORE, p.MSG_CONTINUE, p.MSG_DETACH,
                p.MSG_KILL, p.MSG_SIGNAL, p.MSG_EXITED, p.MSG_DATA,
                p.MSG_OK, p.MSG_ERROR}
        assert not core & {p.MSG_BLOCKFETCH, p.MSG_BLOCKSTORE}

    @pytest.mark.parametrize("length", [0, -1, p.MAX_BLOCK + 1])
    def test_bad_blockfetch_length_rejected(self, length):
        with pytest.raises(p.ProtocolError):
            p.blockfetch("d", 0, length)

    @pytest.mark.parametrize("size", [0, p.MAX_BLOCK + 1])
    def test_bad_blockstore_size_rejected(self, size):
        with pytest.raises(p.ProtocolError):
            p.blockstore("d", 0, b"\x00" * size)

    def test_oversized_blockfetch_request_rejected_by_parser(self):
        raw = p.Message(p.MSG_BLOCKFETCH,
                        struct.pack("<BII", ord("d"), 0, p.MAX_BLOCK + 1))
        with pytest.raises(p.ProtocolError):
            p.parse_blockfetch(raw)

    @pytest.mark.parametrize("size", [0, 3, 5, 16, 4096, 1 << 20])
    def test_fetch_of_a_non_value_size_rejected_by_parser(self, size):
        # PROTOCOL.md 3.1: a FETCH size MUST be one of VALUE_SIZES
        raw = p.Message(p.MSG_FETCH, struct.pack("<BII", ord("d"), 0, size))
        with pytest.raises(p.ProtocolError):
            p.parse_fetch(raw)

    @given(st.sampled_from("cd"), st.integers(0, 2**32 - 1),
           st.integers(1, p.MAX_BLOCK))
    def test_blockfetch_round_trip(self, space, address, length):
        msg, rest = p.decode(p.encode(p.blockfetch(space, address, length)))
        assert rest == b""
        assert p.parse_blockfetch(msg) == (space, address, length)

    @given(st.sampled_from("cd"), st.integers(0, 2**32 - 1),
           st.binary(min_size=1, max_size=40))
    def test_blockstore_round_trip(self, space, address, data):
        msg, rest = p.decode(p.encode(p.blockstore(space, address, data)))
        assert p.parse_blockstore(msg) == (space, address, data)

    def test_blockstore_carries_raw_memory_order(self):
        """The payload is the memory image verbatim — no per-value
        byte-order normalization happens on block messages."""
        image = b"\xde\xad\xbe\xef"
        msg = p.blockstore("d", 0x40, image)
        assert msg.payload[5:] == image


class TestHardening:
    """Wire input can never surface a raw struct.error, hostile lengths
    are capped, and the frame's CRC trailer and sequence id
    round-trip."""

    # (parser, a valid message to truncate, payload prefix lengths that
    # happen to parse as a shorter valid message — the ambiguity the CRC
    # trailer exists to catch)
    CASES = [
        (p.parse_fetch, p.fetch("d", 0x1000, 4), ()),
        (p.parse_store, p.store("d", 0x1000, b"\x2a\0\0\0"), (6, 7)),
        (p.parse_signal, p.signal(5, 0, 0x100), ()),
        (p.parse_exited, p.exited(0), ()),
        (p.parse_error, p.error(p.ERR_BAD_SPACE), ()),
        (p.parse_hello, p.hello(), ()),
        (p.parse_plant, p.plant(0x2000, b"\0\0\0\x0c"), (5, 6)),
        (p.parse_unplant, p.unplant(0x2000), ()),
        (p.parse_breaklist, p.breaklist([(0x2000, b"\0\0\0\x08")]), (0,)),
        (p.parse_blockfetch, p.blockfetch("d", 0x1000, 64), ()),
        (p.parse_blockstore, p.blockstore("d", 0x1000, b"\x2a\0\0\0"),
         (6, 7, 8)),
    ]

    @pytest.mark.parametrize("parser,msg,ambiguous", CASES,
                             ids=[c[0].__name__ for c in CASES])
    def test_truncated_payload_raises_protocol_error(self, parser, msg,
                                                     ambiguous):
        for cut in range(len(msg.payload)):
            if cut in ambiguous:
                parser(p.Message(msg.mtype, msg.payload[:cut]))
                continue
            with pytest.raises(p.ProtocolError):
                parser(p.Message(msg.mtype, msg.payload[:cut]))

    @pytest.mark.parametrize("parser,msg,_ambiguous", CASES,
                             ids=[c[0].__name__ for c in CASES])
    @given(junk=st.binary(max_size=24))
    def test_random_payload_never_struct_error(self, parser, msg, _ambiguous,
                                               junk):
        try:
            parser(p.Message(msg.mtype, junk))
        except p.ProtocolError:
            pass  # the only exception wire input may raise

    def test_breaklist_truncated_entry(self):
        raw = p.breaklist([(0x2000, b"\0\0\0\x08")]).payload
        with pytest.raises(p.ProtocolError):
            p.parse_breaklist(p.Message(p.MSG_BREAKLIST, raw[:-1]))

    def test_oversized_length_is_frame_error(self):
        hostile = (b"\x12" + (p.MAX_PAYLOAD + 1).to_bytes(4, "little")
                   + bytes(4))
        with pytest.raises(p.FrameError):
            p.decode(hostile)

    def test_crc_round_trip(self):
        msg = p.fetch("d", 0x1234, 4)
        decoded, rest = p.decode(p.encode(msg))
        assert decoded == msg and rest == b""

    def test_crc_mismatch_consumes_the_frame(self):
        first = bytearray(p.encode(p.data(b"\x01\x02")))
        second = p.encode(p.ok())
        first[p.HEADER_SIZE + 1] ^= 0x40  # flip a payload bit
        try:
            p.decode(bytes(first) + second)
        except p.CrcError as err:
            assert err.rest == second  # the stream is still framed
        else:
            pytest.fail("corrupt frame passed its CRC")

    def test_seq_header_round_trip(self):
        msg = p.fetch("d", 0x10, 4)
        msg.seq = 77
        decoded, rest = p.decode(p.encode(msg))
        assert decoded == msg and decoded.seq == 77 and rest == b""

    def test_events_carry_no_seq(self):
        decoded, _ = p.decode(p.encode(p.signal(5, 0, 0x100)))
        assert decoded.seq == p.NO_SEQ

    def test_hello_round_trip(self):
        assert p.parse_hello(p.hello()) == p.PROTOCOL_VERSION
        assert p.parse_hello(p.hello(7)) == 7

    def test_frame_size_matches_encode(self):
        for msg in (p.ok(), p.fetch("d", 0, 4), p.data(bytes(300))):
            assert p.frame_size(msg) == len(p.encode(msg))
            msg.seq = 1
            assert p.frame_size(msg) == len(p.encode(msg))

    def test_frame_layout(self):
        """type(1) length(4) seq(4) payload crc32(4), little-endian."""
        msg = p.data(b"\xab\xcd")
        msg.seq = 0x01020304
        raw = p.encode(msg)
        assert raw[:p.HEADER_SIZE] == struct.pack("<BII", p.MSG_DATA, 2,
                                                  0x01020304)
        assert raw[p.HEADER_SIZE:-p.TRAILER_SIZE] == b"\xab\xcd"
        assert raw[-p.TRAILER_SIZE:] == struct.pack(
            "<I", zlib.crc32(raw[:-p.TRAILER_SIZE]))


class TestProperties:
    @given(st.sampled_from("cd"), st.integers(0, 2**32 - 1),
           st.sampled_from(p.VALUE_SIZES))
    def test_fetch_round_trip(self, space, address, size):
        msg, rest = p.decode(p.encode(p.fetch(space, address, size)))
        assert rest == b""
        assert p.parse_fetch(msg) == (space, address, size)

    @given(st.sampled_from("cd"), st.integers(0, 2**32 - 1),
           st.binary(min_size=1, max_size=10).filter(
               lambda b: len(b) in p.VALUE_SIZES))
    def test_store_round_trip(self, space, address, data):
        msg, rest = p.decode(p.encode(p.store(space, address, data)))
        assert p.parse_store(msg) == (space, address, data)

    @given(st.integers(1, 31), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_signal_round_trip(self, signo, code, ctx):
        msg, _rest = p.decode(p.encode(p.signal(signo, code, ctx)))
        assert p.parse_signal(msg) == (signo, code, ctx)

    @given(st.binary(max_size=64))
    def test_concatenated_stream_reassembles(self, junk_payload):
        msgs = [p.ok(), p.data(junk_payload), p.cont()]
        stream = b"".join(p.encode(m) for m in msgs)
        out = []
        while stream:
            msg, stream = p.decode(stream)
            assert msg is not None
            out.append(msg)
        assert out == msgs

    @given(st.binary(max_size=48), st.data())
    def test_split_stream_reassembles(self, payload, data):
        """Frames survive arbitrary segmentation — the property
        Channel.recv depends on."""
        msgs = [p.data(payload), p.ok()]
        msgs[0].seq = 5
        stream = b"".join(p.encode(m) for m in msgs)
        cut = data.draw(st.integers(0, len(stream)))
        buffer, out = b"", []
        for chunk in (stream[:cut], stream[cut:]):
            buffer += chunk
            while True:
                msg, buffer = p.decode(buffer)
                if msg is None:
                    break
                out.append(msg)
        assert buffer == b"" and out == msgs
        assert [m.seq for m in out] == [5, p.NO_SEQ]

    @given(st.sampled_from([p.signal(5, 0, 0x100), p.hello(), p.ok(),
                            p.data(b"\x00" * 10), p.error(3)]),
           st.integers(0, 2**32 - 2), st.data())
    def test_no_flipped_bit_is_believed(self, msg, seq, data):
        """One flipped bit anywhere outside the length field — the type,
        the sequence id, the payload or the trailer — fails the CRC,
        so no damaged frame is ever decoded as a message."""
        msg.seq = seq
        raw = bytearray(p.encode(msg))
        index = data.draw(st.sampled_from(
            [0] + list(range(5, len(raw)))), label="byte")
        raw[index] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        with pytest.raises(p.CrcError):
            p.decode(bytes(raw))

    @given(st.binary(max_size=20))
    def test_truncated_frame_never_decodes(self, payload):
        raw = p.encode(p.data(payload))
        for cut in range(len(raw)):
            msg, rest = p.decode(raw[:cut])
            assert msg is None and rest == raw[:cut]
