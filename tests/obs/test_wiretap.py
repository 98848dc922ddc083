"""The protocol trace recorder: decoded frames, graceful bad payloads."""

from repro.nub import protocol
from repro.obs import describe


class TestDescribe:
    def test_fetch(self):
        d = describe(protocol.fetch("d", 0x1040, 4))
        assert d == {"op": "FETCH", "space": "d", "addr": "0x1040", "size": 4}

    def test_store_renders_value_hex(self):
        d = describe(protocol.store("d", 8, b"\x2a\x00\x00\x00"))
        assert (d["op"], d["size"], d["bytes"]) == ("STORE", 4, "2a000000")

    def test_blockfetch(self):
        d = describe(protocol.blockfetch("c", 0x100, 64))
        assert d == {"op": "BLOCKFETCH", "space": "c", "addr": "0x100",
                     "len": 64}

    def test_long_payload_hex_is_capped(self):
        d = describe(protocol.data(bytes(range(200)) + bytes(56)))
        assert d["len"] == 256
        assert d["bytes"].endswith("...(256 bytes)")

    def test_hello_renders_version(self):
        assert describe(protocol.hello()) == {
            "op": "HELLO", "version": protocol.PROTOCOL_VERSION}

    def test_signal_and_exited(self):
        assert describe(protocol.signal(5, 0, 0xFF00)) == {
            "op": "SIGNAL", "signo": 5, "code": 0, "context": "0xff00"}
        assert describe(protocol.exited(2)) == {"op": "EXITED", "status": 2}

    def test_error_is_symbolic(self):
        d = describe(protocol.error(protocol.ERR_BAD_ADDRESS))
        assert d["error"] == "ERR_BAD_ADDRESS"

    def test_ckpt_reply_and_icount_sentinel(self):
        assert describe(protocol.ckpt(3, 900))["ckpt"] == 3
        assert describe(protocol.ckpt(protocol.NO_CKPT, 900))["ckpt"] is None

    def test_breaklist(self):
        msg = protocol.breaklist([(0x40, b"\x00\x00\x00\x00"),
                                  (0x80, b"\x01\x02\x03\x04")])
        d = describe(msg)
        assert d["count"] == 2
        assert d["breaks"] == ["0x40", "0x80"]

    def test_sequence_id_appears_when_meaningful(self):
        msg = protocol.ok()
        msg.seq = 17
        assert describe(msg)["wire_seq"] == 17
        msg.seq = protocol.NO_SEQ
        assert "wire_seq" not in describe(msg)

    def test_bad_payload_degrades_to_hex(self):
        bad = protocol.Message(protocol.MSG_FETCH, b"\x01\x02")
        d = describe(bad)
        assert d["op"] == "FETCH"
        assert "bad" in d and d["payload"] == "0102"

    def test_unknown_opcode(self):
        d = describe(protocol.Message(99, b"\xff"))
        assert d["op"] == "UNKNOWN(99)" and d["payload"] == "ff"

    def test_every_opcode_describes_without_raising(self):
        for name, value in vars(protocol).items():
            if name.startswith("MSG_"):
                d = describe(protocol.Message(value, b""))
                assert "op" in d

