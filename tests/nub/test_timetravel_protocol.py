"""The time-travel messages (base protocol): constructors and parsers,
and the nub-side CHECKPOINT/RESTORE/DROPCKPT/ICOUNT/RUNTO handlers."""

import pytest

from repro.cc.driver import compile_and_link
from repro.machines import CODE_ICOUNT, Process, SIGTRAP
from repro.nub import Nub, NubRunner, pair, protocol
from repro.nub.protocol import ProtocolError

SAFE = "int tag = 99;\nint main(void) { return 3; }\n"


def start_nub(src=SAFE, arch="rmips", **kw):
    exe = compile_and_link({"t.c": src}, arch, debug=True)
    debugger_end, nub_end = pair()
    process = Process(exe)
    nub = Nub(process, channel=nub_end, stop_at_entry=True, **kw)
    runner = NubRunner(nub).start()
    return exe, process, nub, runner, debugger_end


def transact(chan, msg):
    chan.send(msg)
    return chan.recv(10.0)


def resume_past_pause(chan, ctx=Nub.CONTEXT_ADDR, advance=4):
    """Bump the saved pc over the trap no-op (what a debugger's resume
    does) without sending the resume itself."""
    chan.send(protocol.fetch("d", ctx, 4))
    pc = int.from_bytes(chan.recv(10.0).payload, "little")
    chan.send(protocol.store("d", ctx, (pc + advance).to_bytes(4, "little")))
    chan.recv(10.0)


class TestMessages:
    def test_checkpoint_is_bare(self):
        msg = protocol.checkpoint()
        assert msg.mtype == protocol.MSG_CHECKPOINT
        assert msg.payload == b""

    def test_restore_roundtrip(self):
        assert protocol.parse_restore(protocol.restore(7)) == 7

    def test_drop_checkpoint_roundtrip(self):
        msg = protocol.drop_checkpoint(9)
        assert msg.mtype == protocol.MSG_DROPCKPT
        assert protocol.parse_drop_checkpoint(msg) == 9

    def test_icount_is_bare(self):
        assert protocol.icount().payload == b""

    def test_runto_roundtrip_is_64_bit(self):
        big = 1 << 40  # icounts outgrow 32 bits on long runs
        assert protocol.parse_runto(protocol.runto(big)) == big

    def test_runto_rejects_negative(self):
        with pytest.raises(ProtocolError):
            protocol.runto(-1)

    def test_ckpt_roundtrip(self):
        msg = protocol.ckpt(3, 1 << 40)
        assert protocol.parse_ckpt(msg) == (3, 1 << 40)

    def test_ckpt_carries_no_ckpt_sentinel(self):
        cid, icount = protocol.parse_ckpt(protocol.ckpt(protocol.NO_CKPT, 5))
        assert cid == protocol.NO_CKPT
        assert icount == 5

    def test_runto_survives_wire_framing(self):
        data = protocol.encode(protocol.runto(123456789))
        msg, rest = protocol.decode(data)
        assert rest == b""
        assert protocol.parse_runto(msg) == 123456789

    def test_messages_have_names(self):
        for mtype in (protocol.MSG_CHECKPOINT, protocol.MSG_RESTORE,
                      protocol.MSG_DROPCKPT, protocol.MSG_ICOUNT,
                      protocol.MSG_RUNTO, protocol.MSG_CKPT):
            assert mtype in protocol._NAMES


class TestNegotiation:
    def test_time_travel_needs_no_hello(self):
        # base protocol: a client that never sends HELLO still gets
        # checkpoints
        exe, process, nub, runner, chan = start_nub()
        chan.recv(10.0)  # the entry pause
        reply = transact(chan, protocol.icount())
        assert reply.mtype == protocol.MSG_CKPT
        cid, _icount = protocol.parse_ckpt(transact(chan,
                                                    protocol.checkpoint()))
        assert cid in nub.checkpoints
        chan.send(protocol.kill())
        runner.join()


class TestNubHandlers:
    def test_checkpoint_restore_rewinds_the_target(self):
        exe, process, nub, runner, chan = start_nub()
        chan.recv(10.0)  # the entry pause
        tag = exe.symbols["_tag"]

        # where are we?
        cid, ic0 = protocol.parse_ckpt(transact(chan, protocol.icount()))
        assert cid == protocol.NO_CKPT

        reply = transact(chan, protocol.checkpoint())
        assert reply.mtype == protocol.MSG_CKPT
        cid, at = protocol.parse_ckpt(reply)
        assert at == ic0

        # scribble on the target, then rewind
        transact(chan, protocol.store("d", tag, (5).to_bytes(4, "little")))
        data = transact(chan, protocol.fetch("d", tag, 4))
        assert int.from_bytes(data.payload, "little") == 5

        reply = transact(chan, protocol.restore(cid))
        rid, ric = protocol.parse_ckpt(reply)
        assert (rid, ric) == (cid, ic0)
        data = transact(chan, protocol.fetch("d", tag, 4))
        assert int.from_bytes(data.payload, "little") == 99

        chan.send(protocol.kill())
        runner.join()

    def test_restore_unknown_id_is_an_error(self):
        exe, process, nub, runner, chan = start_nub()
        chan.recv(10.0)
        reply = transact(chan, protocol.restore(42))
        assert reply.mtype == protocol.MSG_ERROR
        assert protocol.parse_error(reply) == protocol.ERR_BAD_CHECKPOINT
        chan.send(protocol.kill())
        runner.join()

    def test_drop_is_idempotent_but_restore_after_drop_fails(self):
        exe, process, nub, runner, chan = start_nub()
        chan.recv(10.0)
        cid, _ = protocol.parse_ckpt(transact(chan, protocol.checkpoint()))
        assert transact(chan, protocol.drop_checkpoint(cid)).mtype == \
            protocol.MSG_OK
        assert transact(chan, protocol.drop_checkpoint(cid)).mtype == \
            protocol.MSG_OK  # dropping twice is not an error
        reply = transact(chan, protocol.restore(cid))
        assert protocol.parse_error(reply) == protocol.ERR_BAD_CHECKPOINT
        chan.send(protocol.kill())
        runner.join()

    def test_runto_stops_with_the_icount_code(self):
        exe, process, nub, runner, chan = start_nub()
        chan.recv(10.0)  # the entry pause
        _, ic0 = protocol.parse_ckpt(transact(chan, protocol.icount()))
        resume_past_pause(chan)
        chan.send(protocol.runto(ic0 + 10))
        assert chan.recv(10.0).mtype == protocol.MSG_OK  # the control's ack
        msg = chan.recv(10.0)
        signo, code, _ctx = protocol.parse_signal(msg)
        assert signo == SIGTRAP
        assert code == CODE_ICOUNT
        _, ic1 = protocol.parse_ckpt(transact(chan, protocol.icount()))
        assert ic1 == ic0 + 10
        chan.send(protocol.kill())
        runner.join()

    def test_retried_checkpoint_reuses_the_snapshot(self):
        # a CHECKPOINT whose reply was lost gets retried with the same
        # sequence id; the nub must answer again, not mint a new image
        exe, process, nub, runner, chan = start_nub()
        chan.recv(10.0)
        first = protocol.checkpoint()
        first.seq = 7
        cid_a, _ = protocol.parse_ckpt(transact(chan, first))
        retry = protocol.checkpoint()
        retry.seq = 7
        cid_b, _ = protocol.parse_ckpt(transact(chan, retry))
        assert cid_b == cid_a
        assert len(nub.checkpoints) == 1

        fresh = protocol.checkpoint()
        fresh.seq = 8
        cid_c, _ = protocol.parse_ckpt(transact(chan, fresh))
        assert cid_c != cid_a
        assert len(nub.checkpoints) == 2

        kill = protocol.kill()
        kill.seq = 9
        chan.send(kill)
        runner.join()
