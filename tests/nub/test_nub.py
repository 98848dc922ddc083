"""Nub behavior tests: context save, fetch/store service, reconnection."""

import struct
import threading
import time

import pytest

from repro.cc.driver import compile_and_link
from repro.machines import Process, SIGFPE, SIGTRAP, get_arch
from repro.nub import Nub, NubRunner, pair, protocol
from repro.nub.channel import Listener, connect
from repro.nub.nub import MipsNubMD, NubMD, SparcNubMD, nub_md_for

SRC = r"""
int counter = 7;
double dbl = 2.5;
int main(void) {
    int x = 5;
    x = x / (counter - 7);   /* SIGFPE once counter is 7 */
    return x;
}
"""

SAFE = "int tag = 99;\nint main(void) { return 3; }\n"


def skip_pause(chan, ctx=Nub.CONTEXT_ADDR, advance=4):
    """What the debugger does to resume past a trap: bump the saved pc."""
    chan.send(protocol.fetch("d", ctx, 4))
    pc = int.from_bytes(chan.recv(10.0).payload, "little")
    chan.send(protocol.store("d", ctx, (pc + advance).to_bytes(4, "little")))
    chan.recv(10.0)
    chan.send(protocol.cont())
    assert chan.recv(10.0).mtype == protocol.MSG_OK  # every control is acked


def start_nub(src, arch="rmips", stop_at_entry=True, **kw):
    exe = compile_and_link({"t.c": src}, arch, debug=True)
    debugger_end, nub_end = pair()
    process = Process(exe)
    nub = Nub(process, channel=nub_end, stop_at_entry=stop_at_entry, **kw)
    runner = NubRunner(nub).start()
    return exe, process, nub, runner, debugger_end


class TestStartupPause:
    def test_stops_before_main_when_debugged(self):
        exe, process, nub, runner, chan = start_nub(SAFE)
        msg = chan.recv(10.0)
        signo, code, ctx = protocol.parse_signal(msg)
        assert signo == SIGTRAP
        assert ctx == Nub.CONTEXT_ADDR
        # the saved pc is the nub pause
        pc = process.mem.read_u32(ctx)
        assert pc == exe.symbols["__nub_pause"]
        chan.send(protocol.kill())
        runner.join()

    def test_runs_through_when_not_debugged(self):
        exe = compile_and_link({"t.c": SAFE}, "rmips", debug=True)
        process = Process(exe)
        nub = Nub(process)  # no channel, no listener
        status = nub.run()
        assert status == 3


class TestFetchStore:
    def setup_stopped(self, src=SAFE, arch="rmips"):
        exe, process, nub, runner, chan = start_nub(src, arch)
        chan.recv(10.0)  # the startup pause
        return exe, process, nub, runner, chan

    def teardown_channel(self, chan, runner):
        chan.send(protocol.kill())
        runner.join()

    def test_fetch_data_value_little_endian(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        address = exe.symbols["_tag"]
        chan.send(protocol.fetch("d", address, 4))
        reply = chan.recv(10.0)
        assert reply.mtype == protocol.MSG_DATA
        # the nub replies little-endian whatever the target order
        assert int.from_bytes(reply.payload, "little") == 99
        self.teardown_channel(chan, runner)

    def test_fetch_same_value_on_both_byte_orders(self):
        for arch in ("rmips", "rmipsel"):
            exe, process, nub, runner, chan = self.setup_stopped(arch=arch)
            address = exe.symbols["_tag"]
            chan.send(protocol.fetch("d", address, 4))
            reply = chan.recv(10.0)
            assert int.from_bytes(reply.payload, "little") == 99, arch
            self.teardown_channel(chan, runner)

    def test_store_then_fetch(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        address = exe.symbols["_tag"]
        chan.send(protocol.store("d", address, (123).to_bytes(4, "little")))
        assert chan.recv(10.0).mtype == protocol.MSG_OK
        chan.send(protocol.fetch("d", address, 4))
        assert int.from_bytes(chan.recv(10.0).payload, "little") == 123
        self.teardown_channel(chan, runner)

    def test_fetch_of_a_non_value_size_is_a_bad_message(self):
        """PROTOCOL.md 3.1: a FETCH size MUST be one of VALUE_SIZES;
        anything else, up to the whole image, is a malformed request."""
        exe, process, nub, runner, chan = self.setup_stopped()
        tag = exe.symbols["_tag"]
        for address, size in ((tag, 0), (tag, 3), (tag, 5), (tag, 16),
                              (tag, 4096), (0, process.mem.size)):
            chan.send(protocol.Message(protocol.MSG_FETCH, struct.pack(
                "<BII", ord("d"), address, size)))
            reply = chan.recv(10.0)
            assert reply.mtype == protocol.MSG_ERROR, size
            assert protocol.parse_error(reply) == protocol.ERR_BAD_MESSAGE
        self.teardown_channel(chan, runner)

    def test_register_space_rejected(self):
        """The nub answers only for code and data spaces (Sec. 4.1)."""
        exe, process, nub, runner, chan = self.setup_stopped()
        chan.send(protocol.fetch("r", 0, 4))
        reply = chan.recv(10.0)
        assert reply.mtype == protocol.MSG_ERROR
        assert protocol.parse_error(reply) == protocol.ERR_BAD_SPACE
        self.teardown_channel(chan, runner)

    def test_bad_address_errors(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        chan.send(protocol.fetch("d", 0xFFFFFFF0, 4))
        assert chan.recv(10.0).mtype == protocol.MSG_ERROR
        self.teardown_channel(chan, runner)

    def test_continue_to_exit(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        skip_pause(chan)
        msg = chan.recv(10.0)
        assert msg.mtype == protocol.MSG_EXITED
        assert protocol.parse_exited(msg) == 3
        runner.join()


class TestBlockService:
    """The block-transfer extension on the nub side."""

    def setup_stopped(self, src=SAFE, arch="rmips", **kw):
        exe, process, nub, runner, chan = start_nub(src, arch, **kw)
        chan.recv(10.0)  # the startup pause
        return exe, process, nub, runner, chan

    def teardown_channel(self, chan, runner):
        chan.send(protocol.kill())
        runner.join()

    def test_blockfetch_returns_raw_memory_image(self):
        """BLOCKFETCH replies with the memory image in address order —
        on a big-endian target that is NOT the little-endian value
        stream FETCH would produce."""
        exe, process, nub, runner, chan = self.setup_stopped()  # rmips: BE
        address = exe.symbols["_tag"]
        chan.send(protocol.blockfetch("d", address, 8))
        reply = chan.recv(10.0)
        assert reply.mtype == protocol.MSG_DATA
        assert reply.payload == process.mem.read_bytes(address, 8)
        # big-endian image: 99 lands in the high-order byte position
        assert reply.payload[:4] == (99).to_bytes(4, "big")
        self.teardown_channel(chan, runner)

    def test_blockfetch_matches_fetch_after_interpretation(self):
        """One block, per-word interpreted, equals per-word FETCHes —
        the identity the caching memory depends on."""
        for arch in ("rmips", "rmipsel"):
            exe, process, nub, runner, chan = self.setup_stopped(arch=arch)
            address = exe.symbols["_tag"]
            chan.send(protocol.blockfetch("d", address, 4))
            image = chan.recv(10.0).payload
            chan.send(protocol.fetch("d", address, 4))
            value_le = chan.recv(10.0).payload
            order = "big" if arch == "rmips" else "little"
            assert int.from_bytes(image, order) == \
                int.from_bytes(value_le, "little") == 99, arch
            self.teardown_channel(chan, runner)

    def test_blockfetch_readable_prefix_at_memory_end(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        edge = process.mem.size - 10
        chan.send(protocol.blockfetch("d", edge, 64))
        reply = chan.recv(10.0)
        assert reply.mtype == protocol.MSG_DATA
        assert reply.payload == process.mem.read_bytes(edge, 10)
        self.teardown_channel(chan, runner)

    def test_blockfetch_unmapped_start_errors(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        chan.send(protocol.blockfetch("d", process.mem.size, 16))
        reply = chan.recv(10.0)
        assert reply.mtype == protocol.MSG_ERROR
        assert protocol.parse_error(reply) == protocol.ERR_BAD_ADDRESS
        self.teardown_channel(chan, runner)

    def test_blockfetch_bad_space_errors(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        chan.send(protocol.blockfetch("r", 0, 16))
        reply = chan.recv(10.0)
        assert protocol.parse_error(reply) == protocol.ERR_BAD_SPACE
        self.teardown_channel(chan, runner)

    def test_blockstore_writes_verbatim(self):
        exe, process, nub, runner, chan = self.setup_stopped()
        address = exe.symbols["_tag"]
        image = b"\x00\x00\x00\x7b"       # 123 big-endian: raw image
        chan.send(protocol.blockstore("d", address, image))
        assert chan.recv(10.0).mtype == protocol.MSG_OK
        assert process.mem.read_bytes(address, 4) == image
        # and FETCH now reinterprets it: little-endian value 123
        chan.send(protocol.fetch("d", address, 4))
        assert int.from_bytes(chan.recv(10.0).payload, "little") == 123
        self.teardown_channel(chan, runner)

    def test_nub_answers_hello_with_its_own_version(self):
        # whatever the debugger speaks, the nub names its own version
        # and the framing stays as it was
        exe, process, nub, runner, chan = self.setup_stopped()
        for version in (protocol.PROTOCOL_VERSION, 2, 255):
            chan.send(protocol.hello(version))
            assert protocol.parse_hello(chan.recv(10.0)) == \
                protocol.PROTOCOL_VERSION
        chan.send(protocol.fetch("d", exe.symbols["_tag"], 4))
        assert int.from_bytes(chan.recv(10.0).payload, "little") == 99
        self.teardown_channel(chan, runner)


class TestSignals:
    def test_sigfpe_reported(self):
        exe, process, nub, runner, chan = start_nub(SRC)
        chan.recv(10.0)             # startup pause
        skip_pause(chan)
        msg = chan.recv(10.0)       # the division fault
        signo, code, ctx = protocol.parse_signal(msg)
        assert signo == SIGFPE
        chan.send(protocol.kill())
        runner.join()

    def test_context_holds_registers(self):
        exe, process, nub, runner, chan = start_nub(SRC)
        chan.recv(10.0)
        ctx = Nub.CONTEXT_ADDR
        # sp was saved in the context: slot for r29 on rmips
        chan.send(protocol.fetch("d", ctx + 4 + 4 * 29, 4))
        sp = int.from_bytes(chan.recv(10.0).payload, "little")
        assert sp == exe.stack_top
        chan.send(protocol.kill())
        runner.join()

    def test_modified_context_restored_on_continue(self):
        """Stores into the context must become register values — the
        debugger changes registers this way (Sec. 4.1)."""
        src = "int main(void) { return 3; }"
        exe, process, nub, runner, chan = start_nub(src)
        chan.recv(10.0)
        # overwrite the return-value register cell mid-run? easier:
        # advance the pc over the pause manually via the context
        ctx = Nub.CONTEXT_ADDR
        chan.send(protocol.fetch("d", ctx, 4))
        pc = int.from_bytes(chan.recv(10.0).payload, "little")
        arch = get_arch("rmips")
        chan.send(protocol.store("d", ctx, (pc + arch.noop_advance)
                                 .to_bytes(4, "little")))
        chan.recv(10.0)
        chan.send(protocol.cont())
        assert chan.recv(10.0).mtype == protocol.MSG_OK
        msg = chan.recv(10.0)
        assert protocol.parse_exited(msg) == 3
        runner.join()


class TestReconnection:
    def test_detach_preserves_state_and_reconnects(self):
        exe = compile_and_link({"t.c": SAFE}, "rmips", debug=True)
        listener = Listener()
        process = Process(exe)
        nub = Nub(process, listener=listener, stop_at_entry=True,
                  accept_timeout=10.0)
        runner = NubRunner(nub).start()
        first = connect("127.0.0.1", listener.port)
        msg = first.recv(10.0)
        assert msg.mtype == protocol.MSG_SIGNAL
        first.send(protocol.detach())
        # a "new debugger instance" picks the target up again
        second = connect("127.0.0.1", listener.port)
        msg2 = second.recv(10.0)
        assert protocol.parse_signal(msg2) == protocol.parse_signal(msg)
        skip_pause(second)
        assert second.recv(10.0).mtype == protocol.MSG_EXITED
        runner.join()
        listener.close()

    def test_survives_debugger_crash(self):
        """A dropped connection must not lose the target (Sec. 4.2)."""
        exe = compile_and_link({"t.c": SAFE}, "rmips", debug=True)
        listener = Listener()
        process = Process(exe)
        nub = Nub(process, listener=listener, accept_timeout=10.0)
        runner = NubRunner(nub).start()
        crashing = connect("127.0.0.1", listener.port)
        crashing.recv(10.0)
        crashing.sock.close()   # the debugger "crashes"
        recovered = connect("127.0.0.1", listener.port)
        msg = recovered.recv(10.0)
        assert msg.mtype == protocol.MSG_SIGNAL
        skip_pause(recovered)
        assert recovered.recv(10.0).mtype == protocol.MSG_EXITED
        runner.join()
        listener.close()


class TestNubMD:
    """The machine-dependent nub pieces (paper Sec. 4.3)."""

    def test_md_selection(self):
        assert isinstance(nub_md_for(get_arch("rmips")), MipsNubMD)
        assert isinstance(nub_md_for(get_arch("rsparc")), SparcNubMD)
        assert type(nub_md_for(get_arch("rmipsel"))) is NubMD

    def test_mips_be_freg_word_swap(self):
        """Footnote 3: the kernel saves doubles LSW-first on big-endian
        MIPS; the nub's fix restores wire values."""
        from repro.machines import TargetMemory
        arch = get_arch("rmips")
        md = nub_md_for(arch)
        mem = TargetMemory(4096, "big")
        md.save_freg(mem, 0, 1.5, 8)
        raw = mem.read_bytes(0, 8)
        straight = struct.unpack(">d", raw)[0]
        assert straight != 1.5          # stored swapped: the quirk
        assert md.restore_freg(mem, 0, 8) == 1.5
        # the wire fix: raw bytes -> little-endian -> word swap
        raw_le = raw[::-1]
        fixed = md.fix_fetched(4 + 4 * 32, raw_le, 0)  # inside freg area
        assert struct.unpack("<d", fixed)[0] == 1.5

    def test_m68k_saves_f80(self):
        from repro.machines import TargetMemory
        arch = get_arch("rm68k")
        md = nub_md_for(arch)
        mem = TargetMemory(4096, "big")
        md.save_freg(mem, 0, 3.25, 10)
        assert mem.read_f80(0) == 3.25
        assert md.restore_freg(mem, 0, 10) == 3.25

    @pytest.mark.parametrize("arch_name", ["rmips", "rsparc", "rm68k", "rvax"])
    def test_context_round_trip(self, arch_name):
        from repro.machines import Cpu, TargetMemory
        arch = get_arch(arch_name)
        md = nub_md_for(arch)
        mem = TargetMemory(8192, arch.byteorder)
        cpu = Cpu(arch, mem)
        for i in range(arch.nregs):
            if not (i == 0 and arch.zero_reg):
                cpu.regs[i] = (i * 0x01010101) & 0xFFFFFFFF
        for i in range(arch.nfregs):
            cpu.fregs[i] = float(i) + 0.5
        cpu.cc_lt, cpu.cc_eq = True, False
        md.save_context(cpu, mem, 0x100, 0xBEEF)
        fresh = Cpu(arch, mem)
        pc = md.restore_context(fresh, mem, 0x100)
        assert pc == 0xBEEF
        assert fresh.regs == cpu.regs
        assert fresh.fregs == cpu.fregs
        assert fresh.cc_lt and not fresh.cc_eq
