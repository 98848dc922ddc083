"""Every host of a nub gives the same reply to every request.

The reference is a live nub on its own thread, spoken to over the wire
(a :class:`NubSession`).  The same crashed session (breakpoint planted,
recording on) also runs on the in-thread host that ``load_program``
gives (a :class:`LocalTransport`), and the wire session is saved both
ways — ``record save`` and ``dumpcore`` — and both files are reopened.
The same requests then go to the wire, the in-thread host, the core's
:class:`CoreTransport` and the recording's :class:`ReplayTransport`.
Each must answer every read exactly as the wire nub does, errors
included; the in-thread host and the recording, which are mutable, must
also answer stores and breakpoint patches alike, and the core must
refuse them.
"""

import io
import struct

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.debugger import load_over_wire
from repro.ldb.postmortem import PostMortemError
from repro.machines import ARCH_NAMES, SIGSEGV, SIGTRAP, get_arch
from repro.machines.core import CoreFile
from repro.nub import protocol
from repro.nub.nub import nub_md_for
from repro.nub.session import NubError

BOOM = """int g;
double d;
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    d = 1.5;
    for (i = 0; i < 6; i++)
        g = g + i;
    poke((int *)0x7fffffff);
    return 0;
}
"""

UNMAPPED = 0x7FFFFF00

_EXES = {}


def boom_exe(arch):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"boom.c": BOOM}, arch, debug=True)
    return _EXES[arch]


def outcome(transport, msg, expect):
    """A reply as comparable data: its type and payload, or the error."""
    try:
        reply = transport.transact(msg, expect)
    except NubError as err:
        return ("error", err.code)
    return (reply.mtype, reply.payload)


def reads(arch, context_addr, memsize):
    """The read requests every transport must answer like the live nub."""
    context_size = get_arch(arch).context_size()
    data = (protocol.MSG_DATA,)
    out = [(protocol.fetch("d", context_addr + offset, 4), data)
           for offset in range(0, context_size - 3, 4)]
    out += [(protocol.fetch("d", context_addr + offset, 8), data)
            for offset in range(0, context_size - 7, 8)]
    out += [
        (protocol.fetch("d", context_addr, 10), data),
        (protocol.fetch("x", context_addr, 4), data),
        (protocol.fetch("d", UNMAPPED, 4), data),
        (protocol.blockfetch("d", memsize - 16, 64), data),
        (protocol.blockfetch("d", UNMAPPED, 16), data),
        (protocol.breaks(), (protocol.MSG_BREAKLIST,)),
        (protocol.icount(), (protocol.MSG_CKPT,)),
    ]
    return out


def writes(arch, target, context_addr):
    """Stores and breakpoint patches, each followed by a read back."""
    exe = target.process.exe
    ok, data = (protocol.MSG_OK,), (protocol.MSG_DATA,)
    trap = target.machdep.break_bytes_le
    freg_lo, freg_hi = nub_md_for(get_arch(arch)).freg_region(context_addr)
    out = [
        (protocol.store("d", context_addr + 4, b"\x78\x56\x34\x12"), ok),
        (protocol.fetch("d", context_addr + 4, 4), data),
        (protocol.blockstore("d", exe.data_base, bytes(range(1, 17))), ok),
        (protocol.blockfetch("d", exe.data_base, 16), data),
        (protocol.store("d", UNMAPPED, b"\0\0\0\0"), ok),
        (protocol.store("x", context_addr, b"\0\0\0\0"), ok),
        (protocol.plant(exe.entry, trap), ok),
        (protocol.breaks(), (protocol.MSG_BREAKLIST,)),
        (protocol.fetch("c", exe.entry, len(trap)), data),
        (protocol.unplant(exe.entry), ok),
        (protocol.unplant(exe.entry), ok),
        (protocol.fetch("c", exe.entry, len(trap)), data),
        (protocol.breaks(), (protocol.MSG_BREAKLIST,)),
    ]
    if freg_hi > freg_lo:
        # a saved double: the rmips nub swaps its words both ways
        out[:0] = [(protocol.store("d", freg_lo, b"\x01\x02\x03\x04"
                                   b"\x05\x06\x07\x08"), ok),
                   (protocol.fetch("d", freg_lo, 8), data)]
    return out


def crash(ldb, target, rec_path):
    """break poke -> run -> on to the fault, recording all the way."""
    ldb.start_recording(path=rec_path, interval=37)
    ldb.break_at_function("poke")
    assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    assert ldb.run_to_stop() == "stopped" and target.signo == SIGSEGV
    ldb.record_save()


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_live_core_and_replay_answer_alike(arch, tmp_path):
    rec_path = str(tmp_path / "boom.ldbrec")
    core_path = str(tmp_path / "boom.core")
    live = Ldb(stdout=io.StringIO())
    target = load_over_wire(live, boom_exe(arch))
    crash(live, target, rec_path)
    target.dump_core(core_path)
    in_thread = Ldb(stdout=io.StringIO())
    local_target = in_thread.load_program(boom_exe(arch))
    crash(in_thread, local_target, str(tmp_path / "local.ldbrec"))

    wire = target.transport
    local = local_target.transport
    core = Ldb(stdout=io.StringIO()).open_core(core_path).transport
    replay = Ldb(stdout=io.StringIO()).open_recording(rec_path).transport
    context_addr = target.context_addr
    requests = reads(arch, context_addr, target.process.mem.size)
    for msg, expect in requests:
        want = outcome(wire, msg, expect)
        for other in (local, core, replay):
            assert outcome(other, msg, expect) == want, (other, msg)

    with open(core_path, "rb") as handle:
        written = handle.read()
    for transport in (wire, local, core, replay):
        reply = transport.transact(protocol.dumpcore(), (protocol.MSG_DATA,))
        assert reply.payload == written, transport

    for msg, expect in writes(arch, target, context_addr):
        want = outcome(wire, msg, expect)
        for other in (local, replay):
            assert outcome(other, msg, expect) == want, (other, msg)
        if msg.mtype in (protocol.MSG_STORE, protocol.MSG_BLOCKSTORE,
                         protocol.MSG_PLANT, protocol.MSG_UNPLANT):
            with pytest.raises(PostMortemError):
                core.transact(msg, expect)
    target.kill()


def test_fetch_of_a_non_value_size_is_a_bad_message(tmp_path):
    """PROTOCOL.md 3.1: a FETCH size MUST be one of VALUE_SIZES.  The
    wire-less hosts answer any other size as the wire nub does, with
    ERR_BAD_MESSAGE, never with a raw exception."""
    rec_path = str(tmp_path / "boom.ldbrec")
    core_path = str(tmp_path / "boom.core")
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(boom_exe("rmips"))
    crash(ldb, target, rec_path)
    target.dump_core(core_path)
    core = Ldb(stdout=io.StringIO()).open_core(core_path).transport
    replay = Ldb(stdout=io.StringIO()).open_recording(rec_path).transport
    for size in (0, 3, 5, 16, 4096, target.process.mem.size):
        msg = protocol.Message(protocol.MSG_FETCH, struct.pack(
            "<BII", ord("d"), target.context_addr, size))
        for transport in (target.transport, core, replay):
            assert outcome(transport, msg, (protocol.MSG_DATA,)) == (
                "error", protocol.ERR_BAD_MESSAGE), (transport, size)


def restore_keeps_breakpoints(transport, a, b, trap, original_b,
                              restore_to=None):
    """PLANT b, CHECKPOINT, PLANT a, UNPLANT b, RESTORE: the program
    rewinds but the planted table does not, so BREAKS lists a and not
    b, the code at a holds the trap and the code at b its original.
    ``restore_to`` names a checkpoint taken with b planted instead of
    the CHECKPOINT (a recording's spill); every RESTORE goes twice, as
    a retried one would."""
    ok, ckpt = (protocol.MSG_OK,), (protocol.MSG_CKPT,)
    transport.transact(protocol.plant(b, trap), ok)
    if restore_to is None:
        restore_to, _icount = protocol.parse_ckpt(
            transport.transact(protocol.checkpoint(), ckpt))
    transport.transact(protocol.plant(a, trap), ok)
    transport.transact(protocol.unplant(b), ok)
    for _ in range(2):
        transport.transact(protocol.restore(restore_to), ckpt)
        listed = protocol.parse_breaklist(transport.transact(
            protocol.breaks(), (protocol.MSG_BREAKLIST,)))
        assert a in dict(listed) and b not in dict(listed)
        for address, want in ((a, trap), (b, original_b)):
            fetched = transport.transact(
                protocol.fetch("c", address, len(trap)), (protocol.MSG_DATA,))
            assert fetched.payload == want, hex(address)
    transport.transact(protocol.unplant(a), ok)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_restore_rewinds_the_program_not_the_breakpoints(arch, tmp_path):
    """RESTORE keeps the nub's planted table (PROTOCOL.md §3.5): on the
    live nub over the wire and in-thread, and on a reopened recording
    both for the nub's own checkpoints and for a spill written while b
    was planted."""
    rec_path = str(tmp_path / "boom.ldbrec")
    live = Ldb(stdout=io.StringIO())
    target = live.load_program(boom_exe(arch))
    symtab = target.symtab
    a = symtab.stop_address(symtab.first_stop_of(
        symtab.extern_entry("main")))
    b = symtab.stop_address(symtab.first_stop_of(
        symtab.extern_entry("poke")))
    trap = target.machdep.break_bytes_le
    original_b = target.machdep.nop_bytes_le
    crash(live, target, rec_path)
    wire_ldb = Ldb(stdout=io.StringIO())
    wire_target = load_over_wire(wire_ldb, boom_exe(arch))
    crash(wire_ldb, wire_target, str(tmp_path / "wire.ldbrec"))

    restore_keeps_breakpoints(target.transport, a, b, trap, original_b)
    restore_keeps_breakpoints(wire_target.transport, a, b, trap, original_b)
    wire_target.kill()
    replay = Ldb(stdout=io.StringIO()).open_recording(rec_path).transport
    restore_keeps_breakpoints(replay, a, b, trap, original_b)
    spill = next(spill for spill in replay.recording.spills
                 if b in dict(spill.state.planted))
    restore_keeps_breakpoints(replay, a, b, trap, original_b,
                              restore_to=spill.cid)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_a_restore_serves_the_checkpoints_stop_again(arch, tmp_path):
    """RESTORE brings back the stop record the checkpoint was taken at
    (PROTOCOL.md §3.5), so DUMPCORE after it records that stop and not
    the one the target left: alike on the wire nub, the in-thread host
    and a recording's own (nub-minted) checkpoint."""
    rec_path = str(tmp_path / "boom.ldbrec")
    wire_ldb = Ldb(stdout=io.StringIO())
    wire = load_over_wire(wire_ldb, boom_exe(arch))
    crash(wire_ldb, wire, rec_path)
    local_ldb = Ldb(stdout=io.StringIO())
    local = local_ldb.load_program(boom_exe(arch))
    crash(local_ldb, local, str(tmp_path / "local.ldbrec"))
    replay_ldb = Ldb(stdout=io.StringIO())
    replay = replay_ldb.open_recording(rec_path)
    cores = []
    for ldb, target in ((wire_ldb, wire), (local_ldb, local),
                        (replay_ldb, replay)):
        ldb.reverse_continue(target)
        cid, icount = target.take_checkpoint()
        stop = (target.stop_pc(), icount)
        assert ldb.run_to_stop(target) == "stopped"
        assert target.signo == SIGSEGV
        target.restore_checkpoint(cid)
        cores.append(target.transport.transact(
            protocol.dumpcore(), (protocol.MSG_DATA,)).payload)
        core = CoreFile.from_bytes(cores[-1])
        assert (core.signo, core.fault_pc, core.icount) == (
            (SIGTRAP,) + stop), target.transport
    assert cores[1] == cores[0] and cores[2] == cores[0]
    wire.kill()
