"""The debug nub (paper Sec. 4.2).

The nub is loaded with the target program and runs in user space: its
data — the context save area — lives in the *target's own memory* at a
fixed low address, which is why a faulty program can destroy it (the
vulnerability the paper discusses).  When the target faults or hits a
breakpoint, the nub saves a context, notifies the debugger (signal
number, code, context address), and services fetch and store requests
until told to continue, to terminate, or to break the connection.

When a connection breaks — even by a debugger crash — the nub preserves
the state of the target and waits for a new connection from another
debugger instance.

Machine-dependent nub code is isolated in the ``*NubMD`` classes:

* rmips (big-endian): doubleword fetches/stores of saved floating-point
  registers must swap words, because the kernel-saved context stores
  them least-significant-word first (the paper's footnote 3);
* rm68k: 80-bit float fetch/store needs its own code (the paper's
  assembly-language case);
* rvax/rm68k: a custom context representation (``struct sigcontext``
  will not do, Sec. 4.3);
* rsparc: nothing — the operating system provides the registers.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..machines import (DEFAULT_MAX_STEPS, ExitEvent, FaultEvent,
                        IcountStopEvent, Process, SIGTRAP)
from ..machines.core import core_from_process
from ..machines.loader import NUB_AREA
from ..machines.machstate import MachineState
from . import protocol
from .channel import Channel, ChannelClosed, Listener
from .faults import FaultInjectingChannel, FaultSchedule, NubKilled


class NubMD:
    """Machine-independent context save/restore, parameterized by the
    machine-dependent context-field description (paper Sec. 4.3)."""

    def __init__(self, arch):
        self.arch = arch
        self.fields = arch.context_fields()
        self.context_size = arch.context_size()

    def save_context(self, cpu, mem, base: int, pc: int) -> None:
        for field in self.fields:
            address = base + field.offset
            if field.kind == "pc":
                mem.write_u32(address, pc)
            elif field.kind == "reg":
                index = int(field.name[1:])
                mem.write_u32(address, cpu.regs[index])
            elif field.kind == "freg":
                index = int(field.name[1:])
                self.save_freg(mem, address, cpu.fregs[index], field.size)
            else:  # flags
                flags = (int(cpu.cc_lt) | (int(cpu.cc_eq) << 1)
                         | (int(cpu.cc_ltu) << 2))
                mem.write_u32(address, flags)

    def restore_context(self, cpu, mem, base: int) -> int:
        pc = 0
        for field in self.fields:
            address = base + field.offset
            if field.kind == "pc":
                pc = mem.read_u32(address)
            elif field.kind == "reg":
                index = int(field.name[1:])
                cpu.regs[index] = mem.read_u32(address)
            elif field.kind == "freg":
                index = int(field.name[1:])
                cpu.fregs[index] = self.restore_freg(mem, address, field.size)
            else:
                flags = mem.read_u32(address)
                cpu.cc_lt = bool(flags & 1)
                cpu.cc_eq = bool(flags & 2)
                cpu.cc_ltu = bool(flags & 4)
        return pc

    def save_freg(self, mem, address: int, value: float, size: int) -> None:
        mem.write_f64(address, value)

    def restore_freg(self, mem, address: int, size: int) -> float:
        return mem.read_f64(address)

    def freg_region(self, base: int):
        """(start, end) of the saved floating registers in the context."""
        fregs = [f for f in self.fields if f.kind == "freg"]
        if not fregs:
            return (0, 0)
        return (base + fregs[0].offset, base + fregs[-1].offset + fregs[-1].size)

    def fix_fetched(self, address: int, raw_le: bytes, context_base: int) -> bytes:
        """Hook for targets whose saved floats need fixing on the wire."""
        return raw_le

    def fix_stored(self, address: int, raw_le: bytes, context_base: int) -> bytes:
        return raw_le


class MipsNubMD(NubMD):
    """Big-endian rmips: the kernel saves doubleword floating-point
    registers least-significant word first (footnote 3), so nub code for
    doubleword fetches and stores of saved f-registers swaps the words."""

    def save_freg(self, mem, address: int, value: float, size: int) -> None:
        import struct
        raw = struct.pack(">d", value)
        mem.write_bytes(address, raw[4:] + raw[:4])  # LSW first: the quirk

    def restore_freg(self, mem, address: int, size: int) -> float:
        import struct
        raw = mem.read_bytes(address, 8)
        return struct.unpack(">d", raw[4:] + raw[:4])[0]

    def _in_freg_area(self, address: int, size: int, context_base: int) -> bool:
        start, end = self.freg_region(context_base)
        return size == 8 and start <= address < end

    def fix_fetched(self, address: int, raw_le: bytes, context_base: int) -> bytes:
        if self._in_freg_area(address, len(raw_le), context_base):
            return raw_le[4:] + raw_le[:4]
        return raw_le

    def fix_stored(self, address: int, raw_le: bytes, context_base: int) -> bytes:
        if self._in_freg_area(address, len(raw_le), context_base):
            return raw_le[4:] + raw_le[:4]
        return raw_le


class M68kNubMD(NubMD):
    """rm68k: 80-bit extended floats need their own fetch/store code (the
    paper's assembly-language case), and the context is a custom layout
    rather than a sigcontext."""

    def save_freg(self, mem, address: int, value: float, size: int) -> None:
        mem.write_f80(address, value)

    def restore_freg(self, mem, address: int, size: int) -> float:
        return mem.read_f80(address)


class VaxNubMD(NubMD):
    """rvax: a custom context representation (Sec. 4.3)."""


class SparcNubMD(NubMD):
    """rsparc: the OS provides the registers; no machine-dependent dirt."""


def nub_md_for(arch) -> NubMD:
    table = {"rmips": MipsNubMD, "rmipsel": NubMD, "rsparc": SparcNubMD,
             "rm68k": M68kNubMD, "rvax": VaxNubMD}
    return table.get(arch.name, NubMD)(arch)


class Nub:
    """The nub controlling one target process."""

    #: where the nub's data structures live in target memory (user space,
    #: and therefore vulnerable to the target program)
    CONTEXT_ADDR = NUB_AREA

    def __init__(self, process: Process, channel: Optional[Channel] = None,
                 listener: Optional[Listener] = None,
                 stop_at_entry: bool = True,
                 accept_timeout: Optional[float] = 30.0,
                 core_path: Optional[str] = None,
                 loader_ps: Optional[str] = None,
                 fault_schedule: Optional[FaultSchedule] = None,
                 obs=None):
        if obs is None:
            # imported here: repro.obs decodes frames via repro.nub, so
            # a module-level import would be circular
            from ..obs import Observability
            obs = Observability()
        #: tracing + metrics for the nub side (``nub.*`` names).  A nub
        #: hosted on the debugger's thread shares the debugger's hub; one
        #: on its own thread keeps its own, because interleaving its
        #: records into the debugger's trace would make transcripts racy.
        self.obs = obs
        self.process = process
        self.arch = process.arch
        #: fault injection on the *nub's* sends (tests, chaos runs): the
        #: schedule wraps the given channel and every accepted one, so a
        #: scripted "kill" dies inside the nub whatever the topology
        self.fault_schedule = fault_schedule
        if fault_schedule is not None and channel is not None:
            channel = FaultInjectingChannel(channel, fault_schedule)
        self.channel = channel
        self.listener = listener
        self.stop_at_entry = stop_at_entry
        self.accept_timeout = accept_timeout
        self.md = nub_md_for(self.arch)
        self.context_addr = self.CONTEXT_ADDR
        self.entry_pause = process.exe.symbols.get("__nub_pause")
        self.exit_status: Optional[int] = None
        self.killed = False
        #: where to auto-write a core on a fatal fault or injected death
        #: (None: no automatic cores)
        self.core_path = core_path
        #: the loader symbol table to embed in cores, so they open
        #: standalone; falls back to the executable's own copy
        self.loader_ps = (loader_ps if loader_ps is not None
                          else getattr(process.exe, "loader_ps", None))
        #: the stop currently being served (the fault record a core records)
        self.last_stop: Optional[FaultEvent] = None
        #: last-folded execution-engine counters (see _fold_sim_metrics)
        self._sim_folded: dict = {}
        #: time travel: checkpoints live here, nub-side, so images never
        #: cross the wire; id -> (ProcessSnapshot, planted copy, stop),
        #: the copy being what rewind needs for traps removed since and
        #: the stop the one a RESTORE serves again
        self.checkpoints: dict = {}
        self.next_checkpoint = 1
        #: seq/id of the last CHECKPOINT served, so a retried request
        #: (lost reply) does not mint a second, leaked snapshot
        self._last_ckpt_seq = None
        self._last_ckpt_id = None
        #: a pending RUNTO target icount (None: plain CONTINUE)
        self.runto: Optional[int] = None
        #: icount at the last resume: the runaway guard counts from here
        self._resumed_at = 0
        self.planted: dict = {}  # address -> original little-endian bytes
        #: sequence id of the request being served
        self._reply_seq = None
        #: seq of the last control acted on: a duplicated CONTINUE can
        #: arrive after the *next* stop (in flight past the drain), and
        #: resuming on it would desynchronize the debugger
        self._last_control_seq = None

    # -- main loop -----------------------------------------------------------

    def run(self) -> Optional[int]:
        """Run the target to completion, handling signals."""
        try:
            return self._run_loop()
        except NubKilled:
            # injected process death: the target dies with the nub, so
            # nothing survives but the core (when one is configured)
            self.obs.tracer.warn("nub.process_died")
            self.obs.metrics.inc("nub.process_deaths")
            if self.last_stop is not None:
                self._write_auto_core(self.last_stop)
            self._drop_channel()
            if self.listener is not None:
                self.listener.close()
                self.listener = None
            self.killed = True
            return None

    def _fold_sim_metrics(self) -> None:
        """Fold execution-engine block-cache deltas into ``sim.*``
        metrics.  Done per stop, not per dispatch, so the simulation's
        hot path never touches the metrics lock."""
        engine = self.process.cpu.engine
        stats = engine.stats
        folded = self._sim_folded
        metrics = self.obs.metrics
        for name, value in (("sim.blocks_compiled", stats.compiled),
                            ("sim.block_hits", stats.hits),
                            ("sim.blocks_invalidated", stats.invalidated)):
            delta = value - folded.get(name, 0)
            if delta:
                metrics.inc(name, delta)
                folded[name] = value

    def _run_loop(self) -> Optional[int]:
        if self.channel is None and self.listener is None:
            self.stop_at_entry = False  # nobody can debug: run through
        while True:
            event = self.advance()
            if isinstance(event, ExitEvent):
                self._send(protocol.exited(event.status))
                self._drop_channel()
                return event.status
            outcome = self.handle_signal(event)
            if outcome == "killed":
                self._drop_channel()
                self.killed = True
                return None

    def advance(self, budget: Optional[int] = None):
        """Run the resumed target to the next stop the nub announces:
        the entry pause (when ``stop_at_entry``), a trap, a fault, the
        pending RUNTO bound, or an exit.

        Answers the :class:`ExitEvent`, or the :class:`FaultEvent` of a
        stop already made the one being served (context saved, and a
        core written first for a fatal fault).  With ``budget``, at
        most that many instructions run, and ``None`` means they ran
        out first: call again to go on.  The runaway guard counts from
        the resume, however many calls the run takes.
        """
        cpu = self.process.cpu
        while True:
            stop_at = self.runto
            if budget is not None:
                slice_end = cpu.icount + budget
                if stop_at is None or slice_end < stop_at:
                    stop_at = slice_end
            guard = DEFAULT_MAX_STEPS - (cpu.icount - self._resumed_at)
            event = self.process.run_until_event(max_steps=guard,
                                                 stop_at_icount=stop_at)
            self._fold_sim_metrics()
            if isinstance(event, IcountStopEvent) and (
                    self.runto is None or event.icount < self.runto):
                return None  # the budget ran out, not the RUNTO bound
            if isinstance(event, ExitEvent):
                self.exit_status = event.status
                self.obs.tracer.event("nub.exit", status=event.status)
                return event
            if self._is_entry_pause(event) and not self.stop_at_entry:
                # the pause does not consume RUNTO
                cpu.pc = event.pc + self.arch.noop_advance
                self._resumed_at = cpu.icount
                continue
            self.runto = None
            self.obs.metrics.inc("nub.stops")
            self.obs.tracer.event("nub.stop", signo=event.signo,
                                  code=event.code, pc="0x%x" % event.pc)
            self.stopped(event)
            if event.signo != SIGTRAP:
                # a fatal fault: leave a core behind before anything else
                # can go wrong (the debugger may never come, or die with us)
                self._write_auto_core(event)
            return event

    def _is_entry_pause(self, event: FaultEvent) -> bool:
        return event.signo == SIGTRAP and event.pc == self.entry_pause

    # -- signal handling ---------------------------------------------------------

    def stopped(self, event: FaultEvent) -> None:
        """Save the context at a stop and make ``event`` the stop being
        served (the fault record DUMPCORE writes)."""
        self.md.save_context(self.process.cpu, self.process.mem,
                             self.context_addr, event.pc)
        self.last_stop = event

    def resume(self) -> None:
        """Load the saved context, which the debugger may have edited,
        back into the CPU."""
        cpu = self.process.cpu
        cpu.pc = self.md.restore_context(cpu, self.process.mem,
                                         self.context_addr)
        self._resumed_at = cpu.icount

    def handle_signal(self, event: FaultEvent) -> str:
        """Notify the debugger of the stop :meth:`advance` made, and
        service requests until it resumes, kills, or lets go."""
        while True:
            if self.channel is None:
                if self.listener is None:
                    return "killed"  # fatal signal, nobody debugging
                accepted = self.listener.accept(self.accept_timeout)
                if self.fault_schedule is not None:
                    accepted = FaultInjectingChannel(accepted,
                                                     self.fault_schedule)
                self.channel = accepted
                self._last_control_seq = None
            try:
                # the conversation is lockstep, so input queued from
                # before this stop is stale (e.g. duplicated frames)
                self.channel.drain()
                self.channel.send(protocol.signal(event.signo, event.code,
                                                  self.context_addr))
                outcome = self.serve()
            except ChannelClosed:
                # debugger crash: preserve state, wait for a new debugger
                self._drop_channel()
                continue
            if outcome == "continue":
                self.resume()
                return "continued"
            if outcome == "killed":
                return "killed"
            # detached, or an unframeable stream was dropped: keep the
            # target stopped and await a new connection
            self._drop_channel()

    def serve(self) -> str:
        """Service fetch/store requests until continue/kill/detach.

        Malformed input never tears the target down: payloads that fail
        validation are answered with ``ERROR ERR_BAD_MESSAGE``, and an
        unframeable stream (hostile length field) drops only the
        *connection* — the target stays stopped for the next debugger.
        """
        while True:
            try:
                msg = self.channel.recv()
            except protocol.CrcError:
                self.obs.metrics.inc("nub.bad_frames")
                self._reply_seq = None
                self.channel.send(protocol.error(protocol.ERR_BAD_MESSAGE))
                continue
            except protocol.FrameError:
                self.obs.metrics.inc("nub.framing_lost")
                return "reset"  # recv already dropped the connection
            self.obs.metrics.inc("nub.frames")
            self._trace_frame("nub.recv", msg)
            self._reply_seq = msg.seq
            try:
                outcome = self._dispatch(msg)
            except protocol.ProtocolError:
                self.obs.metrics.inc("nub.bad_frames")
                self._reply(protocol.error(protocol.ERR_BAD_MESSAGE))
                continue
            if outcome is not None:
                return outcome

    def _dispatch(self, msg) -> Optional[str]:
        if msg.mtype in self._ANSWERS:
            self._reply(self.answer(msg))
        elif msg.mtype == protocol.MSG_HELLO:
            self._do_hello(msg)
        elif msg.mtype == protocol.MSG_RUNTO:
            target = protocol.parse_runto(msg)
            if self._stale_control(msg):
                return None
            self._ack()
            self.runto = target
            return "continue"
        elif msg.mtype == protocol.MSG_CONTINUE:
            self._require_empty(msg)
            if self._stale_control(msg):
                return None
            self._ack()
            return "continue"
        elif msg.mtype == protocol.MSG_KILL:
            self._require_empty(msg)
            if self._stale_control(msg):
                return None
            self._ack()
            return "killed"
        elif msg.mtype == protocol.MSG_DETACH:
            self._require_empty(msg)
            if self._stale_control(msg):
                return None
            self._ack()
            self.channel.close()
            return "detached"
        else:
            self._reply(protocol.error(protocol.ERR_BAD_MESSAGE))
        return None

    def answer(self, msg) -> protocol.Message:
        """The reply to one request, with no channel involved.

        Every fetch, store, breakpoint, time-travel and post-mortem
        request is answered here, so a nub hosted over a process
        rebuilt from a core or a recording answers exactly as a live
        one.  HELLO checks a connection's version and the controls
        act on the connection, so both stay in the live loop; a nub
        asked for them here answers ``ERR_UNSUPPORTED``.  A malformed
        payload raises :class:`~repro.nub.protocol.ProtocolError`."""
        handler = self._ANSWERS.get(msg.mtype)
        if handler is None:
            return protocol.error(protocol.ERR_UNSUPPORTED)
        return handler(self, msg)

    def _require_empty(self, msg) -> None:
        # a control message carrying a payload is corruption, not intent
        if msg.payload:
            raise protocol.ProtocolError("unexpected payload on control")

    def _stale_control(self, msg) -> bool:
        """True for a duplicated control (same sequence id as the last
        one acted on) — a frame duplicated on the wire can outrun the
        drain and arrive after the next stop; act on it once only.  The
        duplicate is re-acknowledged so a still-waiting debugger gets
        its reply, and the echo is discarded as stale otherwise."""
        if msg.seq == protocol.NO_SEQ:
            return False
        if msg.seq == self._last_control_seq:
            self._ack()
            return True
        self._last_control_seq = msg.seq
        return False

    def _ack(self) -> None:
        self._reply(protocol.ok())

    def _reply(self, msg) -> None:
        """Send a reply echoing the request's sequence id, so a
        retrying debugger can match it."""
        msg.seq = self._reply_seq
        self.obs.metrics.inc("nub.replies")
        self._trace_frame("nub.send", msg)
        self.channel.send(msg)

    def _trace_frame(self, name: str, msg) -> None:
        tracer = self.obs.tracer
        if not tracer.enabled:
            return
        from ..obs import wiretap  # deferred: see __init__
        tracer.event(name, **wiretap.describe(msg))

    def _do_hello(self, msg) -> None:
        # whatever version the debugger speaks, the nub answers with its
        # own: the debugger decides whether they can talk
        protocol.parse_hello(msg)
        self._reply(protocol.hello())

    # -- fetch/store ---------------------------------------------------------------

    def _do_fetch(self, msg) -> protocol.Message:
        space, address, size = protocol.parse_fetch(msg)
        if space not in "cd":
            # the nub answers only for code and data (paper Sec. 4.1)
            return protocol.error(protocol.ERR_BAD_SPACE)
        if size == 10 and not self.arch.has_f80:
            return protocol.error(protocol.ERR_UNSUPPORTED)
        try:
            raw = self.process.mem.read_bytes(address, size)
        except Exception:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        # the nub reads with the target's byte order and replies in
        # little-endian order (paper Sec. 4.1)
        raw_le = raw if self.arch.byteorder == "little" else raw[::-1]
        raw_le = self.md.fix_fetched(address, raw_le, self.context_addr)
        return protocol.data(raw_le)

    def _do_store(self, msg) -> protocol.Message:
        space, address, raw_le = protocol.parse_store(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        raw_le = self.md.fix_stored(address, raw_le, self.context_addr)
        raw = raw_le if self.arch.byteorder == "little" else raw_le[::-1]
        try:
            self.process.mem.write_bytes(address, raw)
        except Exception:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        return protocol.ok()

    # -- block transfers ------------------------------------------------------

    def _do_blockfetch(self, msg) -> protocol.Message:
        """A span of raw memory in one round-trip.

        The reply is the memory image in ascending address order — no
        byte-order normalization and no saved-float fixing; the debugger
        interprets values out of the block, so the cached path can
        reproduce the per-value path byte for byte.  A span that runs
        off the end of mapped memory is answered with the readable
        prefix; a span that starts unmapped gets ERR_BAD_ADDRESS.
        """
        space, address, length = protocol.parse_blockfetch(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        raw = self._readable_prefix(address, length)
        if raw is None:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        return protocol.data(raw)

    def _readable_prefix(self, address: int, length: int):
        mem = self.process.mem
        try:
            return mem.read_bytes(address, length)
        except Exception:
            pass
        lo, hi = 0, length  # binary-search the longest readable prefix
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            try:
                mem.read_bytes(address, mid)
                lo = mid
            except Exception:
                hi = mid
        if lo == 0:
            return None
        return mem.read_bytes(address, lo)

    def _do_blockstore(self, msg) -> protocol.Message:
        space, address, raw = protocol.parse_blockstore(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        try:
            self.process.mem.write_bytes(address, raw)
        except Exception:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        return protocol.ok()

    # -- breakpoints (Sec. 7.1) ---------------------------------------------

    def _write_le(self, address: int, raw_le: bytes) -> None:
        """Store little-endian wire bytes in the target's byte order."""
        self.process.mem.write_bytes(
            address, raw_le if self.arch.byteorder == "little"
            else raw_le[::-1])

    def _do_plant(self, msg) -> protocol.Message:
        address, trap = protocol.parse_plant(msg)
        size = len(trap)
        if address not in self.planted:
            # idempotent: a duplicated or retried PLANT must not re-read
            # the (already trapped) instruction as the saved original
            try:
                original = self.process.mem.read_bytes(address, size)
            except Exception:
                return protocol.error(protocol.ERR_BAD_ADDRESS)
            self.planted[address] = (original
                                     if self.arch.byteorder == "little"
                                     else original[::-1])
        self._write_le(address, trap)
        return protocol.ok()

    def _do_unplant(self, msg) -> protocol.Message:
        address = protocol.parse_unplant(msg)
        original_le = self.planted.pop(address, None)
        if original_le is None:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        self._write_le(address, original_le)
        return protocol.ok()

    def _do_breaks(self, msg) -> protocol.Message:
        self._require_empty(msg)
        return protocol.breaklist(sorted(self.planted.items()))

    def rewind(self, restore: Callable[[], None], planted_then: dict) -> None:
        """Bring back a past image with ``restore()`` but keep today's
        breakpoints: they are not history.  The traps planted now go
        back over the image, and a trap planted then but removed since
        gets its original from ``planted_then``, the table the image was
        taken with.  Rewinding twice gives the same result, so a retried
        RESTORE is harmless.  A trap the image already holds is left
        alone: any write to code drops the engine's compiled blocks."""
        mem = self.process.mem
        traps = {address: mem.read_bytes(address, len(original))
                 for address, original in self.planted.items()}
        restore()
        for address, original_le in planted_then.items():
            if address not in traps:
                self._write_le(address, original_le)
        for address, raw in traps.items():
            if mem.read_bytes(address, len(raw)) != raw:
                mem.write_bytes(address, raw)

    # -- time travel ------------------------------------------------------------

    def _do_checkpoint(self, msg) -> protocol.Message:
        """Snapshot the whole process *nub-side*: CPU, COW memory pages,
        the planted-trap table and the stop being served.  Only a small
        id and the retired instruction count cross the wire — never the
        image itself."""
        self._require_empty(msg)
        if (msg.seq is not None and msg.seq != protocol.NO_SEQ
                and msg.seq == self._last_ckpt_seq
                and self._last_ckpt_id in self.checkpoints):
            # a retried CHECKPOINT (its reply was lost): answer again
            snap = self.checkpoints[self._last_ckpt_id][0]
            return protocol.ckpt(self._last_ckpt_id, snap.icount)
        cid = self.next_checkpoint
        self.next_checkpoint += 1
        self.checkpoints[cid] = (self.process.snapshot(), dict(self.planted),
                                 self.last_stop)
        self._last_ckpt_seq = msg.seq
        self._last_ckpt_id = cid
        return protocol.ckpt(cid, self.process.cpu.icount)

    def _do_restore(self, msg) -> protocol.Message:
        cid = protocol.parse_restore(msg)
        entry = self.checkpoints.get(cid)
        if entry is None:
            return protocol.error(protocol.ERR_BAD_CHECKPOINT)
        snap, planted_then, stop = entry
        self.rewind(lambda: self.process.restore(snap), planted_then)
        self.last_stop = stop  # what DUMPCORE records from here
        return protocol.ckpt(cid, self.process.cpu.icount)

    def _do_dropckpt(self, msg) -> protocol.Message:
        cid = protocol.parse_drop_checkpoint(msg)
        entry = self.checkpoints.pop(cid, None)
        if entry is not None:
            self.process.release_snapshot(entry[0])
        return protocol.ok()  # dropping twice is not an error

    def _do_icount(self, msg) -> protocol.Message:
        self._require_empty(msg)
        return protocol.ckpt(protocol.NO_CKPT, self.process.cpu.icount)

    # -- post-mortem --------------------------------------------------------------

    def _build_core(self, event: FaultEvent):
        return core_from_process(self.process, event.signo, event.code,
                                 event.pc, self.context_addr,
                                 planted=self.planted,
                                 loader_ps=self.loader_ps)

    def _do_dumpcore(self, msg) -> protocol.Message:
        """Serialize the stopped target into a core image, answered as
        DATA.  The context is already saved at ``context_addr``, so the
        core captures exactly what the live session sees."""
        self._require_empty(msg)
        if self.last_stop is None:
            return protocol.error(protocol.ERR_BAD_MESSAGE)
        raw = self._build_core(self.last_stop).to_bytes()
        self.obs.metrics.inc("nub.core_dumps")
        self.obs.tracer.event("nub.core_dump", bytes=len(raw))
        return protocol.data(raw)

    def _do_spill(self, msg) -> protocol.Message:
        """Serialize the complete resumable machine state as DATA.

        A core (:meth:`_do_dumpcore`) carries what a dead target needs;
        a recording checkpoint needs *everything* — including simulator
        bookkeeping like the rmips load-delay slot that the saved
        context has no field for — so recording gets its own verb."""
        self._require_empty(msg)
        if self.last_stop is None:
            return protocol.error(protocol.ERR_BAD_MESSAGE)
        state = MachineState.capture(self.process, self.planted)
        raw = state.to_bytes()
        self.obs.metrics.inc("nub.spills")
        self.obs.tracer.event("nub.spill", bytes=len(raw),
                              icount=state.icount)
        return protocol.data(raw)

    #: request type -> the handler whose reply :meth:`answer` returns
    _ANSWERS = {
        protocol.MSG_FETCH: _do_fetch,
        protocol.MSG_STORE: _do_store,
        protocol.MSG_BLOCKFETCH: _do_blockfetch,
        protocol.MSG_BLOCKSTORE: _do_blockstore,
        protocol.MSG_PLANT: _do_plant,
        protocol.MSG_UNPLANT: _do_unplant,
        protocol.MSG_BREAKS: _do_breaks,
        protocol.MSG_CHECKPOINT: _do_checkpoint,
        protocol.MSG_RESTORE: _do_restore,
        protocol.MSG_DROPCKPT: _do_dropckpt,
        protocol.MSG_ICOUNT: _do_icount,
        protocol.MSG_DUMPCORE: _do_dumpcore,
        protocol.MSG_SPILL: _do_spill,
    }

    def _write_auto_core(self, event: FaultEvent) -> None:
        """Best-effort automatic core at ``core_path``; a failed write
        must never take down the nub on top of the target's own fault."""
        if self.core_path is None:
            return
        try:
            self._build_core(event).dump(self.core_path)
        except OSError:
            self.obs.tracer.warn("nub.core_write_failed", path=self.core_path)
            return
        self.obs.metrics.inc("nub.core_writes")
        self.obs.tracer.event("nub.core_write", path=self.core_path,
                              signo=event.signo)

    def _send(self, msg) -> None:
        if self.channel is not None:
            try:
                self.channel.send(msg)
            except ChannelClosed:
                self._drop_channel()

    def _drop_channel(self) -> None:
        """Forget the debugger's connection, closing its socket."""
        if self.channel is not None:
            self.channel.close()
            self.channel = None


class NubRunner:
    """Runs a nub (and its target) on a background thread."""

    def __init__(self, nub: Nub):
        self.nub = nub
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.error: Optional[BaseException] = None

    def _run(self) -> None:
        try:
            self.nub.run()
        except BaseException as exc:  # surfaced via .error in tests
            self.error = exc

    def start(self) -> "NubRunner":
        self.thread.start()
        return self

    def join(self, timeout: Optional[float] = 10.0) -> None:
        self.thread.join(timeout)
