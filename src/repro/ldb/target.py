"""Target objects (paper Sec. 7).

ldb can connect to multiple targets simultaneously, so target-specific
state never lives in globals: the connection, the loader table, the
linker interface, the machine-dependent dictionaries, the breakpoint
table, and the stopped/running state all hang off a :class:`Target`.

The target's architecture comes from the top-level dictionary at debug
time, and is used to find the machine-dependent code and data — which is
what lets ldb change architectures dynamically and debug across
architectures (Sec. 1, 4).
"""

from __future__ import annotations

from typing import List, Optional

from ..nub import protocol
from ..nub.channel import Channel, ChannelClosed
from ..nub.session import (
    NubError,
    NubSession,
    SessionError,
    Transport,
    TransportError,
)
from ..postscript import (
    Interp,
    Location,
    Name,
    Operator,
    PSDict,
    PSError,
    String,
)
from .breakpoints import BreakpointTable
from .frames import Frame, build_stack, corrupt_frame
from .linker import linker_for
from .machdep import machdep_for
from .memories import CachingMemory, MemoryStats, WireMemory
from .symtab import SymbolTable


class TargetError(Exception):
    pass


class TargetDiedError(TargetError):
    """The target's process is gone for good — the nub died, or the
    target exited while the debugger was away.  When the nub managed to
    write a core on its way down, ``core_path`` points at it: the
    session can continue post-mortem with ``ldb core <file>``."""

    def __init__(self, message: str, core_path: Optional[str] = None):
        if core_path:
            message += " (core written to %s)" % core_path
        super().__init__(message)
        self.core_path = core_path


class Target:
    """One debugged process: connection + tables + state."""

    def __init__(self, interp: Interp, channel: Optional[Channel],
                 loader_table: PSDict, name: str = "t0", connector=None,
                 transport: Optional[Transport] = None, cache: bool = True,
                 obs=None):
        self.interp = interp
        # one observability hub per debug stack: adopt the caller's
        # (usually the Ldb's), else share the session's, else make one
        from ..obs import Observability  # deferred: obs decodes via repro.nub
        if obs is None and isinstance(transport, NubSession):
            obs = transport.obs
        #: the shared metrics registry + tracer (repro.obs.Observability)
        self.obs = obs if obs is not None else Observability()
        if transport is None:
            transport = NubSession(channel=channel, connector=connector,
                                   on_reconnect=self._session_reconnected,
                                   obs=self.obs)
        elif isinstance(transport, NubSession):
            transport.obs = self.obs
            if transport.on_reconnect is None:
                transport.on_reconnect = self._session_reconnected
        #: how this target talks to its nub (the memory, breakpoint, and
        #: control paths all go through it)
        self.transport = transport
        #: the session view of the transport, None when there is no wire
        self.session = transport if isinstance(transport, NubSession) else None
        self.name = name
        self.table = loader_table
        toplevel = loader_table["symtab"]
        self.arch_name = toplevel["architecture"].text
        # the architecture name selects the machine-dependent code & data
        self.machdep = machdep_for(self.arch_name)
        self.stats = MemoryStats(metrics=self.obs.metrics)
        self.wiremem = WireMemory(self.transport, stats=self.stats)
        if cache:
            self.wire = CachingMemory(self.wiremem,
                                      byteorder=self.machdep.byteorder,
                                      fixup=self.machdep.cache_fixup(self),
                                      stats=self.stats)
        else:
            self.wire = self.wiremem
        self.linker = linker_for(self.arch_name, loader_table, self.wire)
        self.symtab = SymbolTable(interp, toplevel, target=self)
        # the dictionaries the loader-table PostScript pushed with
        # UseArchitecture: deferred values forced later must resolve
        # against the machine-dependent names and against this table's
        # own symbol definitions (never another table's)
        self.arch_dict = interp.systemdict["ArchDicts"][self.machdep.ps_arch]
        self.names = loader_table["names"]
        self.target_dict = self._make_target_dict()
        self.breakpoints = BreakpointTable(self)
        #: is this a post-mortem target (a core file, nothing live)?
        from .postmortem import CoreTransport  # deferred: avoid a cycle
        self.post_mortem = isinstance(transport, CoreTransport)
        #: is this target a reopened recording (a ReplayTransport)?
        from ..trace.replay import ReplayTransport  # deferred: avoid a cycle
        self.replaying = isinstance(transport, ReplayTransport)
        #: the TraceWriter capturing this session to a file, if any
        self.trace_writer = None
        #: the loaded Recording when replaying (set by open_recording)
        self.recording = None
        #: the loader-table PostScript source this target was opened
        #: with (recordings embed it so they reopen self-contained)
        self.loader_ps: Optional[str] = None
        #: where the nub auto-writes a core when the target dies (set by
        #: the debugger when it launched the nub with a core path)
        self.core_path: Optional[str] = None
        #: 'running' | 'stopped' | 'exited' | 'disconnected' | 'reconnecting'
        self.state = "running"
        self.signo = 0
        self.sigcode = 0
        self.context_addr = 0
        self.exit_status: Optional[int] = None
        self._top_frame: Optional[Frame] = None
        #: the ReplayController once time travel is enabled (see
        #: repro.timetravel); None means "not recording"
        self.replay = None

    @property
    def channel(self) -> Optional[Channel]:
        """The transport's current channel (None while disconnected)."""
        return getattr(self.transport, "channel", None)

    def describe(self) -> dict:
        """A machine-readable status snapshot — JSON-able, and built
        only from state already in hand (no wire traffic: a dead or
        wedged nub must not make *describing* the target hang too)."""
        return {
            "name": self.name,
            "arch": self.arch_name,
            "state": self.state,
            "post_mortem": self.post_mortem,
            "signo": self.signo,
            "sigcode": self.sigcode,
            "exit_status": self.exit_status,
            "breakpoints": len(self.breakpoints.planted),
            "core_path": self.core_path,
            "recording": self.replay is not None,
            "recording_path": (self.trace_writer.path
                               if self.trace_writer is not None else None),
            "replaying": self.replaying,
        }

    # -- PostScript context ------------------------------------------------

    def _make_target_dict(self) -> PSDict:
        """Target-bound operators: LazyData, GlobalData, ProcName."""
        d = PSDict()

        def op_lazydata(interp) -> None:
            # (anchor) k LazyData -> loc : fetch the k-th word after the
            # anchor from the target address space (paper Sec. 2)
            index = interp.pop_int()
            anchor = interp.pop_name_or_string_text()
            base = self.linker.anchor_address(anchor)
            address = self.wire.fetch(
                Location.absolute("d", base + 4 * index), "i32") & 0xFFFFFFFF
            interp.push(Location.absolute("d", address))

        def op_globaldata(interp) -> None:
            # (label) GlobalData -> loc : an external symbol, via nm
            label = interp.pop_name_or_string_text()
            address = self.linker.global_address(label)
            if address is None:
                raise PSError("undefined", "no external symbol %s" % label)
            interp.push(Location.absolute("d", address))

        def op_procname(interp) -> None:
            # addr ProcName -> name|null : used by the PTR printer
            address = interp.pop_int()
            hit = self.linker.proc_containing(address)
            if hit is not None and hit[0] == address:
                interp.push(String(hit[1].lstrip("_")))
            else:
                interp.push(None)

        d["LazyData"] = Operator("LazyData", op_lazydata)
        d["GlobalData"] = Operator("GlobalData", op_globaldata)
        d["ProcName"] = Operator("ProcName", op_procname)
        return d

    def eval_dicts(self) -> List[PSDict]:
        """Dictionaries to push when interpreting this target's
        PostScript: machine-dependent names first, then the loader
        table's definitions, then target ops."""
        return [self.arch_dict, self.names, self.target_dict]

    # -- nub conversation -----------------------------------------------------

    def wait_for_stop(self, timeout: Optional[float] = 30.0) -> str:
        """Block until the nub reports a signal or an exit.

        If the connection dies while waiting and the target was attached
        with a reconnect path, the state becomes ``reconnecting`` — call
        :meth:`reconnect` to re-attach; the nub preserves the target.
        """
        try:
            msg = self.transport.recv_event(timeout)
        except ChannelClosed:
            self.wire.invalidate()
            self.state = ("reconnecting"
                          if getattr(self.transport, "connector", None)
                          is not None else "disconnected")
            return self.state
        except TransportError as err:
            if not getattr(err, "diverged", False):
                raise
            # replay divergence: the transport parked on the divergent
            # re-executed state as a stop.  Mark the target stopped
            # there before the typed error surfaces, so the session
            # stays debuggable (inspect the divergent world, resume)
            # instead of wedging in a phantom "running" state.
            self.wire.invalidate()
            if err.signo is not None:
                self.signo, self.sigcode = err.signo, err.sigcode
            self.state = "stopped"
            self._top_frame = None
            self.obs.metrics.inc("target.stops")
            self.obs.tracer.event("target.stop", target=self.name,
                                  signo=self.signo, code=self.sigcode)
            raise
        # whatever arrived, the target has run since we last looked:
        # every cached block is stale (the nub rewrote the context too)
        self.wire.invalidate()
        if msg.mtype == protocol.MSG_SIGNAL:
            self.signo, self.sigcode, self.context_addr = protocol.parse_signal(msg)
            self.state = "stopped"
            self._top_frame = None
            self.obs.metrics.inc("target.stops")
            # record only fields already in hand: fetching the pc here
            # would add wire traffic, breaking tracing neutrality
            self.obs.tracer.event("target.stop", target=self.name,
                                  signo=self.signo, code=self.sigcode)
        elif msg.mtype == protocol.MSG_EXITED:
            self.exit_status = protocol.parse_exited(msg)
            self.state = "exited"
            self.transport.close()  # the nub hangs up after an exit
            self.obs.metrics.inc("target.exits")
            self.obs.tracer.event("target.exit", target=self.name,
                                  status=self.exit_status)
        else:
            raise TargetError("unexpected nub message %r" % (msg,))
        return self.state

    def _require_stopped(self) -> None:
        # several parts of the debugger must know whether the target is
        # running or stopped (paper Sec. 7)
        if self.state != "stopped":
            raise TargetError("target %s is %s, not stopped"
                              % (self.name, self.state))

    def _require_live(self, what: str) -> None:
        """Refuse mutating verbs on a corpse, before anything is sent."""
        if self.post_mortem:
            raise TargetError(
                "target %s is post-mortem (a core file): cannot %s"
                % (self.name, what))

    def cont(self, at_pc: Optional[int] = None) -> None:
        """Resume execution, optionally at a new pc."""
        self._require_live("continue")
        self._require_stopped()
        if at_pc is not None:
            self.wire.store(self.machdep.pc_context_location(self.context_addr),
                            "i32", at_pc)
        try:
            self.transport.control(protocol.cont())
        except TransportError as err:
            raise TargetError("continue failed: %s" % err)
        self.obs.tracer.event("target.cont", target=self.name)
        self.state = "running"
        self._top_frame = None
        self.wire.invalidate()

    def resume_from_breakpoint(self) -> None:
        """Continue past the trapped no-op (skip it out of line)."""
        self._require_stopped()
        pc = self.stop_pc()
        self.cont(at_pc=self.breakpoints.resume_pc(pc))

    def kill(self) -> None:
        self._require_live("kill")
        self._require_stopped()
        try:
            self.transport.control(protocol.kill())
        except TransportError as err:
            raise TargetError("kill failed: %s" % err)
        self.obs.tracer.event("target.kill", target=self.name)
        self.state = "exited"
        self.wire.invalidate()
        self.transport.close()  # the nub hangs up after a kill

    def detach(self) -> None:
        """Break the connection; the nub preserves the target's state."""
        self._require_live("detach")
        self._require_stopped()
        try:
            self.transport.control(protocol.detach())
        except TransportError as err:
            raise TargetError("detach failed: %s" % err)
        self.obs.tracer.event("target.detach", target=self.name)
        self.transport.close()
        self.state = "disconnected"
        self.wire.invalidate()

    # -- time travel (checkpoint/replay over the nub) ----------------------

    def _tt_transact(self, msg, expect):
        """One time-travel exchange.  A core has no future to travel
        to, so a post-mortem target refuses before anything is sent."""
        self._require_live(protocol.type_name(msg.mtype).lower())
        try:
            return self.transport.transact(msg, expect=expect)
        except NubError as err:
            if err.code == protocol.ERR_BAD_CHECKPOINT:
                raise TargetError("no such checkpoint on the nub")
            raise TargetError("time-travel request failed: nub error %d"
                              % err.code)
        except TransportError as err:
            raise TargetError("time-travel request failed: %s" % err)

    def current_icount(self) -> int:
        """The target's retired-instruction count (at the current stop)."""
        self._require_stopped()
        reply = self._tt_transact(protocol.icount(),
                                  expect=(protocol.MSG_CKPT,))
        _cid, icount = protocol.parse_ckpt(reply)
        return icount

    def take_checkpoint(self):
        """Checkpoint the target nub-side; returns ``(id, icount)``.
        Only the id and the instruction count cross the wire — the
        image stays with the nub."""
        self._require_stopped()
        self.stats.note("wire", "checkpoint")
        reply = self._tt_transact(protocol.checkpoint(),
                                  expect=(protocol.MSG_CKPT,))
        cid, icount = protocol.parse_ckpt(reply)
        self.obs.metrics.inc("target.checkpoints")
        self.obs.tracer.event("target.checkpoint", target=self.name,
                              ckpt=cid, icount=icount)
        return cid, icount

    def restore_checkpoint(self, cid: int) -> int:
        """Rewind the target to a checkpoint; returns its icount.

        The whole machine state changed under the debugger, so this
        resembles a reconnect: drop every cached block and forget the
        frame chain.  Breakpoints are not history: the nub keeps the
        traps planted now over the restored image, so the breakpoint
        table needs no reconciling.
        """
        self._require_stopped()
        self.stats.note("wire", "restore")
        reply = self._tt_transact(protocol.restore(cid),
                                  expect=(protocol.MSG_CKPT,))
        _cid, icount = protocol.parse_ckpt(reply)
        # like a reconnect, this silently rewrites the whole machine
        # state under the debugger: one warning-level mark per restore
        self.obs.metrics.inc("target.restores")
        self.obs.tracer.warn("target.restore", target=self.name,
                             ckpt=cid, icount=icount)
        self.wire.invalidate()
        self._top_frame = None
        from ..machines.isa import SIGTRAP
        # checkpoints are taken at stops, so the restored state is the
        # checkpoint's SIGTRAP stop (context area included)
        self.signo = SIGTRAP
        self.sigcode = 0
        self.state = "stopped"
        return icount

    def drop_checkpoint(self, cid: int) -> None:
        """Release a nub-side checkpoint (stop paying its COW cost)."""
        self.stats.note("wire", "dropckpt")
        self._tt_transact(protocol.drop_checkpoint(cid),
                          expect=(protocol.MSG_OK,))

    def run_to_icount(self, target_icount: int,
                      at_pc: Optional[int] = None) -> None:
        """Resume, asking the nub to stop after ``target_icount``
        retired instructions (surfaces as a SIGTRAP/CODE_ICOUNT stop)."""
        self._require_live("run")
        self._require_stopped()
        if at_pc is not None:
            self.wire.store(self.machdep.pc_context_location(self.context_addr),
                            "i32", at_pc)
        self.stats.note("wire", "runto")
        self.obs.tracer.event("target.runto", target=self.name,
                              icount=target_icount)
        try:
            self.transport.control(protocol.runto(target_icount))
        except TransportError as err:
            raise TargetError("run-to-icount failed: %s" % err)
        self.state = "running"
        self._top_frame = None
        self.wire.invalidate()

    def at_icount_stop(self) -> bool:
        """Did the target stop because a RUNTO count was reached?"""
        from ..machines.isa import CODE_ICOUNT, SIGTRAP
        return (self.state == "stopped" and self.signo == SIGTRAP
                and self.sigcode == CODE_ICOUNT)

    # -- post-mortem (core dumps) ------------------------------------------

    def dump_core(self, path: str):
        """Ask the nub to serialize the stopped target (DUMPCORE) and
        write the image to ``path``; returns the parsed
        :class:`~repro.machines.core.CoreFile`.
        """
        self._require_stopped()
        from ..machines.core import CoreError, CoreFile
        self.stats.note("wire", "dumpcore")
        try:
            reply = self.transport.transact(protocol.dumpcore(),
                                            expect=(protocol.MSG_DATA,))
        except NubError as err:
            raise TargetError("core dump failed: nub error %d" % err.code)
        except TransportError as err:
            raise TargetError("core dump failed: %s" % err)
        try:
            core = CoreFile.from_bytes(reply.payload)
        except CoreError as err:
            raise TargetError("nub answered an unreadable core: %s" % err)
        try:
            core.dump(path)
        except OSError as err:
            raise TargetError("cannot write core to %s: %s" % (path, err))
        self.obs.metrics.inc("target.core_dumps")
        self.obs.tracer.event("target.dumpcore", target=self.name,
                              path=path, size=len(reply.payload))
        return core

    # -- recording (persistent traces) -------------------------------------

    def spill_state(self):
        """Ask the nub for the complete resumable machine state (SPILL)
        of the current stop; returns the parsed
        :class:`~repro.machines.machstate.MachineState`.
        """
        self._require_stopped()
        from ..machines.machstate import MachineState, StateError
        self.stats.note("wire", "spill")
        reply = self._tt_transact(protocol.spill(),
                                  expect=(protocol.MSG_DATA,))
        try:
            state = MachineState.from_bytes(reply.payload)
        except StateError as err:
            raise TargetError("nub answered an unreadable state spill: %s"
                              % err)
        self.obs.metrics.inc("target.spills")
        self.obs.tracer.event("target.spill", target=self.name,
                              icount=state.icount,
                              bytes=len(reply.payload))
        return state

    # -- crash recovery (paper Sec. 7.1) ----------------------------------

    def _session_reconnected(self, session: NubSession) -> None:
        """Session hook: a new connection found the target stopped.
        Apply the re-announced stop and resynchronize breakpoints."""
        self.wire.invalidate()
        announced = session.last_signal is not None
        if announced:
            self.signo, self.sigcode, self.context_addr = session.last_signal
            self.state = "stopped"
            self._top_frame = None
            self.breakpoints.resync()
            if self.replay is not None:
                self.replay.reconnected()
            if self.trace_writer is not None:
                self.trace_writer.stitch_reconnect()
        # no stop announced: the nub answered with EXITED (queued as a
        # pending event) or nothing at all — there is no stopped target
        # whose traps to adopt, so do NOT replay BREAKS here
        # the one warning per resync: a reconnect silently rewrites the
        # target's stop state and breakpoint table, so leave a visible mark
        self.obs.metrics.inc("target.reconnects")
        self.obs.tracer.warn("target.reconnect", target=self.name,
                             announced=announced,
                             breakpoints=len(self.breakpoints.planted))

    def reconnect(self) -> None:
        """Re-attach after a lost connection (or debugger crash): a new
        channel through the nub's listener, the re-announced stop, and a
        ``BREAKS`` replay to recover the breakpoint table.

        When the nub is gone for good (the retry budget ran out) or the
        target turns out to have exited, this raises the *typed*
        :class:`TargetDiedError` — pointing at the auto-written core
        when one is known — rather than pretending the connection might
        come back.
        """
        if self.session is None or self.session.connector is None:
            raise TargetError("target %s has no reconnect path" % self.name)
        self.state = "reconnecting"
        self.wire.invalidate()
        try:
            self.session.reconnect()
        except SessionError as err:
            self.state = "disconnected"
            self.obs.metrics.inc("target.deaths")
            self.obs.tracer.warn("target.died", target=self.name,
                                 reason=str(err))
            raise TargetDiedError("target %s is gone: %s" % (self.name, err),
                                  core_path=self.core_path)
        if self.state == "reconnecting":
            # nothing was re-announced on the new connection
            if self.session.pending_events:
                self.wait_for_stop(timeout=1.0)
            else:
                self.state = "running"
        if self.state == "exited":
            # the nub re-announced an exit, not a stop: the process is
            # dead; there is nothing to resynchronize and no target to
            # debug further on this connection
            self.obs.metrics.inc("target.deaths")
            self.obs.tracer.warn("target.died", target=self.name,
                                 reason="exited with status %r"
                                 % self.exit_status)
            raise TargetDiedError(
                "target %s exited (status %r) while the debugger was away"
                % (self.name, self.exit_status), core_path=self.core_path)
        if self.state == "stopped":
            self.stop_pc()  # re-validate the saved-context address

    # -- stopped-state inspection -------------------------------------------------

    def stop_pc(self) -> int:
        self._require_stopped()
        return self.wire.fetch(
            self.machdep.pc_context_location(self.context_addr), "i32") & 0xFFFFFFFF

    def at_breakpoint(self) -> bool:
        from ..machines.isa import CODE_ICOUNT, SIGTRAP
        # an icount stop lands *before* the next instruction: a trap
        # sitting there has not fired yet, so this is not a bp stop
        return (self.state == "stopped" and self.signo == SIGTRAP
                and self.sigcode != CODE_ICOUNT
                and self.breakpoints.at(self.stop_pc()) is not None)

    def top_frame(self) -> Frame:
        self._require_stopped()
        if self._top_frame is None:
            self._top_frame = self.machdep.new_top_frame(self, self.context_addr)
        return self._top_frame

    def frames(self, limit: int = 64) -> List[Frame]:
        """The defensive backtrace (:func:`build_stack`): given a
        stopped target it never raises — a smashed stack, unreadable
        frame memory, or a frame cycle truncates the walk with a
        ``<corrupt frame>`` sentinel instead."""
        try:
            top = self.top_frame()
        except PSError as err:
            # even the saved context is gone (the paper's "a faulty
            # program can destroy the nub's data" case)
            return [corrupt_frame(self, 0,
                                  "unreadable saved context: %s" % err)]
        return build_stack(top, limit)

    # -- symbol values ---------------------------------------------------------------

    def location_of(self, entry: PSDict, frame: Optional[Frame] = None) -> Location:
        """Force a symbol's where-value in a frame's context.

        Anchor- and nm-based locations are replaced with their results
        ("at most once per symbol-table entry", Sec. 7); frame-relative
        locations are recomputed per frame.
        """
        value = entry["where"]
        if isinstance(value, Location):
            return value
        memoize = self._mentions_linker(value)
        result = self._exec_where(value, frame)
        if not isinstance(result, Location):
            raise PSError("typecheck", "where yielded %r" % (result,))
        if memoize:
            entry["where"] = result
        return result

    def _mentions_linker(self, value) -> bool:
        text = value.text if isinstance(value, String) else repr(value)
        return "LazyData" in text or "GlobalData" in text

    def _exec_where(self, value, frame: Optional[Frame]):
        interp = self.interp
        pushed = 0
        for d in self.eval_dicts():
            interp.push_dict(d)
            pushed += 1
        if frame is not None:
            frame_dict = PSDict()
            frame_dict["FrameBase"] = frame.frame_base
            interp.push_dict(frame_dict)
            pushed += 1
        try:
            interp.call(value)
            return interp.pop()
        finally:
            for _ in range(pushed):
                interp.pop_dict_stack()

    def print_value(self, entry: PSDict, frame: Frame) -> None:
        """Print a variable using its type's printer procedure: the
        PostScript runs against the frame's abstract memory (Sec. 4.1)."""
        loc = self.location_of(entry, frame)
        typedict = entry["type"]
        interp = self.interp
        pushed = 0
        for d in self.eval_dicts():
            interp.push_dict(d)
            pushed += 1
        try:
            interp.push(frame.memory)
            interp.push(loc)
            interp.push(typedict)
            interp.run("PrintValue")
        finally:
            for _ in range(pushed):
                interp.pop_dict_stack()
