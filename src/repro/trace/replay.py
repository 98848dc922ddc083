"""Replaying a recording: the nub's side of the wire, from a file.

:class:`ReplayTransport` does for recordings what
:class:`~repro.ldb.postmortem.CoreTransport` does for cores — puts the
file behind the :class:`~repro.nub.session.Transport` interface so the
unchanged debugger stack runs against it — but a recording is not a
corpse: it holds *resumable* machine states, so this transport hosts a
local simulated process, restores the latest spill into it, and serves
the full live conversation: FETCH/BLOCKFETCH with the byte-order and
saved-float fixups of the live nub, STORE/PLANT (replay targets are
mutable), BREAKS, and the whole time-travel family — CHECKPOINT/
RESTORE map onto the file's spilled checkpoints plus local snapshots,
RUNTO re-executes the deterministic simulation, so reverse-continue/
step/goto work on a file with no nub process at all.

**Divergence detection**: re-execution is continuously verified against
the recorded event log.  The file stores a normalized state digest at
every recorded stop; replay pauses at each of those positions (and at
every recorded input position, to re-apply debugger-injected writes on
the way past), compares digests, and raises :class:`DivergenceError`
naming the first divergent icount instead of silently serving wrong
state.  A tampered event log, a damaged spill, or a simulator that
stopped being deterministic all surface the same way, loudly.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from ..machines import ExitEvent, IcountStopEvent, Process, get_arch
from ..machines.core import core_from_process
from ..machines.loader import Executable
from ..machines.machstate import MachineState, live_digest
from ..nub import protocol
from ..nub.channel import ChannelClosed
from ..nub.nub import nub_md_for
from ..nub.session import NubError, Transport, TransportError
from .format import OP_STORE, Recording, SpillRecord, TraceError


class DivergenceError(TransportError):
    """Replayed execution stopped matching the recording.

    ``icount`` is the first recorded position whose normalized state
    digest disagrees with the re-executed state; ``expected`` is the
    digest in the file, ``actual`` what replay computed.
    """

    #: lets the target layer recognize a divergence duck-typed, without
    #: importing this module: the transport parked on the divergent
    #: state as a stop, so the session stays debuggable there
    diverged = True

    def __init__(self, icount: int, expected: int, actual: int):
        super().__init__(
            "replay diverged from the recording at icount %d "
            "(state digest 0x%08x, recorded 0x%08x)"
            % (icount, actual, expected))
        self.icount = icount
        self.expected = expected
        self.actual = actual
        #: the stop identity replay parked with (filled at raise time)
        self.signo: Optional[int] = None
        self.sigcode: Optional[int] = None


class ReplayTransport(Transport):
    """A :class:`Transport` over a recording file: the image is local,
    the timeline is the whole point, and a replayed session can
    re-serialize itself as a core."""

    def __init__(self, recording: Recording, check_divergence: bool = True,
                 obs=None):
        self.recording = recording
        meta = recording.meta
        if obs is None:
            from ..obs import Observability  # deferred: obs decodes frames
            obs = Observability()
        self.obs = obs
        try:
            self.arch = get_arch(meta.arch_name)
        except KeyError:
            raise TraceError("recording names unknown architecture %r"
                             % meta.arch_name)
        self.md = nub_md_for(self.arch)
        self.context_addr = meta.context_addr
        self._context_size = self.arch.context_size()
        self.check_divergence = check_divergence
        if not recording.spills:
            raise TraceError("recording has no checkpoint spills")
        # a bare executable shell: every byte of real state comes from
        # the restored spill, but Process wants a program to exist
        shell = Executable(self.arch, [])
        shell.stack_top = meta.memsize - 16
        self.process = Process(shell, memsize=meta.memsize)
        #: planted breakpoints: address -> original little-endian bytes
        self.planted: Dict[int, bytes] = {}
        #: cid -> ("spill", SpillRecord) | ("snap", snapshot, planted)
        self.checkpoints: Dict[int, tuple] = {}
        for spill in recording.spills:
            self.checkpoints[spill.cid] = ("spill", spill)
        self._next_cid = max(s.cid for s in recording.spills) + 1
        #: verification marks: every recorded stop and input position,
        #: ascending — replay pauses at each on the way past
        self._stops_by_icount = {s.icount: s for s in recording.stops}
        self._inputs_by_position: Dict[int, list] = {}
        for entry in recording.inputs:
            self._inputs_by_position.setdefault(entry.position,
                                                []).append(entry)
        self._marks = sorted(set(self._stops_by_icount)
                             | set(self._inputs_by_position))
        final = recording.spills[-1]
        self._restore_spill(final)
        self._signo = final.signo
        self._sigcode = final.code
        self._stop_pc = final.pc
        self._announced = False
        self._pending: Optional[Tuple[str, Optional[int]]] = None
        self._killed = False
        self.closed = False
        self.taps: list = []
        self.obs.metrics.inc("trace.replay.opens")

    # -- the Transport interface ------------------------------------------

    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        expect = tuple(expect)
        reply = self._serve(msg)
        if reply.mtype == protocol.MSG_ERROR:
            raise NubError(protocol.parse_error(reply), request=msg)
        if reply.mtype not in expect:
            raise TransportError("unexpected reply %r to %r" % (reply, msg))
        self.notify_taps(msg, reply)
        return reply

    def control(self, msg: protocol.Message) -> None:
        if msg.mtype == protocol.MSG_CONTINUE:
            self._pending = ("continue", None)
        elif msg.mtype == protocol.MSG_RUNTO:
            self._pending = ("runto", protocol.parse_runto(msg))
        elif msg.mtype == protocol.MSG_KILL:
            self._killed = True
        elif msg.mtype == protocol.MSG_DETACH:
            self.closed = True
        else:
            raise TransportError("replay transport cannot %s"
                                 % protocol.type_name(msg.mtype).lower())

    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        if self._killed or self.closed:
            raise ChannelClosed("replay session is closed")
        if not self._announced:
            # the reopened session sits where the recording ended: the
            # final spilled stop, re-announced like a live SIGNAL
            self._announced = True
            return protocol.signal(self._signo, self._sigcode,
                                   self.context_addr)
        if self._pending is None:
            raise TransportError("replay transport has no pending run")
        mode, bound = self._pending
        self._pending = None
        return self._run(bound)

    def close(self) -> None:
        self.closed = True

    # -- re-execution with divergence checks -------------------------------

    def _run(self, bound: Optional[int]) -> protocol.Message:
        """Resume the replayed process like the nub would: restore the
        context the debugger may have edited, then execute — pausing at
        every recorded stop/input position to verify and re-inject —
        until a real stop, the RUNTO ``bound``, or an exit."""
        process = self.process
        cpu = process.cpu
        pc = self.md.restore_context(cpu, process.mem, self.context_addr)
        cpu.pc = pc
        started = cpu.icount
        while True:
            self._apply_inputs(cpu.icount)
            index = bisect.bisect_right(self._marks, cpu.icount)
            next_mark = (self._marks[index]
                         if index < len(self._marks) else None)
            stops = [limit for limit in (bound, next_mark)
                     if limit is not None]
            stop_at = min(stops) if stops else None
            event = process.run_until_event(stop_at_icount=stop_at)
            if isinstance(event, ExitEvent):
                self._killed = True  # nothing runs after exit
                self.obs.metrics.inc("trace.replay.exits")
                return protocol.exited(event.status)
            at = event.icount if event.icount is not None else cpu.icount
            if at > started:
                try:
                    self._verify(at)
                except DivergenceError as err:
                    # park on the divergent state as a well-defined
                    # stop: the error is loud, but the session stays
                    # inspectable (and resumable) right here
                    self.md.save_context(cpu, process.mem,
                                         self.context_addr, event.pc)
                    self._signo = event.signo
                    self._sigcode = event.code
                    self._stop_pc = event.pc
                    err.signo = event.signo
                    err.sigcode = event.code
                    raise
            if (isinstance(event, IcountStopEvent) and at == next_mark
                    and (bound is None or at < bound)):
                continue  # a verification pause, not a stop: carry on
            # a real stop: a trap/fault, the RUNTO bound, or the
            # simulator's runaway guard — save context and announce,
            # exactly like the nub
            self.md.save_context(cpu, process.mem, self.context_addr,
                                 event.pc)
            self._signo = event.signo
            self._sigcode = event.code
            self._stop_pc = event.pc
            self.obs.metrics.inc("trace.replay.stops")
            return protocol.signal(event.signo, event.code,
                                   self.context_addr)

    def _verify(self, icount: int) -> None:
        record = self._stops_by_icount.get(icount)
        if record is None or not self.check_divergence:
            return
        actual = live_digest(self.process, self.planted, self.context_addr,
                             self._context_size)
        self.obs.metrics.inc("trace.replay.checks")
        if actual != record.digest:
            self.obs.metrics.inc("trace.replay.divergences")
            self.obs.tracer.warn("trace.divergence", icount=icount,
                                 expected=record.digest, actual=actual)
            raise DivergenceError(icount, record.digest, actual)

    def verify_here(self) -> None:
        """Verify the *current* position against its recorded digest, if
        the log holds one.  Re-execution verifies continuously, but a
        freshly opened recording restores its final spill without
        executing anything — which is exactly the window a tampered
        event log would slip through.  Triage calls this right after
        open to catch a log whose final stop digest contradicts the
        spilled state, without paying for a re-execution.  Raises
        :class:`DivergenceError`; a position with no recorded stop (or
        ``check_divergence=False``) verifies trivially."""
        self._verify(self.process.cpu.icount)

    def _apply_inputs(self, position: int) -> None:
        """Re-inject the debugger writes recorded at ``position`` — on
        departure, so inspected state at a surfaced stop is the
        pre-input arrival state the digests were computed from."""
        for entry in self._inputs_by_position.get(position, ()):
            if entry.op == OP_STORE:
                raw_le = self.md.fix_stored(entry.address, entry.data,
                                            self.context_addr)
                raw = (raw_le if self.arch.byteorder == "little"
                       else raw_le[::-1])
            else:  # OP_BLOCKSTORE carries raw memory-order bytes
                raw = entry.data
            self.process.mem.write_bytes(entry.address, raw)
            self.obs.metrics.inc("trace.replay.inputs")

    def _restore_spill(self, spill: SpillRecord) -> None:
        spill.state.restore_into(self.process)
        self.planted = dict(spill.state.planted)

    # -- the nub's half of the conversation --------------------------------

    def _serve(self, msg: protocol.Message) -> protocol.Message:
        mtype = msg.mtype
        if mtype == protocol.MSG_FETCH:
            return self._serve_fetch(msg)
        if mtype == protocol.MSG_BLOCKFETCH:
            return self._serve_blockfetch(msg)
        if mtype == protocol.MSG_STORE:
            return self._serve_store(msg)
        if mtype == protocol.MSG_BLOCKSTORE:
            return self._serve_blockstore(msg)
        if mtype == protocol.MSG_PLANT:
            return self._serve_plant(msg)
        if mtype == protocol.MSG_UNPLANT:
            return self._serve_unplant(msg)
        if mtype == protocol.MSG_BREAKS:
            return protocol.breaklist(sorted(self.planted.items()))
        if mtype == protocol.MSG_ICOUNT:
            return protocol.ckpt(protocol.NO_CKPT, self.process.cpu.icount)
        if mtype == protocol.MSG_CHECKPOINT:
            cid = self._next_cid
            self._next_cid += 1
            self.checkpoints[cid] = ("snap", self.process.snapshot(),
                                     dict(self.planted))
            return protocol.ckpt(cid, self.process.cpu.icount)
        if mtype == protocol.MSG_RESTORE:
            return self._serve_restore(msg)
        if mtype == protocol.MSG_DROPCKPT:
            cid = protocol.parse_drop_checkpoint(msg)
            entry = self.checkpoints.pop(cid, None)
            if entry is not None and entry[0] == "snap":
                self.process.release_snapshot(entry[1])
            return protocol.ok()
        if mtype == protocol.MSG_DUMPCORE:
            core = core_from_process(
                self.process, self._signo, self._sigcode, self._stop_pc,
                self.context_addr, planted=self.planted,
                loader_ps=self.recording.meta.loader_ps)
            return protocol.data(core.to_bytes())
        if mtype == protocol.MSG_SPILL:
            state = MachineState.capture(self.process, self.planted)
            return protocol.data(state.to_bytes())
        return protocol.error(protocol.ERR_UNSUPPORTED)

    def _serve_fetch(self, msg: protocol.Message) -> protocol.Message:
        space, address, size = protocol.parse_fetch(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        if size == 10 and not self.arch.has_f80:
            return protocol.error(protocol.ERR_BAD_MESSAGE)
        try:
            raw = self.process.mem.read_bytes(address, size)
        except Exception:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        raw_le = raw if self.arch.byteorder == "little" else raw[::-1]
        raw_le = self.md.fix_fetched(address, raw_le, self.context_addr)
        return protocol.data(raw_le)

    def _serve_blockfetch(self, msg: protocol.Message) -> protocol.Message:
        space, address, length = protocol.parse_blockfetch(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        raw = self._readable_prefix(address, length)
        if raw is None:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        return protocol.data(raw)

    def _readable_prefix(self, address: int, length: int) -> Optional[bytes]:
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

    def _serve_store(self, msg: protocol.Message) -> protocol.Message:
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

    def _serve_blockstore(self, msg: protocol.Message) -> protocol.Message:
        space, address, raw = protocol.parse_blockstore(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        try:
            self.process.mem.write_bytes(address, raw)
        except Exception:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        return protocol.ok()

    def _serve_plant(self, msg: protocol.Message) -> protocol.Message:
        address, trap = protocol.parse_plant(msg)
        size = len(trap)
        if address not in self.planted:
            # idempotent, exactly like the nub: a duplicated PLANT must
            # not re-read the (already trapped) bytes as the original
            try:
                original = self.process.mem.read_bytes(address, size)
            except Exception:
                return protocol.error(protocol.ERR_BAD_ADDRESS)
            self.planted[address] = (original
                                     if self.arch.byteorder == "little"
                                     else original[::-1])
        raw = trap if self.arch.byteorder == "little" else trap[::-1]
        self.process.mem.write_bytes(address, raw)
        return protocol.ok()

    def _serve_unplant(self, msg: protocol.Message) -> protocol.Message:
        address = protocol.parse_unplant(msg)
        original_le = self.planted.pop(address, None)
        if original_le is None:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        raw = (original_le if self.arch.byteorder == "little"
               else original_le[::-1])
        self.process.mem.write_bytes(address, raw)
        return protocol.ok()

    def _serve_restore(self, msg: protocol.Message) -> protocol.Message:
        cid = protocol.parse_restore(msg)
        entry = self.checkpoints.get(cid)
        if entry is None:
            return protocol.error(protocol.ERR_BAD_CHECKPOINT)
        if entry[0] == "spill":
            spill = entry[1]
            self._restore_spill(spill)
            self._signo = spill.signo
            self._sigcode = spill.code
            self._stop_pc = spill.pc
        else:
            _kind, snapshot, planted = entry
            self.process.restore(snapshot)
            self.planted = dict(planted)
        self.obs.metrics.inc("trace.replay.restores")
        return protocol.ckpt(cid, self.process.cpu.icount)
