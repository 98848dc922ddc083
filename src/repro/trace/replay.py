"""Replaying a recording: the nub's side of the wire, from a file.

:class:`ReplayTransport` does for recordings what
:class:`~repro.ldb.postmortem.CoreTransport` does for cores — puts the
file behind the :class:`~repro.nub.session.Transport` interface so the
unchanged debugger stack runs against it — but a recording is not a
corpse: it holds *resumable* machine states, so this transport hosts a
local simulated process, restores the latest spill into it, and puts a
:class:`~repro.nub.nub.Nub` with no wire over it.  The nub's own
handlers serve the full live conversation: FETCH/BLOCKFETCH, STORE/
PLANT (replay targets are mutable), BREAKS, DUMPCORE, SPILL and the
time-travel family.  What the transport adds is the file: RESTORE and
DROPCKPT of a spilled checkpoint id, and RUNTO re-executing the
deterministic simulation, so reverse-continue/step/goto work on a file
with no nub process at all.

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
from typing import Dict, Iterable, Optional, Tuple

from ..machines import (ExitEvent, FaultEvent, IcountStopEvent, Process,
                        get_arch)
from ..machines.machstate import live_digest
from ..nub import protocol
from ..nub.channel import ChannelClosed
from ..nub.nub import Nub
from ..nub.session import Transport, TransportError
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

    def __init__(self, recording: Recording, obs=None):
        self.recording = recording
        meta = recording.meta
        if obs is None:
            from ..obs import Observability  # deferred: obs decodes frames
            obs = Observability()
        self.obs = obs
        try:
            arch = get_arch(meta.arch_name)
        except KeyError:
            raise TraceError("recording names unknown architecture %r"
                             % meta.arch_name)
        if not recording.spills:
            raise TraceError("recording has no checkpoint spills")
        # every byte of real state comes from the restored spill
        self.nub = Nub(Process.blank(arch, meta.memsize),
                       loader_ps=meta.loader_ps)
        self.nub.context_addr = meta.context_addr
        self.process = self.nub.process
        #: the file's spilled checkpoints still restorable, by cid; the
        #: nub mints its own ids above them
        self.spills: Dict[int, SpillRecord] = {
            spill.cid: spill for spill in recording.spills}
        self.nub.next_checkpoint = max(self.spills) + 1
        #: verification marks: every recorded stop and input position,
        #: ascending — replay pauses at each on the way past
        self._stops_by_icount = {s.icount: s for s in recording.stops}
        self._inputs_by_position: Dict[int, list] = {}
        for entry in recording.inputs:
            self._inputs_by_position.setdefault(entry.position,
                                                []).append(entry)
        self._marks = sorted(set(self._stops_by_icount)
                             | set(self._inputs_by_position))
        # open where the recording ended, adopting the breakpoints it
        # was written with; later spill restores keep the nub's table
        final = recording.spills[-1]
        final.state.restore_into(self.process)
        self.nub.planted = dict(final.state.planted)
        self.nub.last_stop = FaultEvent(final.signo, final.code, final.pc)
        self._announced = False
        self._pending: Optional[Tuple[str, Optional[int]]] = None
        self._killed = False
        self.closed = False
        self.taps: list = []
        self.obs.metrics.inc("trace.replay.opens")

    # -- the Transport interface ------------------------------------------

    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        try:
            reply = self._answer(msg)
        except protocol.ProtocolError:
            reply = protocol.error(protocol.ERR_BAD_MESSAGE)
        return self.settle(msg, reply, expect)

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
            stop = self.nub.last_stop
            return protocol.signal(stop.signo, stop.code,
                                   self.nub.context_addr)
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
        nub = self.nub
        cpu = self.process.cpu
        nub.resume()
        started = cpu.icount
        while True:
            self._apply_inputs(cpu.icount)
            index = bisect.bisect_right(self._marks, cpu.icount)
            next_mark = (self._marks[index]
                         if index < len(self._marks) else None)
            stops = [limit for limit in (bound, next_mark)
                     if limit is not None]
            stop_at = min(stops) if stops else None
            event = self.process.run_until_event(stop_at_icount=stop_at)
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
                    nub.stopped(event)
                    err.signo = event.signo
                    err.sigcode = event.code
                    raise
            if (isinstance(event, IcountStopEvent) and at == next_mark
                    and (bound is None or at < bound)):
                continue  # a verification pause, not a stop: carry on
            # a real stop: a trap/fault, the RUNTO bound, or the
            # simulator's runaway guard — save context and announce,
            # exactly like the nub
            nub.stopped(event)
            self.obs.metrics.inc("trace.replay.stops")
            return protocol.signal(event.signo, event.code,
                                   nub.context_addr)

    def _verify(self, icount: int) -> None:
        record = self._stops_by_icount.get(icount)
        if record is None:
            return
        actual = live_digest(self.process, self.nub.planted,
                             self.nub.context_addr, self.nub.md.context_size)
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
        :class:`DivergenceError`; a position with no recorded stop
        verifies trivially."""
        self._verify(self.process.cpu.icount)

    def _apply_inputs(self, position: int) -> None:
        """Re-inject the debugger writes recorded at ``position`` — on
        departure, so inspected state at a surfaced stop is the
        pre-input arrival state the digests were computed from.  A
        recorded input is exactly the STORE or BLOCKSTORE payload the
        debugger sent, so the nub's own handler applies it.  One it
        refuses (only a damaged file holds such an input) leaves memory
        as it was, for the digest checks to judge like any other
        damage."""
        for entry in self._inputs_by_position.get(position, ()):
            if entry.op == OP_STORE:
                msg = protocol.store(entry.space, entry.address, entry.data)
            else:
                msg = protocol.blockstore(entry.space, entry.address,
                                          entry.data)
            self.nub.answer(msg)
            self.obs.metrics.inc("trace.replay.inputs")

    def _restore_spill(self, spill: SpillRecord) -> None:
        """Rewind to a spilled state the way the nub rewinds to a
        checkpoint: registers and memory come back, today's planted
        table stays."""
        self.nub.rewind(lambda: spill.state.restore_into(self.process),
                        dict(spill.state.planted))
        self.nub.last_stop = FaultEvent(spill.signo, spill.code, spill.pc)

    # -- the nub's half of the conversation --------------------------------

    def _answer(self, msg: protocol.Message) -> protocol.Message:
        """The nub's reply, except for the file's own checkpoint ids:
        restoring a spill reloads its machine state and stop record,
        and a dropped spill id stays unrestorable."""
        if msg.mtype == protocol.MSG_RESTORE:
            spill = self.spills.get(protocol.parse_restore(msg))
            if spill is not None:
                self._restore_spill(spill)
                reply = protocol.ckpt(spill.cid, self.process.cpu.icount)
            else:
                reply = self.nub.answer(msg)
            if reply.mtype == protocol.MSG_CKPT:
                self.obs.metrics.inc("trace.replay.restores")
            return reply
        if (msg.mtype == protocol.MSG_DROPCKPT
                and self.spills.pop(protocol.parse_drop_checkpoint(msg),
                                    None) is not None):
            return protocol.ok()
        return self.nub.answer(msg)
