"""Replaying a recording: the nub's side of the wire, from a file.

:class:`ReplayTransport` does for recordings what
:class:`~repro.ldb.postmortem.CoreTransport` does for cores — hosts a
:class:`~repro.nub.nub.Nub` on the debugger's thread the way
:class:`~repro.nub.session.LocalTransport` hosts a live one, so the
unchanged debugger stack runs against the file — but a recording is
not a corpse: it holds *resumable* machine states, so the nub's process
starts from the latest spill and runs on.  The nub's own handlers serve
the full live conversation: FETCH/BLOCKFETCH, STORE/PLANT (replay
targets are mutable), BREAKS, DUMPCORE, SPILL, the time-travel family,
and CONTINUE/RUNTO re-executing the deterministic simulation in the
in-thread host's slices, so reverse-continue/step/goto work on a file
with no nub process at all, and a deadline or :meth:`close` cuts a long
replay short.  What this host adds is the file: RESTORE and DROPCKPT of
a spilled checkpoint id, and the digest checks.  The debugger's stores
the file holds are the time-travel controller's input log
(:mod:`repro.timetravel.replay`), which re-applies them on every run.

**Divergence detection**: re-execution is continuously verified against
the recorded event log.  The file stores a normalized state digest at
every recorded stop; a run pauses at each of those positions on the way
past, compares digests, and raises :class:`DivergenceError` naming the
first divergent icount instead of silently serving wrong state.  A
tampered event log, a damaged spill, or a simulator that stopped being
deterministic all surface the same way, loudly.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Optional

from ..machines import (ExitEvent, FaultEvent, IcountStopEvent, Process,
                        get_arch)
from ..machines.machstate import live_digest
from ..nub import protocol
from ..nub.nub import Nub
from ..nub.session import SLICE_INSTRUCTIONS, LocalTransport, TransportError
from .format import Recording, SpillRecord, TraceError


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


class ReplayTransport(LocalTransport):
    """A host over a recording file: the image is local, the timeline
    is the whole point, and a replayed session can re-serialize itself
    as a core."""

    def __init__(self, recording: Recording, obs=None):
        self.recording = recording
        meta = recording.meta
        try:
            arch = get_arch(meta.arch_name)
        except KeyError:
            raise TraceError("recording names unknown architecture %r"
                             % meta.arch_name)
        if not recording.spills:
            raise TraceError("recording has no checkpoint spills")
        # every byte of real state comes from the restored spill
        nub = Nub(Process.blank(arch, meta.memsize),
                  loader_ps=meta.loader_ps, obs=obs)
        nub.context_addr = meta.context_addr
        self.process = nub.process
        #: the file's spilled checkpoints still restorable, by cid; the
        #: nub mints its own ids above them
        self.spills: Dict[int, SpillRecord] = {
            spill.cid: spill for spill in recording.spills}
        nub.next_checkpoint = max(self.spills) + 1
        #: the recorded stops, by icount and ascending: a run pauses at
        #: each on the way past to check its digest
        self._stops_by_icount = {s.icount: s for s in recording.stops}
        self._marks = sorted(self._stops_by_icount)
        # open where the recording ended, adopting the breakpoints it
        # was written with; later spill restores keep the nub's table
        final = recording.spills[-1]
        final.state.restore_into(self.process)
        nub.planted = dict(final.state.planted)
        nub.last_stop = FaultEvent(final.signo, final.code, final.pc)
        super().__init__(nub)

    # perfbench/spans.py wraps these by name from this class's own
    # namespace (ROADMAP item 1)
    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        return super().transact(msg, expect, timeout)

    def control(self, msg: protocol.Message) -> None:
        super().control(msg)

    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        return super().recv_event(timeout)

    # -- re-execution with divergence checks -------------------------------

    def _advance(self):
        """One slice of the pending run, cut short at the next recorded
        stop so that stop's digest is checked on the way past.  The
        position a run leaves is never checked: a store made there may
        have changed it."""
        cpu = self.process.cpu
        start = cpu.icount
        index = bisect.bisect_right(self._marks, start)
        budget = SLICE_INSTRUCTIONS
        if index < len(self._marks):
            budget = min(budget, self._marks[index] - start)
        event = self.nub.advance(budget)
        if cpu.icount > start and not isinstance(event, ExitEvent):
            try:
                self._verify(cpu.icount)
            except DivergenceError as err:
                # park on the divergent state as a well-defined stop:
                # the error is loud, but the session stays inspectable
                # (and resumable) right here
                if event is None:
                    event = IcountStopEvent(cpu.icount, cpu.pc)
                    self.nub.runto = None
                    self.nub.stopped(event)
                self.running = False
                err.signo, err.sigcode = event.signo, event.code
                raise
        return event

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

    # -- the nub's half of the conversation --------------------------------

    def _answer(self, msg: protocol.Message) -> protocol.Message:
        """The nub's reply, except for the file's own checkpoint ids:
        restoring a spill reloads its machine state and stop record the
        way the nub rewinds to a checkpoint (today's planted table
        stays), and a dropped spill id stays unrestorable."""
        if msg.mtype == protocol.MSG_RESTORE:
            spill = self.spills.get(protocol.parse_restore(msg))
            if spill is not None:
                self.nub.rewind(
                    lambda: spill.state.restore_into(self.process),
                    dict(spill.state.planted))
                self.nub.last_stop = FaultEvent(spill.signo, spill.code,
                                                spill.pc)
                return protocol.ckpt(spill.cid, self.process.cpu.icount)
        elif (msg.mtype == protocol.MSG_DROPCKPT
              and self.spills.pop(protocol.parse_drop_checkpoint(msg),
                                  None) is not None):
            return protocol.ok()
        return self.nub.answer(msg)
