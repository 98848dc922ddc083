"""Capturing a live session into a recording file.

The writer rides along with the time-travel machinery instead of
duplicating it: :class:`~repro.timetravel.replay.ReplayController`
already checkpoints at every surfaced stop and interval boundary, and
offers each checkpoint here; the writer pulls the complete machine
state over the wire (the SPILL verb) and keeps it as a
:class:`~repro.trace.format.SpillRecord`, plus a
:class:`~repro.trace.format.StopRecord` with the normalized divergence
digest.

Debugger-injected writes (``set x = 5``) are the controller's input
log: it observes them through the transport's tap hook and re-applies
them on its own replays, so the file saves that log as
:class:`~repro.trace.format.InputRecord` entries.

Nothing crosses the wire while recording: the nub already holds every
checkpoint as a COW snapshot, so the writer only *registers* each one
(a pending spill) and pulls the full state lazily — at :meth:`save`,
or just before the ring would evict a snapshot the file still needs.
That keeps record overhead within the checkpoint envelope measured in
BENCH_time_travel; the pull cost lands on the explicit ``record save``
instead (BENCH_record measures both).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..machines import get_arch
from ..machines.atomicio import atomic_write_bytes
from .format import (Recording, SPILL_AUTO, SPILL_STOP, InputRecord,
                     SpillRecord, StopRecord, TraceError, TraceMeta)


class TraceWriter:
    """Accumulates one recording from a live (time-travelling) target."""

    def __init__(self, target, path: Optional[str] = None,
                 interval: int = 5_000):
        self.target = target
        #: default save path (``record --save PATH``); ``save`` may
        #: override it
        self.path = path
        self.interval = interval
        self.obs = target.obs
        self._ctx_lo = target.context_addr
        self._context_size = get_arch(target.arch_name).context_size()
        #: spills and stop records keyed by icount (dedup: determinism
        #: means same icount, same state)
        self.spills: Dict[int, SpillRecord] = {}
        self.stops: Dict[int, StopRecord] = {}
        #: checkpoints registered but not yet pulled over the wire —
        #: their state still lives nub-side as a COW snapshot (keyed by
        #: icount, value is the timetravel Checkpoint holding the cid)
        self._pending: Dict[int, object] = {}
        #: reconnect boundaries stitched over (survived nub-connection
        #: deaths: the recording keeps accumulating across them)
        self.stitches = 0

    @property
    def inputs(self) -> List[InputRecord]:
        """The stores the file holds: the time-travel controller's input
        log from the first position the file has a state for."""
        known = list(self.spills) + list(self._pending)
        if not known:
            return []
        first = min(known)
        return [entry for entry in self.target.replay.inputs
                if entry.position >= first]

    # -- reconnect stitching -----------------------------------------------

    def stitch_reconnect(self) -> None:
        """Count a reconnect the recording survived.  The reconnect's
        only exchange is a BREAKS, which is no input, so the input log
        runs on across the boundary."""
        self.stitches += 1
        self.obs.metrics.inc("trace.reconnect_stitches")
        self.obs.tracer.event("trace.stitch",
                              position=self.target.replay.position,
                              spills=len(self.spills),
                              pending=len(self._pending))

    # -- spills (fed by the ReplayController) ------------------------------

    def spill(self, ck) -> None:
        """Register checkpoint ``ck`` (a timetravel Checkpoint) for the
        file.  Nothing crosses the wire here: the nub's COW snapshot
        *is* the state, and it is pulled lazily — at save, or by
        :meth:`materialize` if the ring is about to drop it.
        Idempotent per icount."""
        if ck.icount in self.spills or ck.icount in self._pending:
            return
        self._pending[ck.icount] = ck
        self.obs.metrics.inc("trace.spills")
        self.obs.tracer.event("trace.spill", icount=ck.icount, kind=ck.kind)

    def materialize(self, ck) -> None:
        """The ring is about to evict ``ck`` and drop its nub-side
        snapshot; pull the state now if the file still needs it, and
        come back to the current stop."""
        if self._pending.pop(ck.icount, None) is None:
            return
        with self.target.replay.excursion():
            self.target.restore_checkpoint(ck.cid)
            self._capture(ck)

    def _capture(self, ck) -> None:
        """Pull the complete machine state of the *current* nub stop
        (which must be ``ck``'s position) and keep it as a spill plus
        its divergence digest."""
        state = self.target.spill_state()
        digest = state.digest(self._ctx_lo, self._context_size)
        record = SpillRecord(cid=0, icount=ck.icount, pc=ck.pc,
                             signo=ck.signo, code=ck.sigcode,
                             kind=SPILL_AUTO if ck.kind == "auto"
                             else SPILL_STOP, state=state)
        self.spills[ck.icount] = record
        self.stops[ck.icount] = StopRecord(ck.icount, ck.pc, ck.signo,
                                           ck.sigcode, digest)

    def _materialize_pending(self) -> None:
        """Pull every still-pending checkpoint state over the wire:
        restore each snapshot in turn, spill it, and come back to the
        current stop exactly as it was, stores made there included."""
        if not self._pending:
            return
        target = self.target
        if target.state != "stopped":
            raise TraceError(
                "cannot pull %d pending checkpoint states: target is %s"
                % (len(self._pending), target.state))
        with target.replay.excursion():
            for ck in sorted(self._pending.values(),
                             key=lambda entry: entry.icount):
                target.restore_checkpoint(ck.cid)
                self._capture(ck)
        self._pending.clear()

    def _drop_pending(self) -> None:
        """Forget pending checkpoints without pulling them (their
        states are unreachable — the nub is dead or the drain deadline
        has passed).  The recording shrinks to its materialized
        prefix; stops past that horizon go with them (and inputs:
        the file holds none past its last spill)."""
        if not self._pending:
            return
        dropped = len(self._pending)
        self._pending.clear()
        if self.spills:
            horizon = max(self.spills)
            self.stops = {key: value for key, value in self.stops.items()
                          if key <= horizon}
        self.obs.metrics.inc("trace.partial_drops", dropped)
        self.obs.tracer.event("trace.partial_drop", dropped=dropped,
                              kept=len(self.spills))

    def drop_future(self, icount: int) -> None:
        """Resuming forward after time travel: the recorded future is
        stale (execution may diverge from it), mirror the ring."""
        dropped = [key for key in self.spills if key > icount]
        for key in dropped:
            del self.spills[key]
            self.stops.pop(key, None)
        stale = [key for key in self._pending if key > icount]
        for key in stale:
            del self._pending[key]
        if dropped or stale:
            self.obs.metrics.inc("trace.drops", len(dropped) + len(stale))

    # -- saving ------------------------------------------------------------

    def build(self, partial: bool = False) -> Recording:
        """The accumulated recording as an in-memory container.

        ``partial=True`` is the degraded path for a target that can no
        longer answer SPILL (dead nub, severed transport, mid-run
        drain deadline): pending checkpoints whose states still lived
        nub-side are *dropped* instead of pulled, and the recording is
        built from what was already materialized — a salvageable
        partial rather than nothing."""
        if not self.spills and not self._pending:
            raise TraceError("nothing recorded yet (no checkpoint spills)")
        if partial:
            self._drop_pending()
        else:
            self._materialize_pending()
        if not self.spills:
            raise TraceError(
                "nothing salvageable: every checkpoint state was still "
                "nub-side when the nub died")
        spills = [self.spills[key] for key in sorted(self.spills)]
        for index, record in enumerate(spills):
            record.cid = index + 1
        loader_ps = self._loader_ps()
        meta = TraceMeta(
            arch_name=self.target.arch_name,
            byteorder=spills[0].state.byteorder,
            memsize=spills[0].state.memsize,
            context_addr=self._ctx_lo,
            interval=self.interval,
            base_icount=spills[0].icount,
            loader_ps=loader_ps,
        )
        stops = [self.stops[key] for key in sorted(self.stops)]
        inputs = [entry for entry in self.inputs
                  if entry.position <= spills[-1].icount]
        return Recording(meta, spills, stops, inputs)

    def _loader_ps(self) -> Optional[str]:
        process = getattr(self.target, "process", None)
        if process is not None:
            table = getattr(process.exe, "loader_ps", None)
            if table:
                return table
        # re-recording a replayed session: inherit the file's table
        recording = getattr(self.target.transport, "recording", None)
        if recording is not None:
            return recording.meta.loader_ps
        return getattr(self.target, "loader_ps", None)

    def save(self, path: Optional[str] = None, fs=None,
             partial: bool = False) -> Recording:
        """Write the recording to ``path`` (or the attached default).

        The write is crash-consistent (temp + fsync + rename): ``path``
        holds either its previous contents or the complete new
        recording, never a torn mix.  ``partial=True`` saves whatever
        is already materialized when the target can no longer answer
        (see :meth:`build`)."""
        path = path or self.path
        if path is None:
            raise TraceError("no save path (record --save PATH, or "
                             "record save PATH)")
        self.path = path
        recording = self.build(partial=partial)
        if partial:
            recording.partial = True
        raw = recording.to_bytes()
        atomic_write_bytes(path, raw, fs=fs)
        self.obs.metrics.inc("trace.saves")
        if partial:
            self.obs.metrics.inc("trace.partial_saves")
        self.obs.metrics.inc("trace.saved_bytes", len(raw))
        self.obs.tracer.event("trace.save", path=path, bytes=len(raw),
                              spills=len(recording.spills),
                              inputs=len(recording.inputs),
                              partial=partial)
        return recording
