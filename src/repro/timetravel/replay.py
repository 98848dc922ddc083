"""The replay controller: reverse execution by checkpoint + re-run.

Reverse commands never execute backwards.  Each one is a *search over
forward history*: visit checkpoint windows newest first, learn where
the interesting stops (breakpoint hits) land in each, then restore and
replay **to** the chosen stop.  Determinism of the simulated targets
makes replays byte-exact.

The controller drives every run itself, so it keeps a *stop log*: for
each run, where it started, the stop that ended it and the breakpoints
planted while it ran.  A window that logged runs cover, each run with
every breakpoint planted now, is answered from the log with no restore
and no replay; any other window is replayed once under a ``RUNTO``
bound, recording every breakpoint stop.  A trap retires in place of
the no-op it covers, so a breakpoint removed since a run moved no
icount and only added a stop; one planted since could stop inside the
window, which is why that window is replayed.

Debugger stores (``set x = 5``) are *inputs*: each is logged at the
position it was made, and every run that leaves a position re-applies
the stores made there first, so replays re-make the history the user
made — a register store too, before the resume loads it.  A checkpoint
holds the state a stop was reached in, before any store made there;
landing on a position shows that state.  The controller's log is the
only one: a reopened recording seeds it from the file.  A store
changes the future, so it drops the recorded future past its position,
as a replay divergence does past the stop it parked at; resuming
forward after travelling back re-makes the recorded future and keeps
it.

The controller also drives *recording*: forward execution is chunked
with ``RUNTO`` so an automatic checkpoint is taken every ``interval``
retired instructions, plus one at every user-visible stop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..machines.isa import CODE_ICOUNT, SIGTRAP
from ..nub import protocol
from ..trace.format import OP_BLOCKSTORE, OP_STORE, InputRecord
from .ring import Checkpoint, CheckpointRing


class ReplayError(Exception):
    """A reverse command could not be satisfied (nothing earlier
    recorded, history exhausted, or the target is in the wrong state)."""


class Hit:
    """One breakpoint stop in a searched window."""

    __slots__ = ("icount", "pc", "sp")

    def __init__(self, icount: int, pc: int, sp: Optional[int]):
        self.icount = icount
        self.pc = pc
        self.sp = sp

    def __repr__(self) -> str:
        return "<hit icount=%d pc=0x%x>" % (self.icount, self.pc)


class Run:
    """One logged run: it left the stop at ``start`` with the
    breakpoints ``planted`` and ended in the stop at ``end``.  ``pc`` is
    known at trap stops, ``sp`` where the stop's frame was walked."""

    __slots__ = ("start", "end", "pc", "signo", "sigcode", "sp", "planted")

    def __init__(self, start: int, end: int, pc: Optional[int], signo: int,
                 sigcode: int, planted: FrozenSet[int]):
        self.start = start
        self.end = end
        self.pc = pc
        self.signo = signo
        self.sigcode = sigcode
        self.sp: Optional[int] = None
        self.planted = planted


class StopLog:
    """What the runs the controller drove found, by start position.

    A logged stop is a fact about the history until the history
    changes: a store cuts the log at its position, as a divergence or
    a reconnect does, and a run goes with the ring window it started in
    when that window's checkpoint is evicted.
    """

    def __init__(self):
        self.runs: Dict[int, List[Run]] = {}

    def add(self, run: Run) -> Run:
        """Log ``run``; answers the logged copy (an identical run is
        logged once)."""
        runs = self.runs.setdefault(run.start, [])
        for old in runs:
            if old.end == run.end and old.planted == run.planted:
                return old
        runs.append(run)
        return run

    def clear(self) -> None:
        self.runs.clear()

    def cut(self, icount: int) -> None:
        """Forget every run that ends past ``icount``."""
        for start in list(self.runs):
            kept = [run for run in self.runs[start] if run.end <= icount]
            if kept:
                self.runs[start] = kept
            else:
                del self.runs[start]

    def forget(self, lo: int, hi: Optional[int]) -> None:
        """Forget every run that starts in ``[lo, hi)`` (``hi`` None:
        no upper end)."""
        for start in [s for s in self.runs
                      if lo <= s and (hi is None or s < hi)]:
            del self.runs[start]

    def window(self, start: int, end: int, planted: FrozenSet[int],
               uses_sp: bool) -> Optional[List[Hit]]:
        """The breakpoint stops strictly inside ``(start, end)`` that a
        replay with ``planted`` would make, or None when the log cannot
        tell.

        It needs a chain of logged runs from ``start``, each with every
        breakpoint in ``planted``: such a run stops at every planted
        site it executes, so nothing it ran past is a hit.  Its stop is
        a hit when it is a trap at a planted pc, and a fault ends the
        window as it ends a scan.  With ``uses_sp`` a hit must have its
        sp logged, since a missing sp would pass any depth filter."""
        hits: List[Hit] = []
        at = start
        while at < end:
            run = next((run for run in self.runs.get(at, ())
                        if planted <= run.planted), None)
            if run is None:
                return None
            if run.end >= end or run.signo != SIGTRAP:
                break
            if run.sigcode != CODE_ICOUNT and run.pc in planted:
                if uses_sp and run.sp is None:
                    return None
                hits.append(Hit(run.end, run.pc, run.sp))
            at = run.end
        return hits


class ReplayController:
    """Checkpoint/replay for one target.

    ``interval`` is the automatic-checkpoint spacing in retired
    instructions: smaller means faster reverse commands (shorter
    replays) but more copy-on-write captures while running forward.
    ``capacity`` bounds how many checkpoints the nub holds at once.
    """

    def __init__(self, target, interval: int = 5_000, capacity: int = 32,
                 timeout: float = 30.0, max_stops: int = 100_000):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.target = target
        self.interval = interval
        self.ring = CheckpointRing(capacity)
        self.timeout = timeout
        #: safety bound on stops consumed inside one replay loop
        self.max_stops = max_stops
        #: the target's observability hub (shared metrics + tracer)
        self.obs = target.obs
        #: the TraceWriter persisting this session's checkpoints to a
        #: recording file, if any (repro.trace.writer); every checkpoint
        #: taken here is offered to it as a spill
        self.writer = None
        #: what every run driven here found; emptying it costs replays,
        #: never a different answer
        self.stop_log = StopLog()
        #: the debugger's stores, each at the position it was made
        #: (repro.trace.format.InputRecord): the input log a recording
        #: saves
        self.inputs: List[InputRecord] = []
        #: the current position, kept from the nub's CKPT replies and
        #: from the runs driven here (None: not known yet)
        self.position: Optional[int] = None
        #: stores made at the current stop since arriving there; the
        #: checkpoint taken on arrival lacks them
        self._fresh = 0
        #: are the stores going out this controller's own re-applied
        #: inputs?
        self._reapplying = False
        #: the run a deadline cut short, still going on the target:
        #: (start, limit, bound, planted) as :meth:`_advance` left it
        self.cut: Optional[Tuple[int, int, int, FrozenSet[int]]] = None
        taps = getattr(target.transport, "taps", None)
        if isinstance(taps, list):
            taps.append(self._tap)

    # -- recording ---------------------------------------------------------

    def enable(self) -> Checkpoint:
        """Start recording at the current stop: the base checkpoint.
        Everything from here on is reachable by reverse commands."""
        self._require_stopped()
        return self._ensure_checkpoint_here()

    def continue_forward(self, timeout: Optional[float] = None) -> str:
        """The recording 'continue': chunk execution with RUNTO, taking
        an automatic checkpoint at every interval boundary and one more
        at the stop that ends the chunk run.  Returns the target state
        exactly like ``Target.wait_for_stop``.

        ``timeout`` bounds the whole command: past it, the chunk under
        way raises :exc:`TimeoutError` and stays running, and the next
        call goes on with it.  Resuming forward after travelling back
        keeps the recorded future: every run re-applies the stores made
        where it starts, so it re-makes the history already recorded."""
        deadline = time.monotonic() + (
            self.timeout if timeout is None else timeout)
        t = self.target
        if self.cut is None:
            self._require_stopped()
            here = t.current_icount()
        else:
            here = self.cut[0]  # a chunk the last deadline cut short
        for _ in range(self.max_stops):
            run = self._advance(here, here + self.interval, deadline)
            if run is None:
                return t.state
            if t.at_icount_stop():
                self._checkpoint_here("auto", run.end)
                here = run.end
                continue
            ck = self._checkpoint_here("stop", run.end)
            if run.sp is None:
                run.sp = ck.sp
            return "stopped"
        raise ReplayError("recording ran %d chunks without a real stop"
                          % self.max_stops)

    # -- reverse commands --------------------------------------------------

    def reverse_continue(self):
        """Rewind to the most recent breakpoint hit strictly before the
        current position; returns the landing :class:`Hit`."""
        self.obs.metrics.inc("replay.reverse_commands")
        with self.obs.tracer.span("replay.reverse_continue") as span:
            hit = self._reverse(lambda hit: True, what="breakpoint hit")
            span.note(icount=hit.icount)
            return hit

    def reverse_step(self):
        """Rewind to the previous stopping point (source-level step
        backwards, into calls)."""
        self.obs.metrics.inc("replay.reverse_commands")
        temps = self._plant_temps()
        try:
            with self.obs.tracer.span("replay.reverse_step") as span:
                hit = self._reverse(lambda hit: True, what="stopping point")
                span.note(icount=hit.icount)
                return hit
        finally:
            self._remove_temps(temps)

    def reverse_next(self):
        """Rewind to the previous stopping point in the same or a
        shallower frame (source-level step backwards, over calls)."""
        self._require_stopped()
        self.obs.metrics.inc("replay.reverse_commands")
        origin_sp = self._sp()
        temps = self._plant_temps()

        def same_or_shallower(hit: Hit) -> bool:
            if origin_sp is None or hit.sp is None:
                return True
            return hit.sp >= origin_sp  # stacks grow downward

        try:
            with self.obs.tracer.span("replay.reverse_next") as span:
                hit = self._reverse(same_or_shallower,
                                    what="stopping point at this depth",
                                    uses_sp=origin_sp is not None)
                span.note(icount=hit.icount)
                return hit
        finally:
            self._remove_temps(temps)

    def goto_icount(self, icount: int) -> str:
        """Travel to an absolute position: restore the nearest earlier
        checkpoint and replay forward (or just replay forward when the
        position is ahead).  Returns the final target state."""
        self._require_stopped()
        self.obs.metrics.inc("replay.reverse_commands")
        with self.obs.tracer.span("replay.goto", icount=icount):
            here = self.target.current_icount()
            if icount < here:
                ck = self.ring.at_or_before(icount)
                if ck is None:
                    raise ReplayError(
                        "icount %d predates the recorded history" % icount)
                self._restore(ck)
                here = ck.icount
            return self._run_to(icount, here)

    # -- the reverse search ------------------------------------------------

    def _reverse(self, keep: Callable[[Hit], bool], what: str,
                 uses_sp: bool = False) -> Hit:
        """The search, newest checkpoint window first.

        Each window ``(ck.icount, end)`` gets its breakpoint stops from
        the stop log or from one replay; the last hit ``keep`` accepts
        wins and a targeted replay lands on it.  A window with no hits
        shrinks ``end`` to its checkpoint, whose own stop is the
        remaining candidate before moving to an older window.  A failed
        search leaves the target as it found it.
        """
        self._require_stopped()
        t = self.target
        origin = t.current_icount()
        fresh = self._fresh
        home, scratch = self._way_home(origin)
        planted = frozenset(t.breakpoints.planted)
        end = origin
        try:
            for ck in self.ring.before(origin):
                hits = [h for h in self._scan(ck, end, planted, uses_sp)
                        if keep(h)]
                if hits:
                    hit = hits[-1]
                    self._restore(ck)
                    self._run_to(hit.icount, ck.icount)
                    return hit
                if (ck.kind == "stop" and ck.signo == SIGTRAP
                        and ck.sigcode == 0 and ck.pc in planted):
                    # the checkpoint itself sits at a breakpoint stop
                    # (not, say, the entry pause): a candidate
                    hit = Hit(ck.icount, ck.pc, ck.sp)
                    if keep(hit):
                        self._restore(ck)
                        return hit
                end = ck.icount
            self._restore(home)
            self._fresh = fresh
        finally:
            if scratch:
                t.drop_checkpoint(home.cid)
        raise ReplayError("no earlier %s in the recorded history" % what)

    def _scan(self, ck: Checkpoint, end: int, planted: FrozenSet[int],
              uses_sp: bool) -> List[Hit]:
        """The breakpoint stops in the window ``(ck.icount, end)``: from
        the stop log when it covers the window, else from one replay."""
        metrics = self.obs.metrics
        with self.obs.tracer.span("replay.scan", window_start=ck.icount,
                                  window_end=end) as span:
            hits = self.stop_log.window(ck.icount, end, planted, uses_sp)
            replayed = hits is None
            if replayed:
                metrics.inc("replay.windows")
                # window size, not an extra ICOUNT round-trip: the scan
                # replays at most end - ck.icount instructions
                metrics.inc("replay.instructions_replayed",
                            max(0, end - ck.icount))
                hits = self._scan_window(ck, end)
            else:
                metrics.inc("replay.windows_from_log")
            span.note(hits=len(hits), replayed=replayed)
            return hits

    def _scan_window(self, ck: Checkpoint, end: int) -> List[Hit]:
        t = self.target
        self._restore(ck)
        hits: List[Hit] = []
        here = ck.icount
        deadline = time.monotonic() + self.timeout
        for _ in range(self.max_stops):
            run = self._advance(here, end, deadline)
            if run is None or run.end >= end or t.at_icount_stop():
                # the origin exit, the RUNTO bound, or the origin event
                # itself re-fired: the window is exhausted
                return hits
            if t.at_breakpoint():
                run.sp = self._sp()
                hits.append(Hit(run.end, run.pc, run.sp))
            elif t.signo != SIGTRAP:
                return hits  # a mid-window signal: scan no further
            here = run.end
        raise ReplayError("replay scan exceeded %d stops" % self.max_stops)

    def _run_to(self, icount: int, here: int) -> str:
        """Replay forward from the stop at ``here`` until the stop at
        exactly ``icount``, resuming through earlier breakpoint traps.
        A trap retiring as the ``icount``-th instruction beats the RUNTO
        bound, so a landing on a breakpoint hit arrives as the genuine
        SIGTRAP stop."""
        t = self.target
        self.obs.metrics.inc("replay.landings")
        deadline = time.monotonic() + self.timeout
        for _ in range(self.max_stops):
            if here >= icount or t.signo != SIGTRAP:
                return "stopped"  # a fatal signal blocks the way forward
            run = self._advance(here, icount, deadline)
            if run is None:
                return t.state
            here = run.end
        raise ReplayError("landing replay exceeded %d stops"
                          % self.max_stops)

    # -- runs and inputs ---------------------------------------------------

    def _advance(self, here: int, bound: int,
                 deadline: float) -> Optional[Run]:
        """Resume from the stop at ``here`` and run toward ``bound``,
        logging each run.  A run first re-applies the stores made at its
        start and is bounded at the next position holding any, where it
        goes on as a new run.  Answers the run that ended in a real stop
        or at ``bound``; None when the target did not stop.  A run the
        ``deadline`` cuts short is left going as :attr:`cut`, and the
        next call waits for it instead of starting one."""
        t = self.target
        while True:
            if self.cut is None:
                planted = frozenset(t.breakpoints.planted)
                self._reapply(here)
                limit = min((entry.position for entry in self.inputs
                             if here < entry.position < bound),
                            default=bound)
                t.run_to_icount(limit, at_pc=self._skip_pc())
                self.cut = (here, limit, bound, planted)
            here, limit, bound, planted = self.cut
            try:
                state = self._wait(deadline)
            except TimeoutError:
                raise  # still running: the cut run goes on next time
            except Exception as err:
                self.cut = None
                # stopped somewhere unknown (a replay divergence parks
                # the target mid-run): learn the position again
                self.position = None
                if getattr(err, "diverged", False):
                    # the parked state is not the recorded one
                    self._drop_future(err.icount)
                raise
            self.cut = None
            if state != "stopped":
                return None
            if t.at_icount_stop():
                run = Run(here, limit, None, t.signo, t.sigcode, planted)
            else:
                pc = t.stop_pc() if t.signo == SIGTRAP else None
                run = Run(here, t.current_icount(), pc, t.signo, t.sigcode,
                          planted)
            run = self.stop_log.add(run)
            self.position = here = run.end
            self._fresh = 0
            if here >= bound or not t.at_icount_stop():
                return run

    def _reapply(self, here: int) -> None:
        """Re-apply the stores made at ``here``, in the order made."""
        t = self.target
        self._reapplying = True
        try:
            for entry in self.inputs:
                if entry.position != here:
                    continue
                if entry.op == OP_STORE:
                    msg = protocol.store(entry.space, entry.address,
                                         entry.data)
                else:
                    msg = protocol.blockstore(entry.space, entry.address,
                                              entry.data)
                t.transport.transact(msg, expect=(protocol.MSG_OK,))
                t.wire.invalidate_range(entry.space, entry.address,
                                        len(entry.data))
                self.obs.metrics.inc("replay.inputs_reapplied")
        finally:
            self._reapplying = False

    def _tap(self, msg: protocol.Message, reply: protocol.Message) -> None:
        """Transport tap: follow the position, and log debugger stores
        as inputs.  The resume-pc write is how a run starts, not an
        input; any other store into the nub's context save area sets a
        register the resume loads, and is one."""
        if reply.mtype == protocol.MSG_CKPT:
            self.position = protocol.parse_ckpt(reply)[1]
            return
        if self._reapplying:
            return
        if msg.mtype == protocol.MSG_STORE:
            op, (space, address, data) = OP_STORE, protocol.parse_store(msg)
        elif msg.mtype == protocol.MSG_BLOCKSTORE:
            op, (space, address, data) = (OP_BLOCKSTORE,
                                          protocol.parse_blockstore(msg))
        else:
            return
        t = self.target
        if (op == OP_STORE and address
                == t.machdep.pc_context_location(t.context_addr).offset):
            return
        if self.position is None:
            self.target.current_icount()  # its CKPT reply comes here
        entry = InputRecord(self.position, op, space, address, data)
        if self.inputs:
            # a store retried across a reconnect taps twice (the
            # session re-sends, the nub dedups); the log keeps one
            last = self.inputs[-1]
            if (last.position, last.op, last.space, last.address,
                    last.data) == (entry.position, op, space, address, data):
                return
        self.inputs.append(entry)
        self._fresh += 1
        self.obs.metrics.inc("replay.inputs")
        # a store changes what happens from here on
        self._drop_future(entry.position)

    def _drop_future(self, here: int) -> None:
        """Forget the recorded history past ``here``: checkpoints (on
        the nub too), the writer's spills, logged runs and inputs."""
        for stale in self.ring.drop_future(here):
            self.target.drop_checkpoint(stale.cid)
        if self.writer is not None:
            self.writer.drop_future(here)
        self.stop_log.cut(here)
        self.inputs = [entry for entry in self.inputs
                       if entry.position <= here]

    def reconnected(self) -> None:
        """The connection to the nub was lost and found again: another
        debugger may have run the target meanwhile, so keep logged runs
        only up to the last position known."""
        if self.position is not None:
            self.stop_log.cut(self.position)

    # -- the way back to the current stop ----------------------------------

    def _way_home(self, here: int) -> Tuple[Checkpoint, bool]:
        """A checkpoint holding exactly the current stop, and whether it
        is a scratch one, kept out of the ring, to drop after use.  The
        ring's checkpoint here serves unless stores were made here since
        arriving, or it was taken at another kind of stop at the same
        icount (an interval boundary that is now a trap)."""
        t = self.target
        if not self._fresh:
            ck = self._checkpoint_here("stop", here)
            if (ck.signo, ck.sigcode) == (t.signo, t.sigcode):
                return ck, False
        cid, icount = t.take_checkpoint()
        return Checkpoint(cid, icount, t.stop_pc(), None, t.signo,
                          t.sigcode, "stop"), True

    @contextmanager
    def excursion(self):
        """Leave the current stop (to restore other checkpoints) and
        come back to it exactly as it was, stores made there included."""
        fresh = self._fresh
        home, scratch = self._way_home(self.position)
        yield
        self._restore(home)
        self._fresh = fresh
        if scratch:
            self.target.drop_checkpoint(home.cid)

    # -- plumbing ----------------------------------------------------------

    def _require_stopped(self) -> None:
        if self.target.state != "stopped":
            raise ReplayError("target %s is %s, not stopped"
                              % (self.target.name, self.target.state))

    def _wait(self, deadline: float) -> str:
        """Wait for a stop until ``deadline`` (a ``time.monotonic``
        time), riding out connection deaths: the nub keeps the target
        (and every checkpoint) across a reconnect."""
        t = self.target
        for _ in range(8):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no stop before the deadline")
            state = t.wait_for_stop(remaining)
            if state == "reconnecting":
                t.reconnect()
                if t.state != "running":
                    return t.state
                continue
            return state
        raise ReplayError("connection kept dying while waiting for a stop")

    def _skip_pc(self) -> Optional[int]:
        """Where to resume from the current stop.

        A trap stop (a breakpoint, the entry pause — sigcode 0) resumes
        *past* the no-op: the trap already retired in the no-op's place,
        and re-executing the site would retire it twice and shear every
        replay's icounts off by one.  This must hold even when the
        breakpoint has since been removed from the table (a temporary
        one, say): what matters is that a trap fired here, not whether
        it is still planted.  An icount stop has not executed the
        instruction at pc yet, so it resumes in place.
        """
        t = self.target
        if t.state != "stopped" or t.signo != SIGTRAP:
            return None
        if t.at_icount_stop():
            return None
        return t.breakpoints.resume_pc(t.stop_pc())

    def _sp(self) -> Optional[int]:
        try:
            return self.target.top_frame().sp
        except Exception:
            return None  # an unwalkable stop (corrupt stack, etc.)

    def _checkpoint_here(self, kind: str, icount: int) -> Checkpoint:
        """The ring's checkpoint at the current stop (at ``icount``),
        taken now if there is none."""
        t = self.target
        existing = self.ring.find(icount)
        if existing is not None:
            if self.writer is not None:
                # a writer attached after this checkpoint was taken
                # still wants the state on disk (spill() dedups)
                self.writer.spill(existing)
            return existing  # determinism: same icount, same state
        cid, icount = t.take_checkpoint()
        ck = Checkpoint(cid, icount, t.stop_pc(), self._sp(),
                        t.signo, t.sigcode, kind)
        for evicted in self.ring.add(ck):
            # its window's runs go with it: the ring bounds the log
            later = [entry.icount for entry in self.ring.entries
                     if entry.icount > evicted.icount]
            self.stop_log.forget(evicted.icount, min(later, default=None))
            if self.writer is not None:
                # the file may still need this state; pull it before
                # the nub releases the snapshot
                self.writer.materialize(evicted)
            t.drop_checkpoint(evicted.cid)
        self.obs.metrics.inc("replay.checkpoints")
        self.obs.metrics.set_gauge("replay.ring_size", len(self.ring.entries))
        if self.writer is not None:
            self.writer.spill(ck)
        return ck

    def _ensure_checkpoint_here(self) -> Checkpoint:
        """The ring's checkpoint at the current stop, taken now if there
        is none.  A checkpoint holds the arrival state, so after stores
        made here it is taken on a replayed arrival, and the stop is
        then put back as it was."""
        here = self.target.current_icount()
        if not self._fresh or self.ring.find(here) is not None:
            return self._checkpoint_here("stop", here)
        with self.excursion():
            ck = self.ring.at_or_before(here)
            self._restore(ck)
            self._run_to(here, ck.icount)
            arrival = self._checkpoint_here("stop", here)
        return arrival

    def _restore(self, ck: Checkpoint) -> None:
        """Restore a checkpoint and put back the stop identity it was
        taken at (``Target.restore_checkpoint`` can only assume a plain
        trap stop; the ring knows better)."""
        self.obs.metrics.inc("replay.restores")
        self.target.restore_checkpoint(ck.cid)
        self.target.signo = ck.signo
        self.target.sigcode = ck.sigcode
        self.position = ck.icount
        self._fresh = 0

    # -- temporary breakpoints for reverse stepping ------------------------

    def _plant_temps(self) -> List[int]:
        """Make every stopping point a stop, as the event engine does
        for forward stepping — reverse stepping is the same trick run
        inside a replay."""
        t = self.target
        temps: List[int] = []
        for proc_entry in t.symtab.procs():
            for stop in t.symtab.loci(proc_entry):
                address = t.symtab.stop_address(stop)
                if address is None or t.breakpoints.at(address) is not None:
                    continue
                try:
                    t.breakpoints.plant(address, note="reverse-step")
                except Exception:
                    continue  # e.g. the current stop sits on this no-op
                temps.append(address)
        return temps

    def _remove_temps(self, temps: List[int]) -> None:
        for address in temps:
            try:
                self.target.breakpoints.remove(address)
            except Exception:
                pass
