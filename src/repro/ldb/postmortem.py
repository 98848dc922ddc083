"""Post-mortem debugging: a dead target behind the live-target API.

A core file (:class:`repro.machines.core.CoreFile`) holds everything
the nub knew at the moment the target died: the memory image, the saved
context address, the fault record, and the planted-breakpoint table.
:class:`CoreTransport` rebuilds the dead target as a stopped process
and hosts a :class:`~repro.nub.nub.Nub` over it on the debugger's
thread, as :class:`~repro.nub.session.LocalTransport` hosts a live one,
so the FETCH/BLOCKFETCH/BREAKS conversation is answered by the nub's
own handlers — byte for byte, including the big-endian reversal and
the machine's saved-context fixups — and the whole debugger stack above
it (the wire cache, the register DAG, the stack walkers, the expression
server, the printers) runs unchanged with no live target.

The one event is the fault itself: the nub is opened at the recorded
stop, which the host announces exactly as the nub announced it when
the target died.  Everything that would *change* the target — stores,
controls, breakpoint patches — draws :class:`PostMortemError`, which
the layers above already map to their own typed errors: ``set x = 1``
fails with a clear message instead of silently patching a corpse.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..machines import FaultEvent
from ..machines.core import CoreFile
from ..nub import protocol
from ..nub.channel import ChannelClosed
from ..nub.nub import Nub
from ..nub.session import LocalTransport, TransportError


class PostMortemError(TransportError):
    """A request that only a live target could serve (a store, a
    control, a breakpoint patch) reached a core-file transport."""


#: what a corpse answers: reads, its planted table, its instruction
#: count, and a copy of itself (DUMPCORE)
_SERVED = (protocol.MSG_FETCH, protocol.MSG_BLOCKFETCH, protocol.MSG_BREAKS,
           protocol.MSG_ICOUNT, protocol.MSG_DUMPCORE)
#: what would change it
_MUTATING = (protocol.MSG_STORE, protocol.MSG_BLOCKSTORE, protocol.MSG_PLANT,
             protocol.MSG_UNPLANT)


class CoreTransport(LocalTransport):
    """A read-only host over a core file.

    A nub over the core's rebuilt process answers FETCH, BLOCKFETCH,
    BREAKS (the planted table the dead debugger left, so the
    breakpoint layer adopts it), ICOUNT and DUMPCORE (a copy of the
    core).  STORE, BLOCKSTORE, PLANT, UNPLANT and every control raise
    :class:`PostMortemError`; time travel and SPILL are answered
    ``ERR_UNSUPPORTED``.  The fault is announced once; after it the
    host has no events.  Reverse commands never get here: the future
    is over, and the target refuses them as post-mortem before
    "sending".
    """

    def __init__(self, core: CoreFile, obs=None):
        self.core = core
        nub = Nub(core.process(), loader_ps=core.loader_ps, obs=obs)
        nub.context_addr = core.context_addr
        nub.planted = dict(core.planted)
        nub.last_stop = FaultEvent(core.signo, core.code, core.fault_pc)
        super().__init__(nub)

    # defined here because perfbench/spans.py wraps it by name from this
    # class's own namespace (ROADMAP item 1)
    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        return super().transact(msg, expect, timeout)

    def _answer(self, msg: protocol.Message) -> protocol.Message:
        if msg.mtype in _MUTATING:
            raise PostMortemError(
                "target is post-mortem (a core file): core files are "
                "read-only, cannot %s" % protocol.type_name(msg.mtype).lower())
        if msg.mtype in _SERVED:
            return self.nub.answer(msg)
        return protocol.error(protocol.ERR_UNSUPPORTED)

    def control(self, msg: protocol.Message) -> None:
        raise PostMortemError(
            "target is post-mortem (a core file): cannot %s"
            % protocol.type_name(msg.mtype).lower())

    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        # the one event a corpse has: the stop that killed it
        if self.opened_at is None:
            raise ChannelClosed("no further events from a core file")
        return super().recv_event(timeout)
