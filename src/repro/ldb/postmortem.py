"""Post-mortem debugging: a dead target behind the live-target API.

A core file (:class:`repro.machines.core.CoreFile`) holds everything
the nub knew at the moment the target died: the memory image, the saved
context address, the fault record, and the planted-breakpoint table.
:class:`CoreTransport` puts that image behind the
:class:`~repro.nub.session.Transport` interface, answering the same
FETCH/BLOCKFETCH/BREAKS conversation a live nub would — byte for byte,
including the big-endian reversal and the machine's saved-context
fixups — so the whole debugger stack above it (the wire cache, the
register DAG, the stack walkers, the expression server, the printers)
runs unchanged with no nub and no target process.

The one synthetic event is the fault itself: the first
:meth:`CoreTransport.recv_event` re-announces the recorded stop exactly
as the nub announced it when the target died.  Everything that would
*change* the target — stores, controls, breakpoint patches — draws
:class:`PostMortemError`, which the layers above already map to their
own typed errors: ``set x = 1`` fails with a clear message instead of
silently patching a corpse.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..machines import get_arch
from ..machines.core import CoreError, CoreFile
from ..nub import protocol
from ..nub.channel import ChannelClosed
from ..nub.nub import nub_md_for
from ..nub.session import NubError, Transport, TransportError


class PostMortemError(TransportError):
    """A request that only a live target could serve (a store, a
    control, a breakpoint patch) reached a core-file transport."""


class CoreTransport(Transport):
    """A read-only :class:`Transport` over a core file.

    Replays the nub's side of the memory conversation against the
    core's memory image:

    * FETCH reads with the target's byte order, answers little-endian,
      and applies the machine's ``fix_fetched`` hook — the rmips
      saved-float word swap happens here exactly as on the live wire;
    * BLOCKFETCH answers raw memory images, with the same
      readable-prefix semantics for spans running off the image;
    * BREAKS answers the planted table recorded in the core, so the
      breakpoint layer adopts (and can display) what the dead debugger
      had planted;
    * DUMPCORE re-serializes the core, so saving a copy works;
    * everything mutating — STORE, BLOCKSTORE, PLANT, UNPLANT, and all
      controls — raises :class:`PostMortemError`.

    Reverse commands never get here: the future is over, and the
    target refuses them as post-mortem before "sending".
    """

    def __init__(self, core: CoreFile):
        self.core = core
        try:
            self.arch = get_arch(core.arch_name)
        except KeyError:
            raise CoreError("core names unknown architecture %r"
                            % core.arch_name)
        self.md = nub_md_for(self.arch)
        self.mem = core.memory()
        self._announced = False
        self.closed = False

    # -- the Transport interface ------------------------------------------

    def transact(self, msg: protocol.Message, expect: Iterable[int],
                 timeout: Optional[float] = None) -> protocol.Message:
        expect = tuple(expect)
        reply = self._serve(msg)
        if reply.mtype == protocol.MSG_ERROR:
            raise NubError(protocol.parse_error(reply), request=msg)
        if reply.mtype not in expect:
            raise TransportError("unexpected reply %r to %r" % (reply, msg))
        return reply

    def control(self, msg: protocol.Message) -> None:
        raise PostMortemError(
            "target is post-mortem (a core file): cannot %s"
            % protocol.type_name(msg.mtype).lower())

    def recv_event(self, timeout: Optional[float] = None) -> protocol.Message:
        # the one event a corpse has: the stop that killed it
        if not self._announced:
            self._announced = True
            return protocol.signal(self.core.signo, self.core.code,
                                   self.core.context_addr)
        raise ChannelClosed("no further events from a core file")

    def close(self) -> None:
        self.closed = True

    # -- the nub's half of the conversation, replayed ---------------------

    def _serve(self, msg: protocol.Message) -> protocol.Message:
        if msg.mtype == protocol.MSG_FETCH:
            return self._serve_fetch(msg)
        if msg.mtype == protocol.MSG_BLOCKFETCH:
            return self._serve_blockfetch(msg)
        if msg.mtype == protocol.MSG_BREAKS:
            return protocol.breaklist(self.core.planted)
        if msg.mtype == protocol.MSG_ICOUNT:
            return protocol.ckpt(protocol.NO_CKPT, self.core.icount)
        if msg.mtype == protocol.MSG_DUMPCORE:
            return protocol.data(self.core.to_bytes())
        if msg.mtype in (protocol.MSG_STORE, protocol.MSG_BLOCKSTORE,
                         protocol.MSG_PLANT, protocol.MSG_UNPLANT):
            raise PostMortemError(
                "target is post-mortem (a core file): core files are "
                "read-only, cannot %s" % protocol.type_name(msg.mtype).lower())
        return protocol.error(protocol.ERR_UNSUPPORTED)

    def _serve_fetch(self, msg: protocol.Message) -> protocol.Message:
        space, address, size = protocol.parse_fetch(msg)
        if space not in "cd":
            return protocol.error(protocol.ERR_BAD_SPACE)
        if size == 10 and not self.arch.has_f80:
            return protocol.error(protocol.ERR_BAD_MESSAGE)
        try:
            raw = self.mem.read_bytes(address, size)
        except Exception:
            return protocol.error(protocol.ERR_BAD_ADDRESS)
        raw_le = raw if self.arch.byteorder == "little" else raw[::-1]
        raw_le = self.md.fix_fetched(address, raw_le, self.core.context_addr)
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
        try:
            return self.mem.read_bytes(address, length)
        except Exception:
            pass
        lo, hi = 0, length  # binary-search the longest readable prefix
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            try:
                self.mem.read_bytes(address, mid)
                lo = mid
            except Exception:
                hi = mid
        if lo == 0:
            return None
        return self.mem.read_bytes(address, lo)
