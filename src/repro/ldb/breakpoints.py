"""Breakpoints (paper Sec. 3, 6, 7.1).

ldb plants a breakpoint at an instruction by overwriting it with the
trap pattern; to resume, it "interprets" the instruction out of line.
In the interim scheme breakpoints go only at the no-op instructions
the compiler placed at stopping points, so interpreting one means
skipping it.

The nub does the overwriting, with the PLANT and UNPLANT stores of the
paper's Sec. 7.1, and remembers every instruction a PLANT overwrote.  It
therefore owns the planted set, which outlives a debugger (a successor
adopts it with BREAKS) and a checkpoint RESTORE (the nub keeps today's
traps over the restored image).

The debugger still picks the sites and the trap pattern, so the
implementation is machine-independent but manipulates the same four
items of machine-dependent data: the break and no-op bit patterns, the
type used to fetch and store instructions, and the pc advance after
interpreting the no-op.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..nub import protocol
from ..nub.session import NubError
from ..postscript import Location

_KIND_BY_SIZE = {1: "i8", 2: "i16", 4: "i32"}


class BreakpointError(Exception):
    pass


class Breakpoint:
    __slots__ = ("address", "note")

    def __init__(self, address: int, note: str = ""):
        self.address = address
        self.note = note

    def __repr__(self) -> str:
        return "<bp 0x%x %s>" % (self.address, self.note)


class BreakpointTable:
    """All breakpoints planted in one target: the debugger's copy of
    the nub's planted table."""

    def __init__(self, target):
        self.target = target
        md = target.machdep
        self.kind = _KIND_BY_SIZE[md.insn_fetch_size]
        self.nop_pattern = int.from_bytes(md.nop_bytes_le, "little")
        self.break_pattern = int.from_bytes(md.break_bytes_le, "little")
        self.noop_advance = md.noop_advance
        self.planted: Dict[int, Breakpoint] = {}

    def resync(self) -> None:
        """Adopt whatever the nub has planted: the paper's Sec. 7.1
        recovery, for a debugger meeting a nub it did not start (an
        attach, a reconnect, an opened core or recording)."""
        reply = self.target.transport.transact(
            protocol.breaks(), expect=(protocol.MSG_BREAKLIST,))
        for address, _original in protocol.parse_breaklist(reply):
            if address not in self.planted:
                self.planted[address] = Breakpoint(address, note="adopted")

    def _invalidate_insn(self, address: int) -> None:
        # PLANT and UNPLANT write code behind the wire memory's back;
        # the nub's code and data spaces address the same memory, so
        # drop cached blocks under both names
        length = len(self.target.machdep.nop_bytes_le)
        self.target.wire.invalidate_range("c", address, length)
        self.target.wire.invalidate_range("d", address, length)

    def fetch_insn(self, address: int) -> int:
        value = self.target.wire.fetch(Location.absolute("c", address),
                                       self.kind)
        bits = 8 * len(self.target.machdep.nop_bytes_le)
        return value & ((1 << bits) - 1)

    def _require_live(self) -> None:
        # planting patches target code; a core file has no code to patch
        if getattr(self.target, "post_mortem", False):
            raise BreakpointError(
                "target is post-mortem (a core file): breakpoints "
                "cannot be planted or removed")

    def plant(self, address: int, note: str = "") -> Breakpoint:
        """Overwrite the no-op at ``address`` with the trap pattern."""
        self._require_live()
        if address in self.planted:
            return self.planted[address]
        original = self.fetch_insn(address)
        if original != self.nop_pattern:
            raise BreakpointError(
                "0x%x does not hold a no-op (found 0x%x): the interim "
                "scheme plants breakpoints only at stopping points"
                % (address, original))
        trap = self.target.machdep.break_bytes_le
        try:
            self.target.transport.transact(protocol.plant(address, trap),
                                           expect=(protocol.MSG_OK,))
        except NubError:
            raise BreakpointError("nub rejected plant at 0x%x" % address)
        self._invalidate_insn(address)
        bp = Breakpoint(address, note)
        self.planted[address] = bp
        return bp

    def remove(self, address: int) -> None:
        self._require_live()
        if self.planted.pop(address, None) is None:
            raise BreakpointError("no breakpoint at 0x%x" % address)
        try:
            self.target.transport.transact(protocol.unplant(address),
                                           expect=(protocol.MSG_OK,))
        except NubError:
            raise BreakpointError("nub rejected unplant at 0x%x" % address)
        self._invalidate_insn(address)

    def remove_all(self) -> None:
        for address in list(self.planted):
            self.remove(address)

    def at(self, address: int) -> Optional[Breakpoint]:
        return self.planted.get(address)

    def resume_pc(self, trap_pc: int) -> int:
        """Where execution resumes after a breakpoint trap: the no-op is
        interpreted out of line by skipping it (machine-dependent
        advance)."""
        return trap_pc + self.noop_advance
