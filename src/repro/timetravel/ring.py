"""The debugger's checkpoint bookkeeping.

The images themselves live with the nub; the debugger holds only this
metadata — the id it can pass to ``RESTORE``, where in execution the
checkpoint sits (retired-instruction count, pc, sp), and what kind of
stop it was taken at.  The ring is bounded: the **base** (oldest)
checkpoint is never evicted, so the recorded history always reaches
back to where recording began, and the rest recycle first-in-first-out
in the order they were added, which is not icount order once the user
has travelled back.
"""

from __future__ import annotations

from typing import List, Optional


class Checkpoint:
    """Metadata for one nub-side checkpoint."""

    __slots__ = ("cid", "icount", "pc", "sp", "signo", "sigcode", "kind")

    def __init__(self, cid: int, icount: int, pc: int, sp: Optional[int],
                 signo: int, sigcode: int, kind: str):
        self.cid = cid
        self.icount = icount
        self.pc = pc
        self.sp = sp
        self.signo = signo
        self.sigcode = sigcode
        #: "stop" — taken at a user-visible stop (breakpoint, fault,
        #: the entry pause); "auto" — taken at a RUNTO interval boundary
        self.kind = kind

    def __repr__(self) -> str:
        return "<ckpt %d icount=%d pc=0x%x %s>" % (self.cid, self.icount,
                                                   self.pc, self.kind)


class CheckpointRing:
    """A bounded, icount-ordered collection of checkpoints.

    ``add`` returns the entries evicted to stay within ``capacity`` so
    the caller can release them nub-side, oldest added first; neither
    the base entry (smallest icount, normally where recording was
    enabled) nor the entry being added is ever evicted.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 2:
            raise ValueError("capacity must allow a base and one more")
        self.capacity = capacity
        self.entries: List[Checkpoint] = []  # ascending icount
        self._added: List[Checkpoint] = []  # in the order added

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, ck: Checkpoint) -> List[Checkpoint]:
        """Insert in icount order; returns what got evicted."""
        index = 0
        for index, existing in enumerate(self.entries):
            if existing.icount > ck.icount:
                break
        else:
            index = len(self.entries)
        self.entries.insert(index, ck)
        self._added.append(ck)
        evicted = []
        while len(self.entries) > self.capacity:
            victim = next(old for old in self._added
                          if old is not self.entries[0] and old is not ck)
            self._added.remove(victim)
            self.entries.remove(victim)
            evicted.append(victim)
        return evicted

    def find(self, icount: int) -> Optional[Checkpoint]:
        """The entry exactly at ``icount``, if any."""
        for ck in self.entries:
            if ck.icount == icount:
                return ck
        return None

    def before(self, icount: int) -> List[Checkpoint]:
        """Entries strictly earlier than ``icount``, newest first —
        the reverse-search visiting order."""
        return [ck for ck in reversed(self.entries) if ck.icount < icount]

    def at_or_before(self, icount: int) -> Optional[Checkpoint]:
        """The newest entry at or earlier than ``icount``."""
        best = None
        for ck in self.entries:
            if ck.icount <= icount:
                best = ck
        return best

    def drop_future(self, icount: int) -> List[Checkpoint]:
        """Remove and return entries later than ``icount`` — called when
        the user resumes forward after time-travelling, since execution
        may now diverge from the recorded future."""
        stale = [ck for ck in self.entries if ck.icount > icount]
        self.entries = [ck for ck in self.entries if ck.icount <= icount]
        self._added = [ck for ck in self._added if ck.icount <= icount]
        return stale
