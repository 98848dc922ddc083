"""ldb's linker interface (paper Sec. 3, 4.3).

Hides machine dependencies behind a small object built from the loader
table.  The rsparc, rm68k, and rvax targets share the single
machine-independent implementation; rmips cannot, because the machine
has no frame pointer: to walk past an rmips stack frame ldb needs the
frame size, which the MIPS implementation reads from the **runtime
procedure table in the target address space** — not from the object
file (footnote 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..postscript import Location, PSDict, PSError
from .memories import WireMemory


#: slack past the last known procedure *entry* when bounding the text
#: segment — the table has no procedure ends, so the top is padded
_TEXT_SLACK = 1 << 16


class LinkerInterface:
    """The shared (machine-independent) implementation."""

    def __init__(self, table: PSDict, wire: WireMemory):
        self.table = table
        self.wire = wire
        self._anchormap: PSDict = table["anchormap"]
        self._externmap: PSDict = table.get("externmap", PSDict())
        self._proctable: List[Tuple[int, str]] = []
        items = list(table["proctable"])
        for i in range(0, len(items) - 1, 2):
            self._proctable.append((items[i], items[i + 1].text))
        self._proctable.sort()

    # -- symbol addresses -------------------------------------------------

    def anchor_address(self, name: str) -> int:
        value = self._anchormap.get(name)
        if value is None:
            raise PSError("undefined", "anchor %s" % name)
        return value

    def global_address(self, label: str) -> Optional[int]:
        value = self._externmap.get(label)
        if value is not None:
            return value
        for address, name in self._proctable:
            if name == label:
                return address
        return None

    # -- procedures ----------------------------------------------------------

    def proc_containing(self, pc: int) -> Optional[Tuple[int, str]]:
        """(address, name) of the procedure containing ``pc`` — the first
        step in mapping a pc to a symbol-table entry."""
        best = None
        for address, name in self._proctable:
            if address <= pc:
                best = (address, name)
            else:
                break
        return best

    def text_range(self) -> Optional[Tuple[int, int]]:
        """A conservative ``[lo, hi)`` bound on the text segment, from
        the proctable.  Used by the unwinder's corruption defenses: a
        return address far outside every known procedure is stack
        corruption, not a call site."""
        if not self._proctable:
            return None
        return (self._proctable[0][0], self._proctable[-1][0] + _TEXT_SLACK)

    # -- frame information ------------------------------------------------------

    def frame_size(self, pc: int) -> Optional[int]:
        """Unavailable in the shared implementation: frame-pointer
        targets walk the fp chain instead."""
        return None

    def reg_save_info(self, pc: int) -> Tuple[int, int]:
        return (0, 0)


class MipsLinkerInterface(LinkerInterface):
    """The rmips implementation: reads the runtime procedure table from
    the target address space through the wire (paper footnote 4).

    This is the extra ~250 lines of machine-dependent code the paper's
    LoC table attributes to the MIPS debugger column.
    """

    def __init__(self, table: PSDict, wire: WireMemory):
        super().__init__(table, wire)
        self._rpt: Optional[List[Tuple[int, int, int, int]]] = None
        self._rpt_address = self.global_address("_procedure_table")

    def _read_rpt(self) -> List[Tuple[int, int, int, int]]:
        """Fetch the runtime procedure table, once, via nub fetches."""
        if self._rpt is not None:
            return self._rpt
        if self._rpt_address is None:
            raise PSError("undefined", "no runtime procedure table")
        records: List[Tuple[int, int, int, int]] = []
        offset = self._rpt_address
        while True:
            words = [self.wire.fetch(Location.absolute("d", offset + 4 * i), "i32")
                     for i in range(4)]
            if words[0] == 0:
                break
            address = words[0] & 0xFFFFFFFF
            framesize = words[1] & 0xFFFFFFFF
            regmask = words[2] & 0xFFFFFFFF
            regsave = words[3]  # signed: a vfp-relative offset
            records.append((address, framesize, regmask, regsave))
            offset += 16
        records.sort()
        self._rpt = records
        return records

    def _record_for(self, pc: int) -> Optional[Tuple[int, int, int, int]]:
        best = None
        for record in self._read_rpt():
            if record[0] <= pc:
                best = record
            else:
                break
        return best

    def frame_size(self, pc: int) -> Optional[int]:
        record = self._record_for(pc)
        return record[1] if record is not None else None

    def reg_save_info(self, pc: int) -> Tuple[int, int]:
        """(register mask, vfp-relative save offset) for the procedure."""
        record = self._record_for(pc)
        return (record[2], record[3]) if record is not None else (0, 0)


def linker_for(arch_name: str, table: PSDict, wire: WireMemory) -> LinkerInterface:
    """The VAX, SPARC, and 68020 analogs share one machine-independent
    implementation; the MIPS analog cannot (paper Sec. 4.3)."""
    if arch_name in ("rmips", "rmipsel"):
        return MipsLinkerInterface(table, wire)
    return LinkerInterface(table, wire)
