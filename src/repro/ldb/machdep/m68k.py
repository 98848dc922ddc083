"""ldb machine-dependent support for the rm68k target.

Frame-pointer chains (LINK/UNLK): the saved fp is at fp+0 and the
return address at fp+4.  Register variables live in the callee-saved
data registers d4-d7; which ones a procedure saved — and where — comes
from the register-save mask the compiler adds to its symbol-table entry
(paper Sec. 5).  Floating registers hold 80-bit extended values, so the
``f`` space is 10 bytes wide here.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...postscript import Location
from ..frames import (
    CorruptStackError,
    Frame,
    Machine,
    guard_down_stack,
    make_register_dag,
)


class M68kFrame(Frame):
    def _saved_reg_slots(self) -> Dict[int, int]:
        """Use the compiler's register-save mask from the symbol table."""
        entry = self.proc_entry()
        if entry is None or "savemask" not in entry:
            return {}
        mask = entry["savemask"]
        offset = entry["saveoffset"]
        regs = sorted(bit for bit in range(M68kMachine.nregs)
                      if mask & (1 << bit))
        base = self.frame_base + offset
        return {reg: base + 4 * k for k, reg in enumerate(regs)}

    def caller(self) -> Optional["M68kFrame"]:
        fp = self.frame_base
        if fp == 0:
            return None
        old_fp = self.memory.fetch(Location.absolute("d", fp), "i32") & 0xFFFFFFFF
        ra = self.memory.fetch(Location.absolute("d", fp + 4), "i32") & 0xFFFFFFFF
        if ra == 0:
            return None
        caller_pc = ra - 2
        guard_down_stack(self.target, caller_pc, fp + 8, self.sp,
                         stack_align=2, pc_align=2)
        if old_fp and old_fp < fp:
            raise CorruptStackError("saved fp 0x%x below fp 0x%x "
                                    "(fp chain walked backwards)"
                                    % (old_fp, fp))
        hit = self.target.linker.proc_containing(caller_pc)
        if hit is None or hit[1].startswith("__"):  # startup code
            return None
        machine = self.target.machdep
        aliases = dict(self.memory.routes["r"].underlying.aliases)
        for reg, address in self._saved_reg_slots().items():
            aliases[("r", reg)] = Location.absolute("d", address)
        aliases[("r", machine.sp_reg)] = Location.immediate(fp + 8)
        aliases[("r", machine.fp_reg)] = Location.immediate(old_fp)
        aliases[("x", 0)] = Location.immediate(caller_pc)
        memory = make_register_dag(self.target, aliases,
                                   machine.regset_widths, stats=self.stats)
        return M68kFrame(self.target, caller_pc, memory, old_fp, fp + 8,
                         level=self.level + 1, stats=self.stats)


class M68kMachine(Machine):
    arch_name = ps_arch = "rm68k"
    byteorder = "big"
    break_bytes_le = bytes([0x48, 0x48])  # BKPT as a little-endian value
    nop_bytes_le = bytes([0x71, 0x4E])    # NOP (0x4E71)
    insn_fetch_size = noop_advance = 2
    nregs = 16
    nfregs = 8
    float_kind = "f80"
    sp_reg = 15  # a7
    fp_reg = 14  # a6
    frame_class = M68kFrame
