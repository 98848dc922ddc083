"""ldb machine-dependent support for the rsparc target.

Frame-pointer chains: the saved fp lives at fp-4 and the return address
at fp-8, so walking needs no linker help — this target shares the
machine-independent linker interface (paper Sec. 4.3).
"""

from __future__ import annotations

from typing import Optional

from ...postscript import Location
from ..frames import (
    CorruptStackError,
    Frame,
    Machine,
    guard_down_stack,
    make_register_dag,
)

RA_REG = 15


class SparcFrame(Frame):
    def caller(self) -> Optional["SparcFrame"]:
        fp = self.frame_base
        if fp == 0:
            return None
        ra = self.memory.fetch(Location.absolute("d", fp - 8), "i32") & 0xFFFFFFFF
        old_fp = self.memory.fetch(Location.absolute("d", fp - 4), "i32") & 0xFFFFFFFF
        if ra == 0:
            return None
        caller_pc = ra - 4
        # the caller resumes with sp = our fp; its own fp must lie
        # further down-stack still (or be 0, ending the walk cleanly)
        guard_down_stack(self.target, caller_pc, fp, self.sp,
                         stack_align=4, pc_align=4)
        if old_fp and old_fp < fp:
            raise CorruptStackError("saved fp 0x%x below fp 0x%x "
                                    "(fp chain walked backwards)"
                                    % (old_fp, fp))
        hit = self.target.linker.proc_containing(caller_pc)
        if hit is None or hit[1].startswith("__"):  # startup code
            return None
        machine = self.target.machdep
        aliases = dict(self.memory.routes["r"].underlying.aliases)
        aliases[("r", machine.sp_reg)] = Location.immediate(fp)
        aliases[("r", machine.fp_reg)] = Location.immediate(old_fp)
        aliases[("r", RA_REG)] = Location.immediate(ra)
        aliases[("x", 0)] = Location.immediate(caller_pc)
        memory = make_register_dag(self.target, aliases,
                                   machine.regset_widths, stats=self.stats)
        return SparcFrame(self.target, caller_pc, memory, old_fp, fp,
                          level=self.level + 1, stats=self.stats)


class SparcMachine(Machine):
    arch_name = ps_arch = "rsparc"
    byteorder = "big"
    break_bytes_le = bytes([0, 0, 0, 1])
    nop_bytes_le = bytes(4)
    insn_fetch_size = noop_advance = 4
    nregs = 32
    nfregs = 8
    sp_reg = 14
    fp_reg = 30
    frame_class = SparcFrame
