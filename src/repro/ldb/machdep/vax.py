"""ldb machine-dependent support for the rvax target.

Little-endian, frame-pointer chains (saved fp at fp+0, return address at
fp+4), byte-granular instructions — the breakpoint data is a single
byte, the real VAX BPT opcode.  No register variables, so no save masks.
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


class VaxFrame(Frame):
    def caller(self) -> Optional["VaxFrame"]:
        fp = self.frame_base
        if fp == 0:
            return None
        old_fp = self.memory.fetch(Location.absolute("d", fp), "i32") & 0xFFFFFFFF
        ra = self.memory.fetch(Location.absolute("d", fp + 4), "i32") & 0xFFFFFFFF
        if ra == 0:
            return None
        caller_pc = ra - 1
        # byte-granular instructions: no pc alignment to check
        guard_down_stack(self.target, caller_pc, fp + 8, self.sp,
                         stack_align=4, pc_align=1)
        if old_fp and old_fp < fp:
            raise CorruptStackError("saved fp 0x%x below fp 0x%x "
                                    "(fp chain walked backwards)"
                                    % (old_fp, fp))
        hit = self.target.linker.proc_containing(caller_pc)
        if hit is None or hit[1].startswith("__"):  # startup code
            return None
        machine = self.target.machdep
        aliases = dict(self.memory.routes["r"].underlying.aliases)
        aliases[("r", machine.sp_reg)] = Location.immediate(fp + 8)
        aliases[("r", machine.fp_reg)] = Location.immediate(old_fp)
        aliases[("x", 0)] = Location.immediate(caller_pc)
        memory = make_register_dag(self.target, aliases,
                                   machine.regset_widths, stats=self.stats)
        return VaxFrame(self.target, caller_pc, memory, old_fp, fp + 8,
                        level=self.level + 1, stats=self.stats)


class VaxMachine(Machine):
    arch_name = ps_arch = "rvax"
    byteorder = "little"
    break_bytes_le = bytes([0x03])  # BPT
    nop_bytes_le = bytes([0x01])    # NOP
    insn_fetch_size = noop_advance = 1
    nregs = 16
    nfregs = 4
    sp_reg = 14
    fp_reg = 13
    frame_class = VaxFrame
