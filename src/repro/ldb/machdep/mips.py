"""ldb machine-dependent support for the rmips target.

The machine has no frame pointer, so locals are addressed off the
virtual frame pointer vfp = sp + frame size; the frame size, the
register-save mask, and the save-area offset come from the runtime
procedure table through the MIPS linker interface (paper Sec. 4.1, 4.3).
Saved registers lie at the save offset in ascending register number,
with the return address (r31) last.  The vfp is the extra register
``x1``: an alias for an immediate location, like the pc's ``x0``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...postscript import Location
from ..frames import Frame, Machine, guard_down_stack, make_register_dag

RA_REG = 31


class MipsFrame(Frame):
    """The rmips frame subtype: its two machine-dependent methods."""

    def _saved_reg_slots(self) -> Dict[int, int]:
        """reg number -> stack address of its save slot in this frame."""
        mask, save_offset = self.target.linker.reg_save_info(self.pc)
        regs = sorted(bit for bit in range(31) if mask & (1 << bit))
        if mask & (1 << RA_REG):
            regs.append(RA_REG)  # the return address is saved last
        base = self.frame_base + save_offset
        return {reg: base + 4 * k for k, reg in enumerate(regs)}

    def _return_address(self) -> int:
        slots = self._saved_reg_slots()
        if RA_REG in slots:
            return self.memory.fetch(
                Location.absolute("d", slots[RA_REG]), "i32") & 0xFFFFFFFF
        return self.read_reg(RA_REG) & 0xFFFFFFFF

    def caller(self) -> Optional["MipsFrame"]:
        """Walk down the stack and restore registers from it.

        The aliases for registers this procedure saved point at its
        save area; aliases for untouched callee-saved registers are
        reused from the called frame (paper Sec. 4.1).
        """
        ra = self._return_address()
        if ra == 0:
            return None
        caller_pc = ra - 4  # the call site
        caller_sp = self.frame_base  # our vfp is the caller's sp
        guard_down_stack(self.target, caller_pc, caller_sp, self.sp,
                         stack_align=4, pc_align=4)
        hit = self.target.linker.proc_containing(caller_pc)
        if hit is None or hit[1].startswith("__"):  # startup code
            return None
        framesize = self.target.linker.frame_size(caller_pc) or 0
        caller_vfp = caller_sp + framesize
        machine = self.target.machdep
        aliases = dict(self.memory.routes["r"].underlying.aliases)
        for reg, address in self._saved_reg_slots().items():
            aliases[("r", reg)] = Location.absolute("d", address)
        aliases[("r", machine.sp_reg)] = Location.immediate(caller_sp)
        aliases[("x", 0)] = Location.immediate(caller_pc)
        aliases[("x", 1)] = Location.immediate(caller_vfp)
        memory = make_register_dag(self.target, aliases,
                                   machine.regset_widths, stats=self.stats)
        return MipsFrame(self.target, caller_pc, memory, caller_vfp,
                         caller_sp, level=self.level + 1, stats=self.stats)


class MipsMachine(Machine):
    """The facts of rmips and its little-endian twin rmipsel."""

    ps_arch = "rmips"
    break_bytes_le = bytes([0, 0, 0, 4])  # break, little-endian value
    nop_bytes_le = bytes(4)
    insn_fetch_size = noop_advance = 4
    nregs = 32
    nfregs = 16
    sp_reg = 29
    frame_class = MipsFrame

    def __init__(self, arch_name: str = "rmips"):
        super().__init__()
        self.arch_name = arch_name
        self.byteorder = "big" if arch_name == "rmips" else "little"

    def frame_base(self, target, pc: int, sp: int, fp: Optional[int]) -> int:
        return sp + (target.linker.frame_size(pc) or 0)  # the vfp

    def context_aliases(self, context_addr: int, pc: int, frame_base: int):
        aliases = super().context_aliases(context_addr, pc, frame_base)
        aliases[("x", 1)] = Location.immediate(frame_base)
        return aliases

    def cache_fixup(self, target):
        """The debugger-side replica of the nub's ``fix_fetched`` hook.

        On rmips the kernel-saved context stores doubleword floating
        registers least-significant word first (footnote 3); the nub
        swaps the words when answering a per-value FETCH, so values
        sliced out of raw blocks must be swapped the same way.  The
        closure reads ``target.context_addr`` at fetch time — the
        region moves with each stop announcement.
        """
        if self.byteorder != "big":
            return None  # rmipsel contexts need no fixing
        low, high = self.freg_slot(0), self.freg_slot(self.nfregs)

        def fixup(space: str, address: int, raw_le: bytes) -> bytes:
            base = target.context_addr
            if (base and len(raw_le) == 8
                    and base + low <= address < base + high):
                return raw_le[4:] + raw_le[:4]
            return raw_le

        return fixup
