"""The shared CPU simulation loop.

One :class:`Cpu` drives any :class:`~repro.machines.isa.Arch`: it decodes
at the pc, executes, and converts bad accesses, illegal opcodes, and
arithmetic faults into :class:`~repro.machines.isa.TargetFault` signals
for the nub to catch.

The rmips load delay slot is simulated here: a load's result is committed
only after the *following* instruction has executed, so an instruction in
the delay slot that reads the loaded register sees the old value.  This
keeps the assembler's delay-slot scheduling honest (paper Sec. 3: the
restricted scheduling available under debugging costs 13% on MIPS).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .engine import StopSpec, make_engine
from .isa import (
    Arch,
    DEFAULT_MAX_STEPS,
    SIGSEGV,
    TargetFault,
)
from .memory import MemoryFault, TargetMemory


class CpuSnapshot:
    """The complete register-level state of a :class:`Cpu` at one
    instant: restoring it (plus the matching memory snapshot) replays
    the deterministic simulation byte for byte."""

    __slots__ = ("regs", "fregs", "pc", "cc_lt", "cc_eq", "cc_ltu",
                 "icount", "pending_load", "wrote_reg")

    def __init__(self, cpu: "Cpu"):
        self.regs = list(cpu.regs)
        self.fregs = list(cpu.fregs)
        self.pc = cpu.pc
        self.cc_lt = cpu.cc_lt
        self.cc_eq = cpu.cc_eq
        self.cc_ltu = cpu.cc_ltu
        self.icount = cpu.icount
        self.pending_load = cpu._pending_load
        self.wrote_reg = cpu._wrote_reg


class Cpu:
    """Register state plus the fetch-decode-execute loop."""

    def __init__(self, arch: Arch, mem: TargetMemory,
                 syscall_handler: Optional[Callable[["Cpu", int], None]] = None,
                 engine=None):
        self.arch = arch
        self.mem = mem
        self.regs = [0] * arch.nregs
        self.fregs = [0.0] * arch.nfregs
        self.pc = 0
        #: Condition codes for the CISC targets: sign of last compare.
        self.cc_lt = False
        self.cc_eq = False
        self.cc_ltu = False
        self.syscall_handler = syscall_handler
        #: Retired-instruction counter: the clock of the deterministic
        #: simulation.  A faulting instruction counts as retired (its
        #: trap is part of the timeline), so replays that plant and hit
        #: breakpoints stay icount-aligned with runs that do not.
        self.icount = 0
        # Load-delay simulation (rmips): a pending (reg, value) commit,
        # and the register the current instruction wrote, which wins
        # over a commit to the same register (None on other targets).
        self._pending_load: Optional[Tuple[int, int]] = None
        self._wrote_reg: Optional[int] = None
        #: The execution engine that drives :meth:`run`.  ``engine``
        #: accepts a name ("step", "block"), an engine class, an
        #: instance, or None for the configured default.
        self.engine = make_engine(engine, self)

    # -- snapshot/restore --------------------------------------------------

    def snapshot(self) -> CpuSnapshot:
        """Capture the full register-level state (cheap: a few lists)."""
        return CpuSnapshot(self)

    def restore(self, snap: CpuSnapshot) -> None:
        self.regs = list(snap.regs)
        self.fregs = list(snap.fregs)
        self.pc = snap.pc
        self.cc_lt = snap.cc_lt
        self.cc_eq = snap.cc_eq
        self.cc_ltu = snap.cc_ltu
        self.icount = snap.icount
        self._pending_load = snap.pending_load
        self._wrote_reg = snap.wrote_reg

    # -- register access --------------------------------------------------

    def get_reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        if index == 0 and self.arch.zero_reg:
            return  # the hardwired zero register
        self.regs[index] = value & 0xFFFFFFFF
        if self.arch.has_load_delay:
            # only the delay-slot commit reads it; elsewhere it stays
            # None under every engine
            self._wrote_reg = index

    def get_reg_signed(self, index: int) -> int:
        value = self.regs[index]
        return value - (1 << 32) if value >= 1 << 31 else value

    def defer_load(self, index: int, value: int) -> None:
        """Schedule a register write that lands after the next instruction."""
        self._pending_load = (index, value & 0xFFFFFFFF)

    def set_cc(self, a: int, b: int) -> None:
        """Set condition codes from a signed and unsigned compare of a, b."""
        sa = a - (1 << 32) if a >= 1 << 31 else a
        sb = b - (1 << 32) if b >= 1 << 31 else b
        self.cc_lt = sa < sb
        self.cc_eq = a & 0xFFFFFFFF == b & 0xFFFFFFFF
        self.cc_ltu = a & 0xFFFFFFFF < b & 0xFFFFFFFF

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction; raises TargetFault or Halt."""
        commit = self._pending_load
        self._pending_load = None
        self._wrote_reg = None
        try:
            insn = self.arch.decode(self.mem, self.pc)
        except MemoryFault as fault:
            raise TargetFault(SIGSEGV, code=1, address=fault.address)
        try:
            self.arch.execute(self, insn)
        except MemoryFault as fault:
            raise TargetFault(SIGSEGV, code=2, address=fault.address)
        finally:
            self.icount += 1
            if commit is not None and commit[0] != self._wrote_reg:
                reg, value = commit
                if not (reg == 0 and self.arch.zero_reg):
                    self.regs[reg] = value

    def run(self, *, max_steps: int = DEFAULT_MAX_STEPS,
            stop_at_icount: Optional[int] = None) -> int:
        """Run until exit; returns the exit status.

        Stop conditions are keyword-only (a :class:`StopSpec`
        documents them).  TargetFaults propagate to the caller
        (normally the nub).  With ``stop_at_icount`` the engine raises
        :class:`~repro.machines.isa.IcountReached` once the
        retired-instruction counter reaches the target — checked
        *between* instructions, so a target at or below the current
        count stops immediately without executing anything.
        """
        return self.engine.run(self, StopSpec(max_steps, stop_at_icount))

    def syscall(self, code: int) -> None:
        if self.syscall_handler is None:
            raise TargetFault(SIGILL, code=code, address=self.pc)
        self.syscall_handler(self, code)
