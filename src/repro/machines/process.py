"""Simulated target processes and their little operating system.

A :class:`Process` owns the memory, CPU, and OS services (syscalls) of
one running target program.  Faults and exits surface as events; the nub
(:mod:`repro.nub`) wraps a process to catch faults the way the paper's
nub catches signals.

The syscall layer implements ``exit``, ``putchar``, and ``printf`` (the
paper's fib example prints with printf).  printf uses a packed varargs
block on the stack, so the OS can read integer, string, and double
arguments regardless of the target's register-argument convention.
"""

from __future__ import annotations

import io
import re
from typing import Optional, Union

from .cpu import Cpu, CpuSnapshot
from .isa import (
    CODE_ICOUNT,
    DEFAULT_MAX_STEPS,
    Halt,
    IcountReached,
    SIGTRAP,
    SYS_EXIT,
    SYS_PRINTF,
    SYS_PUTCHAR,
    TargetFault,
)
from .loader import Executable, load
from .memory import MemorySnapshot, TargetMemory


class ExitEvent:
    """The target called exit()."""

    def __init__(self, status: int, icount: Optional[int] = None):
        self.status = status
        #: retired instructions when the event fired (None: unknown)
        self.icount = icount

    def __repr__(self) -> str:
        if self.icount is None:
            return "<exit %d>" % self.status
        return "<exit %d icount=%d>" % (self.status, self.icount)


class FaultEvent:
    """The target took a signal (trap, segv, fpe, ill)."""

    def __init__(self, signo: int, code: int, pc: int,
                 icount: Optional[int] = None):
        self.signo = signo
        self.code = code
        self.pc = pc
        #: retired instructions when the event fired (None: unknown)
        self.icount = icount

    def __repr__(self) -> str:
        if self.icount is None:
            return "<fault sig=%d code=%d pc=0x%x>" % (self.signo, self.code,
                                                       self.pc)
        return "<fault sig=%d code=%d pc=0x%x icount=%d>" % (
            self.signo, self.code, self.pc, self.icount)


class IcountStopEvent(FaultEvent):
    """Execution paused because a requested retired-instruction count
    was reached (the RUNTO stop).  A :class:`FaultEvent` subclass so the
    nub's stop handling treats it like any other stop; the distinctive
    ``CODE_ICOUNT`` code tells the debugger why execution paused."""

    def __init__(self, icount: int, pc: int):
        super().__init__(SIGTRAP, CODE_ICOUNT, pc, icount=icount)

    def __repr__(self) -> str:
        return "<icount-stop %d pc=0x%x>" % (self.icount, self.pc)


class ProcessSnapshot:
    """A checkpoint of one process: CPU registers, copy-on-write memory
    pages, exit state, and the output-stream position."""

    __slots__ = ("cpu", "mem", "exited", "out_pos")

    def __init__(self, cpu: CpuSnapshot, mem: MemorySnapshot,
                 exited: Optional[int], out_pos: Optional[int]):
        self.cpu = cpu
        self.mem = mem
        self.exited = exited
        self.out_pos = out_pos

    @property
    def icount(self) -> int:
        return self.cpu.icount


_FORMAT_RE = re.compile(r"%([-+ 0#]*)(\d*)(\.\d+)?([diuxXcsfeg%])")


class Process:
    """A loaded target program on a simulated CPU."""

    def __init__(self, exe: Executable, memsize: Optional[int] = None,
                 stdout: Optional[io.StringIO] = None, engine=None):
        self.exe = exe
        self.arch = exe.arch
        if memsize is None:
            # match the memory size the program was linked for
            memsize = exe.stack_top + 16
        self.mem = TargetMemory(memsize, byteorder=self.arch.byteorder)
        self.stdout = stdout if stdout is not None else io.StringIO()
        load(exe, self.mem)
        self.cpu = Cpu(self.arch, self.mem, syscall_handler=self._syscall,
                       engine=engine)
        self.cpu.pc = exe.entry
        self.cpu.set_reg(self.arch.sp, exe.stack_top)
        self.exited: Optional[int] = None

    @classmethod
    def blank(cls, arch, memsize: int) -> "Process":
        """A process with no program: ``memsize`` bytes of zeroed memory,
        for hosting state rebuilt from a file (a core's image, a
        recording's spill)."""
        shell = Executable(arch, [])
        shell.text_base = 0  # nothing to load, so any image size will do
        return cls(shell, memsize=memsize)

    # -- events ------------------------------------------------------------

    def run_until_event(self, *, max_steps: int = DEFAULT_MAX_STEPS,
                        stop_at_icount: Optional[int] = None,
                        ) -> Union[ExitEvent, FaultEvent]:
        """Run until the target exits, faults, or (with
        ``stop_at_icount``) retires the requested instruction count.

        Stop conditions are keyword-only and shared with
        :meth:`Cpu.run`.
        """
        try:
            status = self.cpu.run(max_steps=max_steps,
                                  stop_at_icount=stop_at_icount)
        except IcountReached as stop:
            return IcountStopEvent(stop.icount, stop.pc)
        except TargetFault as fault:
            return FaultEvent(fault.signo, fault.code, fault.address,
                              icount=self.cpu.icount)
        self.exited = status
        return ExitEvent(status, icount=self.cpu.icount)

    def output(self) -> str:
        return self.stdout.getvalue()

    # -- snapshot/restore --------------------------------------------------

    def snapshot(self) -> ProcessSnapshot:
        """Checkpoint the process: registers, COW memory pages, exit
        state, and how much output has been produced."""
        return ProcessSnapshot(self.cpu.snapshot(), self.mem.snapshot(),
                               self.exited, self._out_tell())

    def restore(self, snap: ProcessSnapshot) -> None:
        """Rewind the process to a snapshot; the snapshot stays valid
        (it can be restored again), and output written after the
        snapshot is truncated away when the stream allows it."""
        self.cpu.restore(snap.cpu)
        self.mem.restore(snap.mem)
        self.exited = snap.exited
        if snap.out_pos is not None:
            try:
                self.stdout.seek(snap.out_pos)
                self.stdout.truncate(snap.out_pos)
            except (AttributeError, OSError, io.UnsupportedOperation):
                pass  # a write-only stream: its past cannot be unprinted

    def release_snapshot(self, snap: ProcessSnapshot) -> None:
        """Drop a snapshot so its memory pages stop being COW-captured."""
        self.mem.release(snap.mem)

    def _out_tell(self) -> Optional[int]:
        try:
            return self.stdout.tell()
        except (AttributeError, OSError, io.UnsupportedOperation):
            return None

    # -- syscalls ------------------------------------------------------------

    def _syscall(self, cpu: Cpu, code: int) -> None:
        if code == SYS_EXIT:
            raise Halt(self._int_arg(cpu, 0))
        if code == SYS_PUTCHAR:
            self.stdout.write(chr(self._int_arg(cpu, 0) & 0xFF))
            return
        if code == SYS_PRINTF:
            self._printf(cpu)
            return
        raise TargetFault(4, code=code, address=cpu.pc)  # SIGILL: bad syscall

    def _int_arg(self, cpu: Cpu, index: int) -> int:
        """The index-th integer argument under the normal convention."""
        arch = self.arch
        if arch.arg_regs and index < len(arch.arg_regs):
            return cpu.get_reg(arch.arg_regs[index])
        base = cpu.get_reg(arch.sp) + (4 if arch.ra is None else 0)
        return self.mem.read_u32(base + 4 * index)

    def _varargs_base(self, cpu: Cpu) -> int:
        """Start of printf's packed argument block.

        The compiler passes *all* printf arguments in a packed block at
        the bottom of the caller's outgoing-argument area; on the CISC
        targets the return address sits below it.
        """
        sp = cpu.get_reg(self.arch.sp)
        return sp + (4 if self.arch.ra is None else 0)

    def _printf(self, cpu: Cpu) -> None:
        base = self._varargs_base(cpu)
        fmt_addr = self.mem.read_u32(base)
        fmt = self.mem.read_cstring(fmt_addr)
        offset = base + 4
        out = []
        pos = 0
        while pos < len(fmt):
            ch = fmt[pos]
            if ch != "%":
                out.append(ch)
                pos += 1
                continue
            match = _FORMAT_RE.match(fmt, pos)
            if not match:
                out.append(ch)
                pos += 1
                continue
            flags, width, precision, conv = match.groups()
            spec = "%" + flags + width + (precision or "")
            if conv == "%":
                out.append("%")
            elif conv in "di":
                out.append((spec + "d") % self.mem.read_i32(offset))
                offset += 4
            elif conv == "u":
                out.append((spec + "d") % self.mem.read_u32(offset))
                offset += 4
            elif conv in "xX":
                out.append((spec + conv) % self.mem.read_u32(offset))
                offset += 4
            elif conv == "c":
                out.append((spec + "c") % (self.mem.read_u32(offset) & 0xFF))
                offset += 4
            elif conv == "s":
                out.append((spec + "s") % self.mem.read_cstring(self.mem.read_u32(offset)))
                offset += 4
            else:  # f e g
                out.append((spec + conv) % self.mem.read_f64(offset))
                offset += 8
            pos = match.end()
        self.stdout.write("".join(out))
