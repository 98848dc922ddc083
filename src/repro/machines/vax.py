"""The rvax target: the VAX analog.

Little-endian, byte-granular variable-length instructions: an opcode byte
followed by *operand specifiers*, each a mode/register byte possibly
followed by displacement or immediate bytes — the classic VAX shape.
Real VAX opcode values are kept where convenient (``NOP`` = 0x01,
``BPT`` = 0x03, ``MOVL`` = 0xD0, ``RET`` = 0x04 ...).

Because instructions are byte-granular, the machine-dependent "type used
to fetch and store instructions" is a byte, and planting a breakpoint
overwrites a single byte (paper Sec. 3's four items of machine-dependent
breakpoint data).

Operand specifier modes (high nibble; low nibble is the register)::

    0  register            Rn
    1  register deferred   (Rn)
    2  byte displacement   d8(Rn)   -- one displacement byte follows
    3  long displacement   d32(Rn)  -- four displacement bytes follow
    4  immediate long      #imm32   -- four bytes follow
    5  absolute            @#addr   -- four address bytes follow
    6  immediate double    #f64     -- eight bytes follow (float ops only)
"""

from __future__ import annotations

import math
import struct
from typing import List

from .isa import (
    Arch,
    Insn,
    SIGFPE,
    SIGILL,
    SIGTRAP,
    TargetFault,
    to_i32,
    to_u32,
)

# mode numbers
M_REG = 0
M_DEFER = 1
M_DISP8 = 2
M_DISP32 = 3
M_IMM = 4
M_ABS = 5
M_FIMM = 6

# opcode byte -> (name, operand count, float flag)
_OPTABLE = {
    0x00: ("halt", 0, False),
    0x01: ("nop", 0, False),
    0x03: ("bpt", 0, False),
    0x04: ("ret", 0, False),
    0xD0: ("movl", 2, False),
    0x90: ("movb", 2, False),
    0xB0: ("movw", 2, False),
    0x9A: ("movzbl", 2, False),
    0x3C: ("movzwl", 2, False),
    0xC1: ("addl3", 3, False),
    0xC3: ("subl3", 3, False),
    0xC5: ("mull3", 3, False),
    0xC7: ("divl3", 3, False),
    0xC9: ("reml3", 3, False),
    0xC8: ("divul3", 3, False),
    0xCA: ("remul3", 3, False),
    0xCB: ("andl3", 3, False),
    0xCD: ("orl3", 3, False),
    0xCF: ("xorl3", 3, False),
    0x78: ("ashl", 3, False),   # count, src, dst (negative count = right)
    0x7A: ("lshr", 3, False),   # logical right shift (invented)
    0xD1: ("cmpl", 2, False),
    0xD2: ("cmpd", 2, True),
    0x9E: ("moval", 2, False),  # move address (dst gets src's address)
    0x11: ("brb", 0, False),    # disp16 follows opcode directly
    0x12: ("bneq", 0, False),
    0x13: ("beql", 0, False),
    0x14: ("bgtr", 0, False),
    0x15: ("bleq", 0, False),
    0x18: ("bgeq", 0, False),
    0x19: ("blss", 0, False),
    0x1A: ("bgtru", 0, False),
    0x1B: ("blequ", 0, False),
    0x1E: ("bgequ", 0, False),
    0x1F: ("blssu", 0, False),
    0x60: ("seql", 1, False),
    0x62: ("sneq", 1, False),
    0x64: ("slss", 1, False),
    0x66: ("sleq", 1, False),
    0x68: ("sgtr", 1, False),
    0x6A: ("sgeq", 1, False),
    0x6E: ("slssu", 1, False),
    0x6F: ("sgtru", 1, False),
    0x73: ("slequ", 1, False),
    0x74: ("sgequ", 1, False),
    0xDD: ("pushl", 1, False),
    0x8F: ("popl", 1, False),
    0xFB: ("call", 0, False),   # addr32 follows
    0xFC: ("callr", 1, False),  # call through an operand
    0xFA: ("syscall", 0, False),  # code16 follows
    0x70: ("movd", 2, True),
    0x61: ("addd3", 3, True),
    0x63: ("subd3", 3, True),
    0x65: ("muld3", 3, True),
    0x67: ("divd3", 3, True),
    0x6C: ("cvtld", 2, True),   # int operand -> float dst
    0x6D: ("cvtdl", 2, True),   # float operand -> int dst
    0x71: ("movf", 2, True),    # f32 memory <-> f register
    0x72: ("negd", 2, True),
}
_OPS = {name: (byte, argc, flt) for byte, (name, argc, flt) in _OPTABLE.items()}

_BRANCH_OPS = frozenset([
    "brb", "bneq", "beql", "bgtr", "bleq", "bgeq", "blss",
    "bgtru", "blequ", "bgequ", "blssu"])

REG_RETVAL = 0
REG_AP = 12
REG_FP = 13
REG_SP = 14
TEMP_REGS = (1, 2, 3, 4, 5)
FTEMP_REGS = (1, 2, 3)
FRET_REG = 0


class Operand:
    """One decoded/assembled operand specifier."""

    __slots__ = ("mode", "reg", "ext")

    def __init__(self, mode: int, reg: int = 0, ext=None):
        self.mode = mode
        self.reg = reg
        self.ext = ext  # displacement, immediate, or address

    @classmethod
    def reg_(cls, reg: int) -> "Operand":
        return cls(M_REG, reg)

    @classmethod
    def defer(cls, reg: int) -> "Operand":
        return cls(M_DEFER, reg)

    @classmethod
    def disp(cls, reg: int, displacement: int) -> "Operand":
        if isinstance(displacement, int) and -128 <= displacement < 128:
            return cls(M_DISP8, reg, displacement)
        return cls(M_DISP32, reg, displacement)

    @classmethod
    def imm(cls, value) -> "Operand":
        return cls(M_IMM, 0, value)

    @classmethod
    def absolute(cls, address) -> "Operand":
        return cls(M_ABS, 0, address)

    @classmethod
    def fimm(cls, value: float) -> "Operand":
        return cls(M_FIMM, 0, value)

    def length(self) -> int:
        return 1 + {M_REG: 0, M_DEFER: 0, M_DISP8: 1, M_DISP32: 4,
                    M_IMM: 4, M_ABS: 4, M_FIMM: 8}[self.mode]

    def __repr__(self) -> str:
        return "<opnd m%d r%d %r>" % (self.mode, self.reg, self.ext)


# -- prebuilt operand accessors for the block engine ------------------------
#
# Each builder pre-resolves one operand specifier into a closure over the
# decoded mode/register/extension, replicating ``_address_of``/``_read``/
# ``_write`` exactly (rvax has no zero register and no load delay, so a
# register write is a plain masked store).  A builder returns
# ``None`` for specifiers the fast path does not handle — including the
# modes ``execute`` faults on — sending that instruction to the generic
# slow path so the fault (and its address) stays byte-identical.

_FAST_ALU3 = frozenset([
    "addl3", "subl3", "mull3", "divl3", "reml3", "divul3", "remul3",
    "andl3", "orl3", "xorl3", "ashl", "lshr"])

_SCC_OPS = frozenset([
    "seql", "sneq", "slss", "sleq", "sgtr", "sgeq", "slssu",
    "sgtru", "slequ", "sgequ"])

_VAX_CC_FUNCS = {
    "bneq": lambda cpu: not cpu.cc_eq,
    "beql": lambda cpu: cpu.cc_eq,
    "bgtr": lambda cpu: not (cpu.cc_lt or cpu.cc_eq),
    "bleq": lambda cpu: cpu.cc_lt or cpu.cc_eq,
    "bgeq": lambda cpu: not cpu.cc_lt,
    "blss": lambda cpu: cpu.cc_lt,
    "bgtru": lambda cpu: not (cpu.cc_ltu or cpu.cc_eq),
    "blequ": lambda cpu: cpu.cc_ltu or cpu.cc_eq,
    "bgequ": lambda cpu: not cpu.cc_ltu,
    "blssu": lambda cpu: cpu.cc_ltu,
}

_VAX_SCC_FUNCS = {
    "seql": lambda cpu: cpu.cc_eq,
    "sneq": lambda cpu: not cpu.cc_eq,
    "slss": lambda cpu: cpu.cc_lt,
    "sleq": lambda cpu: cpu.cc_lt or cpu.cc_eq,
    "sgtr": lambda cpu: not (cpu.cc_lt or cpu.cc_eq),
    "sgeq": lambda cpu: not cpu.cc_lt,
    "slssu": lambda cpu: cpu.cc_ltu,
    "sgtru": lambda cpu: not (cpu.cc_ltu or cpu.cc_eq),
    "slequ": lambda cpu: cpu.cc_ltu or cpu.cc_eq,
    "sgequ": lambda cpu: not cpu.cc_ltu,
}


def _c_addr(opnd: Operand):
    """Pre-resolved ``_address_of``; None for modes with no address."""
    reg = opnd.reg
    if opnd.mode == M_DEFER:
        return lambda cpu: cpu.regs[reg]
    if opnd.mode in (M_DISP8, M_DISP32):
        disp = opnd.ext
        return lambda cpu: (cpu.regs[reg] + disp) & 0xFFFFFFFF
    if opnd.mode == M_ABS:
        address = to_u32(opnd.ext)
        return lambda cpu: address
    return None


def _c_read(opnd: Operand, size: int = 4):
    """Pre-resolved unsigned ``_read``; None → generic slow path."""
    reg = opnd.reg
    if opnd.mode == M_REG:
        if size == 4:
            return lambda cpu: cpu.regs[reg]
        mask = (1 << (size * 8)) - 1
        return lambda cpu: cpu.regs[reg] & mask
    if opnd.mode == M_IMM:
        value = opnd.ext  # _read returns the raw immediate at any size
        return lambda cpu: value
    if opnd.mode == M_FIMM:
        return None
    addr = _c_addr(opnd)
    if addr is None:
        return None
    if size == 4:
        return lambda cpu: cpu.mem.read_u32(addr(cpu))
    return lambda cpu: cpu.mem.read_uint(addr(cpu), size)


def _c_write(opnd: Operand):
    """Pre-resolved longword ``_write``; None → generic slow path."""
    reg = opnd.reg
    if opnd.mode == M_REG:
        def write(cpu, value):
            cpu.regs[reg] = value & 0xFFFFFFFF
        return write
    if opnd.mode in (M_IMM, M_FIMM):
        return None  # execute raises SIGILL; keep that on the slow path
    addr = _c_addr(opnd)
    if addr is None:
        return None

    def write(cpu, value):
        cpu.mem.write_int(addr(cpu), 4, value)
    return write


class RVaxArch(Arch):
    name = "rvax"
    byteorder = "little"
    insn_align = 1  # byte-granular instruction stream
    nregs = 16
    nfregs = 4
    zero_reg = False
    sp = REG_SP
    fp = REG_FP
    ra = None
    arg_regs = ()
    ret_reg = REG_RETVAL
    reg_names = ("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
                 "r8", "r9", "r10", "r11", "ap", "fp", "sp", "pc")

    def __init__(self):
        self.nop_bytes = b"\x01"
        self.break_bytes = b"\x03"

    # -- encoding ---------------------------------------------------------

    def encode(self, insn: Insn) -> bytes:
        op = insn.op
        byte = _OPS[op][0]
        out = bytearray([byte])
        if op in _BRANCH_OPS:
            disp = insn.imm or 0
            if not isinstance(disp, int):
                raise ValueError("unresolved branch displacement %r" % (disp,))
            out += (disp & 0xFFFF).to_bytes(2, "little")
        elif op == "call":
            target = insn.target
            if not isinstance(target, int):
                raise ValueError("unresolved call target %r" % (target,))
            out += to_u32(target).to_bytes(4, "little")
        elif op == "syscall":
            out += ((insn.imm or 0) & 0xFFFF).to_bytes(2, "little")
        else:
            for operand in insn.imm or ():
                out.append((operand.mode << 4) | (operand.reg & 15))
                if operand.mode == M_DISP8:
                    if not isinstance(operand.ext, int):
                        raise ValueError("unresolved disp8 %r" % (operand.ext,))
                    out += (operand.ext & 0xFF).to_bytes(1, "little")
                elif operand.mode in (M_DISP32, M_IMM, M_ABS):
                    if not isinstance(operand.ext, int):
                        raise ValueError("unresolved operand %r" % (operand.ext,))
                    out += to_u32(operand.ext).to_bytes(4, "little")
                elif operand.mode == M_FIMM:
                    out += struct.pack("<d", float(operand.ext))
        insn.size = len(out)
        return bytes(out)

    def decode(self, mem, address: int) -> Insn:
        byte = mem.read_u8(address)
        entry = _OPTABLE.get(byte)
        if entry is None:
            raise TargetFault(SIGILL, code=byte, address=address)
        name, argc, _flt = entry
        insn = Insn(name)
        pos = address + 1
        if name in _BRANCH_OPS:
            disp = mem.read_u16(pos)
            insn.imm = disp - (1 << 16) if disp >= 1 << 15 else disp
            pos += 2
        elif name == "call":
            insn.target = mem.read_u32(pos)
            pos += 4
        elif name == "syscall":
            insn.imm = mem.read_u16(pos)
            pos += 2
        else:
            operands: List[Operand] = []
            for _ in range(argc):
                spec = mem.read_u8(pos)
                pos += 1
                mode, reg = spec >> 4, spec & 15
                operand = Operand(mode, reg)
                if mode == M_DISP8:
                    raw = mem.read_u8(pos)
                    operand.ext = raw - 256 if raw >= 128 else raw
                    pos += 1
                elif mode in (M_DISP32, M_ABS):
                    operand.ext = mem.read_u32(pos)
                    if mode == M_DISP32 and operand.ext >= 1 << 31:
                        operand.ext -= 1 << 32
                    pos += 4
                elif mode == M_IMM:
                    operand.ext = mem.read_u32(pos)
                    pos += 4
                elif mode == M_FIMM:
                    operand.ext = struct.unpack(
                        "<d", mem.read_bytes(pos, 8))[0]
                    pos += 8
                elif mode not in (M_REG, M_DEFER):
                    raise TargetFault(SIGILL, code=spec, address=address)
                operands.append(operand)
            insn.imm = operands
        insn.size = pos - address
        return insn

    def insn_length(self, insn: Insn) -> int:
        op = insn.op
        if op in _BRANCH_OPS or op == "syscall":
            return 3
        if op == "call":
            return 5
        if op in ("halt", "nop", "bpt", "ret"):
            return 1
        return 1 + sum(o.length() for o in insn.imm or ())

    # -- block dispatch ----------------------------------------------------

    block_enders = _BRANCH_OPS | frozenset(
        ["halt", "bpt", "syscall", "ret", "call", "callr"])

    #: result-operand index per opcode; ops without an entry (and not
    #: handled explicitly in :meth:`may_write_mem`) never store
    _DST_INDEX = dict(
        [(name, 1) for name in ("movl", "movb", "movw", "movzbl", "movzwl",
                                "moval", "cvtld", "cvtdl", "movd", "movf",
                                "negd")]
        + [(name, 2) for name in ("addl3", "subl3", "mull3", "divl3",
                                  "reml3", "divul3", "remul3", "andl3",
                                  "orl3", "xorl3", "ashl", "lshr",
                                  "addd3", "subd3", "muld3", "divd3")]
        + [(name, 0) for name in ("seql", "sneq", "slss", "sleq", "sgtr",
                                  "sgeq", "slssu", "sgtru", "slequ",
                                  "sgequ", "popl")])

    def may_write_mem(self, insn: Insn) -> bool:
        """Byte-granular targets store through operand specifiers, so
        writer-ness depends on the decoded addressing mode, not just
        the opcode: a register destination writes no memory."""
        op = insn.op
        if op in ("pushl", "call", "callr", "syscall"):
            return True  # stack pushes (syscall kept conservative)
        index = self._DST_INDEX.get(op)
        if index is None:
            return False  # branches, compares, ret, nop, halt, bpt
        ops = insn.imm if isinstance(insn.imm, list) else []
        if index >= len(ops):
            return True  # malformed: stay conservative
        return ops[index].mode != M_REG

    def compile_insn(self, insn: Insn, pc: int):
        """Prebuilt execute bodies with pre-resolved operand
        specifiers; float and byte/word-move ops fall back to
        :meth:`execute`."""
        op = insn.op
        M = 0xFFFFFFFF
        npc = (pc + insn.size) & M
        ops: List[Operand] = insn.imm if isinstance(insn.imm, list) else []

        if op == "nop":
            def body(cpu):
                cpu.pc = npc
            return body
        if op == "halt":
            from .isa import Halt

            def body(cpu):
                raise Halt(cpu.get_reg(REG_RETVAL))
            return body
        if op == "bpt":
            def body(cpu):
                raise TargetFault(SIGTRAP, code=0, address=pc)
            return body
        if op == "syscall":
            code = insn.imm or 0

            def body(cpu):
                cpu.syscall(code)
                cpu.pc = npc
            return body

        if op in _BRANCH_OPS:
            taken = (pc + insn.size + insn.imm) & M
            if op == "brb":
                def body(cpu):
                    cpu.pc = taken
            else:
                test = _VAX_CC_FUNCS[op]

                def body(cpu):
                    cpu.pc = taken if test(cpu) else npc
            return body

        if op == "movl":
            read0 = _c_read(ops[0])
            write1 = _c_write(ops[1])
            if read0 is None or write1 is None:
                return None

            def body(cpu):
                write1(cpu, read0(cpu))
                cpu.pc = npc
            return body

        if op == "movzbl" or op == "movzwl":
            size = 1 if op == "movzbl" else 2
            read0 = _c_read(ops[0], size)
            write1 = _c_write(ops[1])
            if read0 is None or write1 is None:
                return None

            def body(cpu):
                write1(cpu, read0(cpu))
                cpu.pc = npc
            return body

        if op == "moval":
            addr0 = _c_addr(ops[0])
            write1 = _c_write(ops[1])
            if addr0 is None or write1 is None:
                return None

            def body(cpu):
                write1(cpu, addr0(cpu))
                cpu.pc = npc
            return body

        if op in _FAST_ALU3:
            read0 = _c_read(ops[0])
            read1 = _c_read(ops[1])
            write2 = _c_write(ops[2])
            if read0 is None or read1 is None or write2 is None:
                return None
            if op == "addl3":
                def compute(a, b):
                    return a + b
            elif op == "subl3":
                def compute(a, b):
                    return b - a  # VAX order: dst = min - sub
            elif op == "mull3":
                def compute(a, b):
                    return to_i32(a) * to_i32(b)
            elif op == "andl3":
                def compute(a, b):
                    return a & b
            elif op == "orl3":
                def compute(a, b):
                    return a | b
            elif op == "xorl3":
                def compute(a, b):
                    return a ^ b
            elif op == "ashl":
                def compute(a, b):
                    count = to_i32(a)
                    return (to_i32(b) << count) if count >= 0 \
                        else (to_i32(b) >> -count)
            elif op == "lshr":
                def compute(a, b):
                    return to_u32(b) >> (to_i32(a) & 31)
            elif op in ("divl3", "reml3"):
                signed_rem = op == "reml3"

                def compute(a, b):
                    divisor = to_i32(a)
                    if divisor == 0:
                        raise TargetFault(SIGFPE, code=0, address=pc)
                    dividend = to_i32(b)
                    quotient = abs(dividend) // abs(divisor)
                    if (dividend < 0) != (divisor < 0):
                        quotient = -quotient
                    if signed_rem:
                        return dividend - quotient * divisor
                    return quotient
            else:  # divul3 / remul3
                unsigned_rem = op == "remul3"

                def compute(a, b):
                    divisor = to_u32(a)
                    if divisor == 0:
                        raise TargetFault(SIGFPE, code=0, address=pc)
                    dividend = to_u32(b)
                    if unsigned_rem:
                        return dividend % divisor
                    return dividend // divisor

            def body(cpu):
                write2(cpu, compute(read0(cpu), read1(cpu)))
                cpu.pc = npc
            return body

        if op == "cmpl":
            read0 = _c_read(ops[0])
            read1 = _c_read(ops[1])
            if read0 is None or read1 is None:
                return None

            def body(cpu):
                cpu.set_cc(read0(cpu) & M, read1(cpu) & M)
                cpu.pc = npc
            return body

        if op in _SCC_OPS:
            write0 = _c_write(ops[0])
            if write0 is None:
                return None
            test = _VAX_SCC_FUNCS[op]

            def body(cpu):
                write0(cpu, 1 if test(cpu) else 0)
                cpu.pc = npc
            return body

        if op == "pushl":
            read0 = _c_read(ops[0])
            if read0 is None:
                return None

            def body(cpu):
                regs = cpu.regs
                sp = (regs[REG_SP] - 4) & M
                regs[REG_SP] = sp
                # execute reads the operand after the sp update
                # (argument-evaluation order); keep that
                cpu.mem.write_u32(sp, read0(cpu))
                cpu.pc = npc
            return body
        if op == "popl":
            write0 = _c_write(ops[0])
            if write0 is None:
                return None

            def body(cpu):
                regs = cpu.regs
                sp = regs[REG_SP]
                write0(cpu, cpu.mem.read_u32(sp))
                regs[REG_SP] = (sp + 4) & M
                cpu.pc = npc
            return body

        if op == "call":
            target = insn.target & M

            def body(cpu):
                regs = cpu.regs
                sp = (regs[REG_SP] - 4) & M
                regs[REG_SP] = sp
                cpu.mem.write_u32(sp, npc)
                cpu.pc = target
            return body
        if op == "callr":
            read0 = _c_read(ops[0])
            if read0 is None:
                return None

            def body(cpu):
                target = read0(cpu)  # execute reads before the sp update
                regs = cpu.regs
                sp = (regs[REG_SP] - 4) & M
                regs[REG_SP] = sp
                cpu.mem.write_u32(sp, npc)
                cpu.pc = target & M
            return body
        if op == "ret":
            def body(cpu):
                regs = cpu.regs
                sp = regs[REG_SP]
                target = cpu.mem.read_u32(sp)
                regs[REG_SP] = (sp + 4) & M
                cpu.pc = target
            return body

        return None  # movb/movw, floats: the generic execute path

    # -- operand evaluation -------------------------------------------------

    def _address_of(self, cpu, operand: Operand) -> int:
        if operand.mode == M_DEFER:
            return cpu.get_reg(operand.reg)
        if operand.mode in (M_DISP8, M_DISP32):
            return to_u32(cpu.get_reg(operand.reg) + operand.ext)
        if operand.mode == M_ABS:
            return to_u32(operand.ext)
        raise TargetFault(SIGILL, code=operand.mode, address=cpu.pc)

    def _read(self, cpu, operand: Operand, size: int = 4, signed: bool = False) -> int:
        if operand.mode == M_REG:
            value = cpu.get_reg(operand.reg)
            if size < 4:
                value &= (1 << (size * 8)) - 1
            if signed and value >= 1 << (size * 8 - 1):
                value -= 1 << (size * 8)
            return value
        if operand.mode == M_IMM:
            return operand.ext
        address = self._address_of(cpu, operand)
        if signed:
            return cpu.mem.read_int(address, size)
        return cpu.mem.read_uint(address, size)

    def _write(self, cpu, operand: Operand, value: int, size: int = 4) -> None:
        if operand.mode == M_REG:
            cpu.set_reg(operand.reg, value & 0xFFFFFFFF)
            return
        if operand.mode in (M_IMM, M_FIMM):
            raise TargetFault(SIGILL, code=operand.mode, address=cpu.pc)
        cpu.mem.write_int(self._address_of(cpu, operand), size, value)

    def _read_f(self, cpu, operand: Operand, size: int = 8) -> float:
        if operand.mode == M_REG:
            return cpu.fregs[operand.reg & (self.nfregs - 1)]
        if operand.mode == M_FIMM:
            return operand.ext
        address = self._address_of(cpu, operand)
        return cpu.mem.read_f32(address) if size == 4 else cpu.mem.read_f64(address)

    def _write_f(self, cpu, operand: Operand, value: float, size: int = 8) -> None:
        if operand.mode == M_REG:
            cpu.fregs[operand.reg & (self.nfregs - 1)] = value
            return
        address = self._address_of(cpu, operand)
        if size == 4:
            cpu.mem.write_f32(address, value)
        else:
            cpu.mem.write_f64(address, value)

    # -- execution ---------------------------------------------------------

    def execute(self, cpu, insn: Insn) -> None:
        op = insn.op
        next_pc = cpu.pc + insn.size
        mem = cpu.mem
        ops: List[Operand] = insn.imm if isinstance(insn.imm, list) else []
        if op == "nop":
            pass
        elif op == "halt":
            from .isa import Halt
            raise Halt(cpu.get_reg(REG_RETVAL))
        elif op == "bpt":
            raise TargetFault(SIGTRAP, code=0, address=cpu.pc)
        elif op == "syscall":
            cpu.syscall(insn.imm or 0)
        elif op == "movl":
            self._write(cpu, ops[1], self._read(cpu, ops[0]))
        elif op == "movb":
            self._write(cpu, ops[1],
                        self._read(cpu, ops[0], 1, signed=True)
                        if ops[1].mode == M_REG
                        else self._read(cpu, ops[0], 1), size=1 if ops[1].mode != M_REG else 4)
        elif op == "movw":
            self._write(cpu, ops[1],
                        self._read(cpu, ops[0], 2, signed=True)
                        if ops[1].mode == M_REG
                        else self._read(cpu, ops[0], 2), size=2 if ops[1].mode != M_REG else 4)
        elif op == "movzbl":
            self._write(cpu, ops[1], self._read(cpu, ops[0], 1))
        elif op == "movzwl":
            self._write(cpu, ops[1], self._read(cpu, ops[0], 2))
        elif op == "moval":
            self._write(cpu, ops[1], self._address_of(cpu, ops[0]))
        elif op in ("addl3", "subl3", "mull3", "divl3", "reml3",
                    "divul3", "remul3",
                    "andl3", "orl3", "xorl3", "ashl", "lshr"):
            a = self._read(cpu, ops[0])
            b = self._read(cpu, ops[1])
            if op == "addl3":
                result = a + b
            elif op == "subl3":
                result = b - a  # VAX order: subl3 sub, min, dst = min - sub
            elif op == "mull3":
                result = to_i32(a) * to_i32(b)
            elif op in ("divul3", "remul3"):
                divisor = to_u32(a)
                if divisor == 0:
                    raise TargetFault(SIGFPE, code=0, address=cpu.pc)
                dividend = to_u32(b)
                result = dividend // divisor if op == "divul3" else dividend % divisor
            elif op in ("divl3", "reml3"):
                divisor = to_i32(a)
                if divisor == 0:
                    raise TargetFault(SIGFPE, code=0, address=cpu.pc)
                dividend = to_i32(b)
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                result = quotient if op == "divl3" else dividend - quotient * divisor
            elif op == "andl3":
                result = a & b
            elif op == "orl3":
                result = a | b
            elif op == "xorl3":
                result = a ^ b
            elif op == "ashl":
                count = to_i32(a)
                result = (to_i32(b) << count) if count >= 0 else (to_i32(b) >> -count)
            else:  # lshr
                result = to_u32(b) >> (to_i32(a) & 31)
            self._write(cpu, ops[2], result)
        elif op == "cmpl":
            cpu.set_cc(to_u32(self._read(cpu, ops[0])), to_u32(self._read(cpu, ops[1])))
        elif op == "cmpd":
            a = self._read_f(cpu, ops[0])
            b = self._read_f(cpu, ops[1])
            cpu.cc_lt = a < b
            cpu.cc_eq = a == b
            cpu.cc_ltu = a < b
        elif op in _BRANCH_OPS:
            if op == "brb" or _vax_cc_test(cpu, op):
                next_pc = cpu.pc + insn.size + insn.imm
        elif op in ("seql", "sneq", "slss", "sleq", "sgtr", "sgeq", "slssu",
                    "sgtru", "slequ", "sgequ"):
            self._write(cpu, ops[0], int(_vax_scc_test(cpu, op)))
        elif op == "pushl":
            sp = to_u32(cpu.get_reg(REG_SP) - 4)
            cpu.set_reg(REG_SP, sp)
            mem.write_u32(sp, self._read(cpu, ops[0]))
        elif op == "popl":
            sp = cpu.get_reg(REG_SP)
            self._write(cpu, ops[0], mem.read_u32(sp))
            cpu.set_reg(REG_SP, sp + 4)
        elif op == "call":
            sp = to_u32(cpu.get_reg(REG_SP) - 4)
            cpu.set_reg(REG_SP, sp)
            mem.write_u32(sp, cpu.pc + insn.size)
            next_pc = insn.target
        elif op == "callr":
            target = self._read(cpu, ops[0])
            sp = to_u32(cpu.get_reg(REG_SP) - 4)
            cpu.set_reg(REG_SP, sp)
            mem.write_u32(sp, cpu.pc + insn.size)
            next_pc = target
        elif op == "ret":
            sp = cpu.get_reg(REG_SP)
            next_pc = mem.read_u32(sp)
            cpu.set_reg(REG_SP, sp + 4)
        elif op == "movd":
            self._write_f(cpu, ops[1], self._read_f(cpu, ops[0]))
        elif op == "movf":
            self._write_f(cpu, ops[1], self._read_f(cpu, ops[0], 4), 4)
        elif op in ("addd3", "subd3", "muld3", "divd3"):
            a = self._read_f(cpu, ops[0])
            b = self._read_f(cpu, ops[1])
            if op == "addd3":
                result = a + b
            elif op == "subd3":
                result = b - a
            elif op == "muld3":
                result = a * b
            else:
                if a == 0.0:
                    raise TargetFault(SIGFPE, code=1, address=cpu.pc)
                result = b / a
            self._write_f(cpu, ops[2], result)
        elif op == "negd":
            self._write_f(cpu, ops[1], -self._read_f(cpu, ops[0]))
        elif op == "cvtld":
            self._write_f(cpu, ops[1], float(to_i32(self._read(cpu, ops[0]))))
        elif op == "cvtdl":
            self._write(cpu, ops[1], int(math.trunc(self._read_f(cpu, ops[0]))))
        else:  # pragma: no cover
            raise TargetFault(SIGILL, address=cpu.pc)
        cpu.pc = to_u32(next_pc)


def _vax_cc_test(cpu, op: str) -> bool:
    return {
        "bneq": not cpu.cc_eq,
        "beql": cpu.cc_eq,
        "bgtr": not (cpu.cc_lt or cpu.cc_eq),
        "bleq": cpu.cc_lt or cpu.cc_eq,
        "bgeq": not cpu.cc_lt,
        "blss": cpu.cc_lt,
        "bgtru": not (cpu.cc_ltu or cpu.cc_eq),
        "blequ": cpu.cc_ltu or cpu.cc_eq,
        "bgequ": not cpu.cc_ltu,
        "blssu": cpu.cc_ltu,
    }[op]


def _vax_scc_test(cpu, op: str) -> bool:
    return {
        "seql": cpu.cc_eq,
        "sneq": not cpu.cc_eq,
        "slss": cpu.cc_lt,
        "sleq": cpu.cc_lt or cpu.cc_eq,
        "sgtr": not (cpu.cc_lt or cpu.cc_eq),
        "sgeq": not cpu.cc_lt,
        "slssu": cpu.cc_ltu,
        "sgtru": not (cpu.cc_ltu or cpu.cc_eq),
        "slequ": cpu.cc_ltu or cpu.cc_eq,
        "sgequ": not cpu.cc_ltu,
    }[op]
