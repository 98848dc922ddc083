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
    CC_TESTS,
    Fragment,
    Insn,
    SIGFPE,
    SIGILL,
    SIGTRAP,
    TargetFault,
    to_i32,
    to_u32,
    set_cc_source,
)
from .memory import load_source, store_source

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


# -- fragments: each op's execute semantics as block-engine source ------------
#
# An operand specifier's mode decides its source, and its register and
# extension are the fragment's parameters ``r<j>`` and ``x<j>``, so an op
# gets one fragment per combination of operand classes: register, deferred,
# offset (either displacement), immediate, absolute, float immediate.  The
# lines replicate ``_address_of``/``_read``/``_write`` exactly (rvax has no
# zero register and no load delay, so a register write is a plain masked
# store).  A combination the fragments do not handle — among them every
# mode ``execute`` faults on — makes no fragment, which sends that
# instruction to ``execute`` so the fault (and its address) stays the same.
# Operand values are unsigned 32-bit, so ``to_i32`` of one is a sign-bit
# flip and the low word of a product is the same signed or unsigned.

_CLASS = {M_REG: "r", M_DEFER: "d", M_DISP8: "o", M_DISP32: "o",
          M_IMM: "i", M_ABS: "a", M_FIMM: "f"}

#: an operand's parameters by class: each one's name and its value
_FIELDS = {
    "r": (("r", lambda opnd: opnd.reg),),
    "d": (("r", lambda opnd: opnd.reg),),
    "o": (("r", lambda opnd: opnd.reg), ("x", lambda opnd: opnd.ext)),
    "i": (("x", lambda opnd: opnd.ext),),
    "a": (("x", lambda opnd: to_u32(opnd.ext)),),
    "f": (),
}


def _params(classes) -> tuple:
    return tuple("%s%d" % (name, j) for j, cls in enumerate(classes)
                 for name, _value in _FIELDS[cls])


def _address(j: int, cls: str):
    """Source of ``_address_of`` for operand ``j``; None: no address."""
    if cls == "d":
        return "regs[{r%d}]" % j
    if cls == "o":
        return "(regs[{r%d}] + {x%d}) & 0xFFFFFFFF" % (j, j)
    if cls == "a":
        return "{x%d}" % j
    return None


def _read(j: int, cls: str, dest: str, size: int = 4):
    """Lines setting ``dest`` to the unsigned ``_read`` of operand
    ``j``; None: not handled."""
    if cls == "r":
        mask = "" if size == 4 else " & 0x%X" % ((1 << (size * 8)) - 1)
        return ["%s = regs[{r%d}]%s" % (dest, j, mask)]
    if cls == "i":
        return ["%s = {x%d}" % (dest, j)]  # the raw immediate at any size
    address = _address(j, cls)
    if address is None:
        return None
    check, value = load_source("a%d" % j, size)
    return ["a%d = %s" % (j, address), check, "%s = %s" % (dest, value)]


def _write(j: int, cls: str, value: str):
    """Lines of a longword ``_write`` of ``value`` (a name) to operand
    ``j``; None: not handled (``execute`` raises SIGILL for an
    immediate)."""
    if cls == "r":
        return ["regs[{r%d}] = %s & 0xFFFFFFFF" % (j, value)]
    address = _address(j, cls)
    if address is None:
        return None
    return ["a%d = %s" % (j, address)] + store_source("a%d" % j, 4, value)


_SIGFPE = ["    raise TargetFault(SIGFPE, code=0, address={pc})"]
#: three-operand ALU: ``v`` from ``a`` (operand 0) and ``b`` (operand 1)
_ALU3 = {
    "addl3": ["v = a + b"],
    "subl3": ["v = b - a"],  # VAX order: dst = min - sub
    "mull3": ["v = a * b"],
    "andl3": ["v = a & b"],
    "orl3": ["v = a | b"],
    "xorl3": ["v = a ^ b"],
    "ashl": ["c = to_i32(a)",
             "v = to_i32(b) << c if c >= 0 else to_i32(b) >> -c"],
    "lshr": ["v = b >> (a & 31)"],
    "divl3": ["d = to_i32(a)", "if not d:"] + _SIGFPE + [
        "e = to_i32(b)", "v = abs(e) // abs(d)",
        "if (e < 0) != (d < 0):", "    v = -v"],
    "reml3": ["d = to_i32(a)", "if not d:"] + _SIGFPE + [
        "e = to_i32(b)", "q = abs(e) // abs(d)",
        "if (e < 0) != (d < 0):", "    q = -q", "v = e - q * d"],
    "divul3": ["if not a:"] + _SIGFPE + ["v = b // a"],
    "remul3": ["if not a:"] + _SIGFPE + ["v = b % a"],
}

_BRANCH_CONDS = {"bneq": "ne", "beql": "eq", "bgtr": "gt", "bleq": "le",
                 "bgeq": "ge", "blss": "lt", "bgtru": "gtu", "blequ": "leu",
                 "bgequ": "geu", "blssu": "ltu"}
_SCC_CONDS = {"seql": "eq", "sneq": "ne", "slss": "lt", "sleq": "le",
              "sgtr": "gt", "sgeq": "ge", "slssu": "ltu", "sgtru": "gtu",
              "slequ": "leu", "sgequ": "geu"}

_SP = "regs[%d]" % REG_SP
_PUSH = ["sp = (%s - 4) & 0xFFFFFFFF" % _SP, "%s = sp" % _SP]


def _move(size: int):
    return lambda c: [_read(0, c[0], "v", size), _write(1, c[1], "v")]


def _moval(c):
    address = _address(0, c[0])
    return [address and ["v = " + address], _write(1, c[1], "v")]


def _alu3(compute):
    return lambda c: [_read(0, c[0], "a"), _read(1, c[1], "b"), compute,
                      _write(2, c[2], "v")]


def _scc(test):
    return lambda c: [["v = 1 if %s else 0" % test], _write(0, c[0], "v")]


def _popl(c):
    check, value = load_source("sp", 4)
    return [["sp = " + _SP, check, "v = " + value], _write(0, c[0], "v"),
            ["%s = (sp + 4) & 0xFFFFFFFF" % _SP]]


#: op -> the parts of its source over operands of the given classes; a
#: part that is None (an operand the fragments do not handle) sends the
#: instruction to ``execute``
_OPERAND_SOURCES = {
    "movl": _move(4),
    "movzbl": _move(1),
    "movzwl": _move(2),
    "moval": _moval,
    "cmpl": lambda c: [_read(0, c[0], "a"), _read(1, c[1], "b"),
                       set_cc_source("a", "b")],
    # execute reads the operand after the sp update (argument-evaluation
    # order); keep that
    "pushl": lambda c: [_PUSH, _read(0, c[0], "v"),
                        store_source("sp", 4, "v")],
    "popl": _popl,
    # execute reads the target before the sp update
    "callr": lambda c: [_read(0, c[0], "t"), _PUSH,
                        store_source("sp", 4, "{npc}"),
                        ["cpu.pc = t & 0xFFFFFFFF"]],
}
_OPERAND_SOURCES.update((op, _alu3(compute)) for op, compute in _ALU3.items())
_OPERAND_SOURCES.update((op, _scc(CC_TESTS[cond]))
                        for op, cond in _SCC_CONDS.items())


#: (op, operand classes) -> its fragment, or None for ``execute``
_BUILT = {}


def _operand_fragment(op: str, classes: tuple):
    try:
        return _BUILT[op, classes]
    except KeyError:
        pass
    source = _OPERAND_SOURCES.get(op)
    parts = source(classes) if source is not None else [None]
    frag = None
    if None not in parts:
        frag = Fragment("%s %s" % (op, "".join(classes)),
                        [line for part in parts for line in part],
                        _params(classes), jumps=op == "callr")
    # two threads that build one kind at once agree on the first object
    return _BUILT.setdefault((op, classes), frag)


def _taken(insn, pc):
    return ((pc + insn.size + insn.imm) & 0xFFFFFFFF,)


def _no_operands(insn, pc):
    return ()


_check, _value = load_source("sp", 4)
#: ops without operand specifiers -> (fragment, operand values)
_FIXED = {
    "nop": (Fragment("nop", ""), _no_operands),
    "halt": (Fragment("halt", "raise Halt(regs[%d])" % REG_RETVAL,
                      jumps=True), _no_operands),
    "bpt": (Fragment("bpt", "raise TargetFault(SIGTRAP, code=0, "
                            "address={pc})", jumps=True), _no_operands),
    "syscall": (Fragment("syscall", "cpu.syscall({code})", ("code",),
                         calls=True),
                lambda insn, pc: (insn.imm or 0,)),
    "brb": (Fragment("brb", "cpu.pc = {taken}", ("taken",), jumps=True),
            _taken),
    "call": (Fragment("call", _PUSH + store_source("sp", 4, "{npc}")
                      + ["cpu.pc = {target}"], ("target",), jumps=True),
             lambda insn, pc: (insn.target & 0xFFFFFFFF,)),
    "ret": (Fragment("ret", ["sp = " + _SP, _check, "t = " + _value,
                             "%s = (sp + 4) & 0xFFFFFFFF" % _SP,
                             "cpu.pc = t"], jumps=True), _no_operands),
}
for _op, _cond in _BRANCH_CONDS.items():
    _FIXED[_op] = (Fragment(_op, "cpu.pc = {taken} if %s else {npc}"
                            % CC_TESTS[_cond], ("taken",), jumps=True),
                   _taken)


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

    def compile_insn(self, insn: Insn, pc: int):
        """The op's fragment for its operand classes and the operands'
        values; float and byte/word-move ops fall back to
        :meth:`execute`."""
        fixed = _FIXED.get(insn.op)
        if fixed is not None:
            return fixed[0], fixed[1](insn, pc)
        ops: List[Operand] = insn.imm if isinstance(insn.imm, list) else []
        classes = tuple([_CLASS[opnd.mode] for opnd in ops])
        frag = _operand_fragment(insn.op, classes)
        if frag is None:
            return None
        return frag, tuple([value(opnd) for opnd, cls in zip(ops, classes)
                            for _name, value in _FIELDS[cls]])

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
