"""The rsparc target: the SPARC analog.

Big-endian, fixed 32-bit instructions, *with* a frame pointer — so it
shares the machine-independent linker interface with rm68k and rvax
(paper Sec. 4.3).  Its context is delivered wholesale by the simulated
operating system, which is why its nub has almost no machine-dependent
code (the paper: "there is no other machine-dependent dirt").

Instruction formats::

    A-type:  op(8) rd(5) rs1(5) i(1) simm13/rs2(13)
    S-type:  op(8) rd(5) imm19(19)      # sethi
    J-type:  op(8) target24(24)         # call, word address
"""

from __future__ import annotations

import math

from .isa import (
    Arch,
    Fragment,
    Insn,
    SIGFPE,
    SIGILL,
    SIGTRAP,
    TargetFault,
    to_i32,
    to_u32,
)
from .memory import load_source, store_source

_OPS = {
    "nop": 0, "break": 1, "syscall": 2,
    "sethi": 3,   # S-type: rd = imm19 << 13
    "add": 4, "sub": 5, "smul": 6, "sdiv": 7, "srem": 8,
    "and": 9, "or": 10, "xor": 11,
    "sll": 12, "srl": 13, "sra": 14,
    "slt": 15, "sltu": 16, "seq": 17, "sne": 18,
    "ld": 19, "ldsb": 20, "ldub": 21, "ldsh": 22, "lduh": 23,
    "st": 24, "stb": 25, "sth": 26,
    "beq": 27, "bne": 28, "blez": 29, "bgtz": 30, "bltz": 31, "bgez": 32,
    "call": 33,   # J-type; return address in r15
    "jmpl": 34,   # jump to register (i=0, rs2) -- also the return
    "callr": 35,  # call through register
    "ldf": 36, "lddf": 37, "stf": 38, "stdf": 39,
    "fadd": 40, "fsub": 41, "fmul": 42, "fdiv": 43,
    "fitod": 44, "fdtoi": 45,
    "fslt": 46, "fsle": 47, "fseq": 48,
    "fneg": 49, "fmov": 50,
    "udiv": 51, "urem": 52,
}
_OP_NAMES = {number: name for name, number in _OPS.items()}

_BRANCHES = frozenset(["beq", "bne", "blez", "bgtz", "bltz", "bgez"])
_MEM_OPS = frozenset(["ld", "ldsb", "ldub", "ldsh", "lduh", "st", "stb", "sth",
                      "ldf", "lddf", "stf", "stdf"])

REG_ZERO = 0
REG_RETVAL = 8    # o0
REG_SP = 14
REG_RA = 15       # o7
REG_FP = 30
ARG_REGS = (8, 9, 10, 11, 12, 13)
TEMP_REGS = tuple(range(16, 24))  # l0..l7, caller-trashed here
FTEMP_REGS = tuple(range(2, 8))
FRET_REG = 0


# -- fragments: each op's execute semantics as block-engine source ------------
#
# Registers hold unsigned 32-bit values, so ``to_i32`` of one is a sign-bit
# flip, and the low word of a product is the same signed or unsigned.

_SIGNED_RS = "((regs[{rs}] ^ 0x80000000) - 0x80000000)"

#: ALU op -> (immediate form, register form, the immediate's value from
#: the masked simm13); ``B`` stands for the second operand
_ALU = {}
for _op, _value, _imm in (
        ("add", "(regs[{rs}] + B) & 0xFFFFFFFF", None),
        ("sub", "(regs[{rs}] - B) & 0xFFFFFFFF", None),
        ("smul", "(regs[{rs}] * B) & 0xFFFFFFFF", None),
        ("and", "(regs[{rs}] & B) & 0xFFFFFFFF", None),
        ("or", "(regs[{rs}] | B) & 0xFFFFFFFF", None),
        ("xor", "(regs[{rs}] ^ B) & 0xFFFFFFFF", None),
        ("sll", "(regs[{rs}] << (B & 31)) & 0xFFFFFFFF", None),
        ("srl", "regs[{rs}] >> (B & 31)", None),
        ("sra", "(%s >> (B & 31)) & 0xFFFFFFFF" % _SIGNED_RS, None),
        ("slt", "1 if %s < B else 0" % _SIGNED_RS, to_i32),
        ("sltu", "1 if regs[{rs}] < B else 0", to_u32),
        ("seq", "1 if regs[{rs}] == B else 0", to_u32),
        ("sne", "1 if regs[{rs}] != B else 0", to_u32)):
    _register = _value.replace("B", "regs[{rt}]")
    if _op == "slt":
        _register = ("1 if (regs[{rs}] ^ 0x80000000) < "
                     "(regs[{rt}] ^ 0x80000000) else 0")
    _ALU[_op] = (
        Fragment(_op + " imm", "regs[{rd}] = " + _value.replace("B", "{b}"),
                 ("rd", "rs", "b")),
        Fragment(_op, "regs[{rd}] = " + _register, ("rd", "rs", "rt")),
        _imm or (lambda b: b))

_NOP = Fragment("nop", "")


def _memory(insn, pc):
    return insn.rd, insn.rs, insn.imm or 0


_ADDRESS = "a = (regs[{rs}] + {disp}) & 0xFFFFFFFF"
_FRAGMENTS = {}
#: op -> its form with g0 as the destination, whose write vanishes: a
#: load still reads (and may fault)
_ZERO_FORMS = {"sethi": Fragment("sethi g0", "", ("rd", "val"))}
for _op, _size, _signed in (("ld", 4, False), ("ldsb", 1, True),
                            ("ldub", 1, False), ("ldsh", 2, True),
                            ("lduh", 2, False)):
    _check, _value = load_source("a", _size, _signed)
    if _signed:
        _value += " & 0xFFFFFFFF"
    _FRAGMENTS[_op] = (Fragment(
        _op, [_ADDRESS, _check, "regs[{rd}] = " + _value],
        ("rd", "rs", "disp")), _memory)
    _ZERO_FORMS[_op] = Fragment(_op + " g0", [_ADDRESS, _check],
                                ("rd", "rs", "disp"))
for _op, _size in (("st", 4), ("stb", 1), ("sth", 2)):
    _FRAGMENTS[_op] = (Fragment(
        _op, [_ADDRESS] + store_source("a", _size, "regs[{rd}]"),
        ("rd", "rs", "disp")), _memory)

# control transfers
for _op, _test in (
        ("beq", "regs[{rd}] == regs[{rs}]"),
        ("bne", "regs[{rd}] != regs[{rs}]"),
        ("blez", "regs[{rd}] == 0 or regs[{rd}] >= 0x80000000"),
        ("bgtz", "0 < regs[{rd}] < 0x80000000"),
        ("bltz", "regs[{rd}] >= 0x80000000"),
        ("bgez", "regs[{rd}] < 0x80000000")):
    _FRAGMENTS[_op] = (Fragment(
        _op, "cpu.pc = {taken} if %s else {npc}" % _test,
        ("rd", "rs", "taken"), jumps=True),
        lambda insn, pc: (insn.rd, insn.rs,
                          (pc + 4 + ((insn.imm or 0) << 2)) & 0xFFFFFFFF))

_FRAGMENTS.update({
    "nop": (_NOP, lambda insn, pc: ()),
    "break": (Fragment(
        "break", "raise TargetFault(SIGTRAP, code=0, address={pc})",
        jumps=True), lambda insn, pc: ()),
    "syscall": (Fragment("syscall", "cpu.syscall({code})", ("code",),
                         calls=True),
                lambda insn, pc: (insn.imm or 0,)),
    "sethi": (Fragment("sethi", "regs[{rd}] = {val}", ("rd", "val")),
              lambda insn, pc: (insn.rd,
                                ((insn.imm & 0x7FFFF) << 13) & 0xFFFFFFFF)),
    "call": (Fragment("call", ["regs[%d] = {npc}" % REG_RA,
                               "cpu.pc = {target}"],
                      ("target",), jumps=True),
             lambda insn, pc: (insn.target & 0xFFFFFFFF,)),
    "callr": (Fragment("callr", ["regs[%d] = {npc}" % REG_RA,
                                 "cpu.pc = regs[{rs}]"],
                       ("rs",), jumps=True),
              lambda insn, pc: (insn.rs,)),
    "jmpl": (Fragment("jmpl", "cpu.pc = (regs[{rs}] + {disp}) & 0xFFFFFFFF",
                      ("rs", "disp"), jumps=True),
             lambda insn, pc: (insn.rs, insn.imm or 0)),
})


class RSparcArch(Arch):
    name = "rsparc"
    byteorder = "big"
    insn_align = 4
    nregs = 32
    nfregs = 8
    zero_reg = True
    sp = REG_SP
    fp = REG_FP
    ra = REG_RA
    arg_regs = ARG_REGS
    ret_reg = REG_RETVAL
    reg_names = tuple(
        ["g%d" % i for i in range(8)]
        + ["o0", "o1", "o2", "o3", "o4", "o5", "sp", "o7"]
        + ["l%d" % i for i in range(8)]
        + ["i0", "i1", "i2", "i3", "i4", "i5", "fp", "i7"])

    def __init__(self):
        self.nop_bytes = (0).to_bytes(4, self.byteorder)
        self.break_bytes = (_OPS["break"] << 24).to_bytes(4, self.byteorder)

    # -- encoding ---------------------------------------------------------

    def encode(self, insn: Insn) -> bytes:
        op = insn.op
        number = _OPS[op]
        if op in ("call",):
            target = insn.target
            if not isinstance(target, int):
                raise ValueError("unresolved target %r" % (target,))
            word = (number << 24) | ((target >> 2) & 0x00FFFFFF)
        elif op == "sethi":
            imm = insn.imm
            if not isinstance(imm, int):
                raise ValueError("unresolved sethi immediate %r" % (imm,))
            word = (number << 24) | ((insn.rd or 0) << 19) | (imm & 0x7FFFF)
        elif insn.imm is not None:
            imm = insn.imm
            if not isinstance(imm, int):
                raise ValueError("unresolved immediate %r in %r" % (imm, insn))
            if not -(1 << 12) <= imm < (1 << 12):
                raise ValueError("simm13 %d out of range" % imm)
            word = ((number << 24) | ((insn.rd or 0) << 19)
                    | ((insn.rs or 0) << 14) | (1 << 13) | (imm & 0x1FFF))
        else:
            word = ((number << 24) | ((insn.rd or 0) << 19)
                    | ((insn.rs or 0) << 14) | ((insn.rt or 0) & 0x1FFF))
        insn.size = 4
        return word.to_bytes(4, self.byteorder)

    def decode(self, mem, address: int) -> Insn:
        word = mem.read_uint(address, 4)
        number = word >> 24
        name = _OP_NAMES.get(number)
        if name is None:
            raise TargetFault(SIGILL, code=number, address=address)
        if name == "call":
            insn = Insn(name, target=(word & 0x00FFFFFF) << 2)
        elif name == "sethi":
            insn = Insn(name, rd=(word >> 19) & 31, imm=word & 0x7FFFF)
        elif (word >> 13) & 1:
            simm = word & 0x1FFF
            if simm >= 1 << 12:
                simm -= 1 << 13
            insn = Insn(name, rd=(word >> 19) & 31, rs=(word >> 14) & 31, imm=simm)
        else:
            insn = Insn(name, rd=(word >> 19) & 31, rs=(word >> 14) & 31,
                        rt=word & 0x1FFF)
        insn.size = 4
        return insn

    def insn_length(self, insn: Insn) -> int:
        return 4

    # -- block dispatch ----------------------------------------------------

    block_enders = frozenset([
        "break", "syscall",
        "beq", "bne", "blez", "bgtz", "bltz", "bgez",
        "call", "callr", "jmpl",
    ])

    def compile_insn(self, insn: Insn, pc: int):
        """The op's fragment (see :data:`_FRAGMENTS`) and its operands;
        float and division ops fall back to :meth:`execute`."""
        op = insn.op
        if op in _ALU:
            if insn.rd == 0:  # the hardwired zero register: the write vanishes
                return _NOP, ()
            if insn.imm is None:
                return _ALU[op][1], (insn.rd, insn.rs, insn.rt)
            # _operand: a positive immediate is masked, a negative one
            # stays a negative python int (set_reg masks the result)
            b = insn.imm & 0xFFFFFFFF if insn.imm >= 0 else insn.imm
            return _ALU[op][0], (insn.rd, insn.rs, _ALU[op][2](b))
        entry = _FRAGMENTS.get(op)
        if entry is None:
            return None
        frag, operands = entry
        if insn.rd == 0 and op in _ZERO_FORMS:
            frag = _ZERO_FORMS[op]
        return frag, operands(insn, pc)

    # -- execution ---------------------------------------------------------

    def _operand(self, cpu, insn: Insn) -> int:
        """The second ALU operand: rs2 or simm13."""
        if insn.imm is not None:
            return insn.imm & 0xFFFFFFFF if insn.imm >= 0 else insn.imm
        return cpu.get_reg(insn.rt)

    def execute(self, cpu, insn: Insn) -> None:
        op = insn.op
        next_pc = cpu.pc + 4
        R = cpu.get_reg
        if op == "nop":
            pass
        elif op == "break":
            raise TargetFault(SIGTRAP, code=0, address=cpu.pc)
        elif op == "syscall":
            cpu.syscall(insn.imm or 0)
        elif op == "sethi":
            cpu.set_reg(insn.rd, (insn.imm & 0x7FFFF) << 13)
        elif op in ("add", "sub", "smul", "sdiv", "srem", "udiv", "urem",
                    "and", "or", "xor",
                    "sll", "srl", "sra", "slt", "sltu", "seq", "sne"):
            a = R(insn.rs)
            b = self._operand(cpu, insn)
            if op == "add":
                result = a + b
            elif op == "sub":
                result = a - b
            elif op == "smul":
                result = to_i32(a) * to_i32(b)
            elif op in ("udiv", "urem"):
                divisor = to_u32(b)
                if divisor == 0:
                    raise TargetFault(SIGFPE, code=0, address=cpu.pc)
                if op == "udiv":
                    result = to_u32(a) // divisor
                else:
                    result = to_u32(a) % divisor
            elif op in ("sdiv", "srem"):
                divisor = to_i32(b)
                if divisor == 0:
                    raise TargetFault(SIGFPE, code=0, address=cpu.pc)
                dividend = to_i32(a)
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                if op == "sdiv":
                    result = quotient
                else:
                    result = dividend - quotient * divisor
            elif op == "and":
                result = a & b
            elif op == "or":
                result = a | b
            elif op == "xor":
                result = a ^ b
            elif op == "sll":
                result = a << (b & 31)
            elif op == "srl":
                result = (a & 0xFFFFFFFF) >> (b & 31)
            elif op == "sra":
                result = to_i32(a) >> (b & 31)
            elif op == "slt":
                result = int(to_i32(a) < to_i32(b))
            elif op == "sltu":
                result = int(to_u32(a) < to_u32(b))
            elif op == "seq":
                result = int(to_u32(a) == to_u32(b))
            else:  # sne
                result = int(to_u32(a) != to_u32(b))
            cpu.set_reg(insn.rd, result)
        elif op in _MEM_OPS:
            address = to_u32(R(insn.rs) + (insn.imm or 0))
            if op == "ld":
                cpu.set_reg(insn.rd, cpu.mem.read_u32(address))
            elif op == "ldsb":
                cpu.set_reg(insn.rd, cpu.mem.read_i8(address))
            elif op == "ldub":
                cpu.set_reg(insn.rd, cpu.mem.read_u8(address))
            elif op == "ldsh":
                cpu.set_reg(insn.rd, cpu.mem.read_i16(address))
            elif op == "lduh":
                cpu.set_reg(insn.rd, cpu.mem.read_u16(address))
            elif op == "st":
                cpu.mem.write_u32(address, R(insn.rd))
            elif op == "stb":
                cpu.mem.write_u8(address, R(insn.rd) & 0xFF)
            elif op == "sth":
                cpu.mem.write_u16(address, R(insn.rd) & 0xFFFF)
            elif op == "ldf":
                cpu.fregs[insn.rd] = cpu.mem.read_f32(address)
            elif op == "lddf":
                cpu.fregs[insn.rd] = cpu.mem.read_f64(address)
            elif op == "stf":
                cpu.mem.write_f32(address, cpu.fregs[insn.rd])
            else:  # stdf
                cpu.mem.write_f64(address, cpu.fregs[insn.rd])
        elif op in _BRANCHES:
            # branches compare rd against rs (beq/bne) or against zero;
            # the word displacement travels in simm13.
            value = to_i32(R(insn.rd))
            if op == "beq":
                taken = to_u32(R(insn.rd)) == to_u32(R(insn.rs))
            elif op == "bne":
                taken = to_u32(R(insn.rd)) != to_u32(R(insn.rs))
            elif op == "blez":
                taken = value <= 0
            elif op == "bgtz":
                taken = value > 0
            elif op == "bltz":
                taken = value < 0
            else:  # bgez
                taken = value >= 0
            if taken:
                next_pc = cpu.pc + 4 + ((insn.imm or 0) << 2)
        elif op == "call":
            cpu.set_reg(REG_RA, cpu.pc + 4)
            next_pc = insn.target
        elif op == "callr":
            cpu.set_reg(REG_RA, cpu.pc + 4)
            next_pc = R(insn.rs)
        elif op == "jmpl":
            next_pc = R(insn.rs) + (insn.imm or 0)
        elif op == "fadd":
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs] + cpu.fregs[insn.rt]
        elif op == "fsub":
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs] - cpu.fregs[insn.rt]
        elif op == "fmul":
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs] * cpu.fregs[insn.rt]
        elif op == "fdiv":
            if cpu.fregs[insn.rt] == 0.0:
                raise TargetFault(SIGFPE, code=1, address=cpu.pc)
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs] / cpu.fregs[insn.rt]
        elif op == "fitod":
            cpu.fregs[insn.rd] = float(to_i32(R(insn.rs)))
        elif op == "fdtoi":
            cpu.set_reg(insn.rd, int(math.trunc(cpu.fregs[insn.rs])))
        elif op == "fslt":
            cpu.set_reg(insn.rd, int(cpu.fregs[insn.rs] < cpu.fregs[insn.rt]))
        elif op == "fsle":
            cpu.set_reg(insn.rd, int(cpu.fregs[insn.rs] <= cpu.fregs[insn.rt]))
        elif op == "fseq":
            cpu.set_reg(insn.rd, int(cpu.fregs[insn.rs] == cpu.fregs[insn.rt]))
        elif op == "fneg":
            cpu.fregs[insn.rd] = -cpu.fregs[insn.rs]
        elif op == "fmov":
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs]
        else:  # pragma: no cover
            raise TargetFault(SIGILL, address=cpu.pc)
        cpu.pc = to_u32(next_pc)
