"""The rmips target: the MIPS R3000 analog.

Properties that matter to the debugger (and mirror the paper's MIPS):

* fixed 32-bit instructions, big-endian by default (a little-endian
  variant exists so the register memory's byte-order independence can be
  exercised — the paper debugs both MIPS byte orders with the same code);
* **no frame pointer** — lcc addresses locals off a *virtual frame
  pointer* (vfp = sp + frame size), and the debugger must learn frame
  sizes from the runtime procedure table (paper Sec. 4.1, 4.3);
* a load delay slot: an integer load's result is unavailable to the next
  instruction, so the assembler must schedule or pad (Sec. 3).

Instruction formats::

    I-type:  op(6) rd(5) rs(5) imm(16)
    R-type:  op(6) rd(5) rs(5) rt(5) zero(11)
    J-type:  op(6) target(26)          # absolute word address
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
    to_i16,
    to_i32,
    to_u32,
)
from .memory import load_source, store_source

# Opcode assignments.  I/R/J below indicates the format.
_OPS = {
    "nop": 0,      # R (the all-zero word)
    "break": 1,    # I (code in imm)
    "syscall": 2,  # I (code in imm)
    "lui": 3,      # I
    "ori": 4,      # I (unsigned imm)
    "addi": 5,     # I
    "add": 6, "sub": 7, "mul": 8, "div": 9, "rem": 10,        # R
    "and": 11, "or": 12, "xor": 13, "nor": 14,                # R
    "sll": 15, "srl": 16, "sra": 17,                          # R
    "slli": 18, "srli": 19, "srai": 20,                       # I
    "slt": 21, "sltu": 22, "seq": 23, "sne": 24,              # R
    "lw": 25, "lh": 26, "lhu": 27, "lb": 28, "lbu": 29,       # I
    "sw": 30, "sh": 31, "sb": 32,                             # I
    "beq": 33, "bne": 34,                                     # I
    "blez": 35, "bgtz": 36, "bltz": 37, "bgez": 38,           # I
    "j": 39, "jal": 40,                                       # J
    "jr": 41, "jalr": 42,                                     # R
    "lwc1": 43, "swc1": 44, "ldc1": 45, "sdc1": 46,           # I (fd in rd)
    "fadd": 47, "fsub": 48, "fmul": 49, "fdiv": 50,           # R (f regs)
    "cvtdw": 51,  # R: fd = (double) rs
    "cvtwd": 52,  # R: rd = (int) fs
    "fslt": 53, "fsle": 54, "fseq": 55,                       # R: rd = fs OP ft
    "negd": 56, "movd": 57,
    "divu": 58, "remu": 59,                                   # R
}
_OP_NAMES = {number: name for name, number in _OPS.items()}

_J_OPS = frozenset(["j", "jal"])
_I_OPS = frozenset([
    "break", "syscall", "lui", "ori", "addi", "slli", "srli", "srai",
    "lw", "lh", "lhu", "lb", "lbu", "sw", "sh", "sb",
    "beq", "bne", "blez", "bgtz", "bltz", "bgez",
    "lwc1", "swc1", "ldc1", "sdc1",
])
_LOADS = ("lw", "lh", "lhu", "lb", "lbu")

REG_ZERO = 0
REG_AT = 1       # assembler temporary
REG_RETVAL = 2   # v0
REG_ARG0 = 4     # a0..a3 = r4..r7
REG_SP = 29
REG_RA = 31
TEMP_REGS = tuple(range(8, 16))      # caller-trashed evaluation registers
SAVED_REGS = tuple(range(16, 24))    # callee-saved (register variables)
FTEMP_REGS = tuple(range(2, 8))
FRET_REG = 0


# -- fragments: each op's execute semantics as block-engine source ------------
#
# Registers hold unsigned 32-bit values, so ``to_i32`` of one is a sign-bit
# flip, and the low word of a product is the same signed or unsigned.


def _signed(field: str) -> str:
    return "((regs[{%s}] ^ 0x80000000) - 0x80000000)" % field


def _alu(op, value, fields, check=(), compute=()):
    """``rd = value``, and its zero-register variant, which keeps only
    ``check`` (the div fault)."""
    return (Fragment(op, list(check) + list(compute)
                     + ["regs[{rd}] = " + value], ("rd",) + fields,
                     wrote="{rd}"),
            Fragment(op + " r0", list(check), fields))


_RR = ("rs", "rt")
_SIGNED_DIVISOR = ["b = " + _signed("rt"), "if not b:",
                   "    raise TargetFault(SIGFPE, code=0, address={pc})"]
_DIVISOR = ["if not regs[{rt}]:",
            "    raise TargetFault(SIGFPE, code=0, address={pc})"]


def _rr(insn, pc):
    return insn.rs, insn.rt


_FRAGMENTS = {}
for _op, _value in (
        ("add", "(regs[{rs}] + regs[{rt}]) & 0xFFFFFFFF"),
        ("sub", "(regs[{rs}] - regs[{rt}]) & 0xFFFFFFFF"),
        ("mul", "(regs[{rs}] * regs[{rt}]) & 0xFFFFFFFF"),
        ("and", "regs[{rs}] & regs[{rt}]"),
        ("or", "regs[{rs}] | regs[{rt}]"),
        ("xor", "regs[{rs}] ^ regs[{rt}]"),
        ("nor", "~(regs[{rs}] | regs[{rt}]) & 0xFFFFFFFF"),
        ("sll", "(regs[{rs}] << (regs[{rt}] & 31)) & 0xFFFFFFFF"),
        ("srl", "regs[{rs}] >> (regs[{rt}] & 31)"),
        ("sra", "(%s >> (regs[{rt}] & 31)) & 0xFFFFFFFF" % _signed("rs")),
        ("slt", "1 if (regs[{rs}] ^ 0x80000000) < "
                "(regs[{rt}] ^ 0x80000000) else 0"),
        ("sltu", "1 if regs[{rs}] < regs[{rt}] else 0"),
        ("seq", "1 if regs[{rs}] == regs[{rt}] else 0"),
        ("sne", "1 if regs[{rs}] != regs[{rt}] else 0")):
    _FRAGMENTS[_op] = _alu(_op, _value, _RR) + (_rr,)
_FRAGMENTS["div"] = _alu(
    "div", "(-q if (a < 0) != (b < 0) else q) & 0xFFFFFFFF", _RR,
    _SIGNED_DIVISOR, ["a = " + _signed("rs"), "q = abs(a) // abs(b)"]) + (_rr,)
_FRAGMENTS["rem"] = _alu(
    "rem", "(-r if a < 0 else r) & 0xFFFFFFFF", _RR,
    _SIGNED_DIVISOR, ["a = " + _signed("rs"), "r = abs(a) % abs(b)"]) + (_rr,)
_FRAGMENTS["divu"] = _alu("divu", "regs[{rs}] // regs[{rt}]", _RR,
                          _DIVISOR) + (_rr,)
_FRAGMENTS["remu"] = _alu("remu", "regs[{rs}] % regs[{rt}]", _RR,
                          _DIVISOR) + (_rr,)
_FRAGMENTS["lui"] = _alu("lui", "{val}", ("val",)) + (
    lambda insn, pc: ((insn.imm & 0xFFFF) << 16,),)
_FRAGMENTS["ori"] = _alu("ori", "regs[{rs}] | {iv}", ("rs", "iv")) + (
    lambda insn, pc: (insn.rs, insn.imm & 0xFFFF),)
_FRAGMENTS["addi"] = _alu(
    "addi", "(regs[{rs}] + {imm}) & 0xFFFFFFFF", ("rs", "imm")) + (
    lambda insn, pc: (insn.rs, insn.imm),)
for _op, _value in (
        ("slli", "(regs[{rs}] << {sh}) & 0xFFFFFFFF"),
        ("srli", "regs[{rs}] >> {sh}"),
        ("srai", "(%s >> {sh}) & 0xFFFFFFFF" % _signed("rs"))):
    _FRAGMENTS[_op] = _alu(_op, _value, ("rs", "sh")) + (
        lambda insn, pc: (insn.rs, insn.imm & 31),)


def _memory(insn, pc):
    return insn.rd, insn.rs, insn.imm


_ADDRESS = "a = (regs[{rs}] + {imm}) & 0xFFFFFFFF"
# loads: the result lands in the delay slot
for _op, _size, _signed_load in (("lw", 4, False), ("lh", 2, True),
                                 ("lhu", 2, False), ("lb", 1, True),
                                 ("lbu", 1, False)):
    _check, _value = load_source("a", _size, _signed_load)
    if _signed_load:
        _value += " & 0xFFFFFFFF"
    _FRAGMENTS[_op] = (Fragment(
        _op, [_ADDRESS, _check, "cpu._pending_load = ({rd}, %s)" % _value],
        ("rd", "rs", "imm"), loads=True), None, _memory)
for _op, _size in (("sw", 4), ("sh", 2), ("sb", 1)):
    _FRAGMENTS[_op] = (Fragment(
        _op, [_ADDRESS] + store_source("a", _size, "regs[{rd}]"),
        ("rd", "rs", "imm")), None, _memory)

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
        ("rd", "rs", "taken"), jumps=True), None,
        lambda insn, pc: (insn.rd, insn.rs,
                          (pc + 4 + (insn.imm << 2)) & 0xFFFFFFFF))


def _target(insn, pc):
    return (insn.target & 0xFFFFFFFF,)


def _rs(insn, pc):
    return (insn.rs,)


def _code(insn, pc):
    return (insn.imm or 0,)


_FRAGMENTS.update({
    "nop": (Fragment("nop", ""), None, lambda insn, pc: ()),
    "break": (Fragment(
        "break", "raise TargetFault(SIGTRAP, code={code}, address={pc})",
        ("code",), jumps=True), None, _code),
    "syscall": (Fragment("syscall", "cpu.syscall({code})", ("code",),
                         calls=True), None, _code),
    "j": (Fragment("j", "cpu.pc = {target}", ("target",), jumps=True),
          None, _target),
    "jal": (Fragment("jal", ["regs[%d] = {npc}" % REG_RA,
                             "cpu.pc = {target}"],
                     ("target",), jumps=True, wrote=str(REG_RA)),
            None, _target),
    "jr": (Fragment("jr", "cpu.pc = regs[{rs}]", ("rs",), jumps=True),
           None, _rs),
    # execute writes ra before reading rs: jalr through ra jumps to the
    # *new* value; keep that order
    "jalr": (Fragment("jalr", ["regs[%d] = {npc}" % REG_RA,
                              "cpu.pc = regs[{rs}]"],
                      ("rs",), jumps=True, wrote=str(REG_RA)), None, _rs),
})


class RMipsArch(Arch):
    """The big-endian rmips description."""

    name = "rmips"
    byteorder = "big"
    insn_align = 4
    nregs = 32
    nfregs = 16
    zero_reg = True
    has_load_delay = True
    sp = REG_SP
    fp = None  # the whole point: no frame pointer
    ra = REG_RA
    arg_regs = (4, 5, 6, 7)
    ret_reg = REG_RETVAL
    has_runtime_proc_table = True
    reg_names = tuple(
        ["r%d" % i for i in range(29)] + ["sp", "r30", "ra"])

    def __init__(self):
        nop = self._encode_word(0)
        brk = self._encode_word(_OPS["break"] << 26)
        self.nop_bytes = nop
        self.break_bytes = brk

    # -- encoding ---------------------------------------------------------

    def _encode_word(self, word: int) -> bytes:
        return word.to_bytes(4, self.byteorder)

    def encode(self, insn: Insn) -> bytes:
        op = insn.op
        number = _OPS[op]
        if op in _J_OPS:
            target = insn.target
            if not isinstance(target, int):
                raise ValueError("unresolved target %r in %r" % (target, insn))
            word = (number << 26) | ((target >> 2) & 0x03FFFFFF)
        elif op in _I_OPS:
            imm = insn.imm or 0
            if not isinstance(imm, int):
                raise ValueError("unresolved immediate %r in %r" % (imm, insn))
            if not -(1 << 15) <= imm < (1 << 16):
                raise ValueError("immediate %d out of range in %r" % (imm, insn))
            word = ((number << 26)
                    | ((insn.rd or 0) << 21)
                    | ((insn.rs or 0) << 16)
                    | (imm & 0xFFFF))
        else:  # R-type
            word = ((number << 26)
                    | ((insn.rd or 0) << 21)
                    | ((insn.rs or 0) << 16)
                    | ((insn.rt or 0) << 11))
        insn.size = 4
        return self._encode_word(word)

    def decode(self, mem, address: int) -> Insn:
        word = mem.read_uint(address, 4)
        number = word >> 26
        name = _OP_NAMES.get(number)
        if name is None:
            raise TargetFault(SIGILL, code=number, address=address)
        if name in _J_OPS:
            insn = Insn(name, target=(word & 0x03FFFFFF) << 2)
        elif name in _I_OPS:
            insn = Insn(name,
                        rd=(word >> 21) & 31,
                        rs=(word >> 16) & 31,
                        imm=to_i16(word & 0xFFFF))
            if name == "ori":
                insn.imm = word & 0xFFFF
        else:
            insn = Insn(name,
                        rd=(word >> 21) & 31,
                        rs=(word >> 16) & 31,
                        rt=(word >> 11) & 31)
        insn.size = 4
        return insn

    def insn_length(self, insn: Insn) -> int:
        return 4

    # -- block dispatch ----------------------------------------------------

    block_enders = frozenset([
        "break", "syscall",
        "beq", "bne", "blez", "bgtz", "bltz", "bgez",
        "j", "jal", "jr", "jalr",
    ])

    def compile_insn(self, insn: Insn, pc: int):
        """The op's fragment (see :data:`_FRAGMENTS`) and its operands;
        float and conversion ops fall back to :meth:`execute`."""
        entry = _FRAGMENTS.get(insn.op)
        if entry is None:
            return None
        frag, zero_frag, operands = entry
        values = operands(insn, pc)
        if zero_frag is None:
            return frag, values
        # the hardwired zero register: side effects (the div fault
        # check) still happen, the write vanishes and _wrote_reg stays
        # clear, exactly like set_reg
        if insn.rd == 0:
            return zero_frag, values
        return frag, (insn.rd,) + values

    # -- execution ---------------------------------------------------------

    def execute(self, cpu, insn: Insn) -> None:
        op = insn.op
        next_pc = cpu.pc + 4
        R = cpu.get_reg
        if op == "nop":
            pass
        elif op == "break":
            raise TargetFault(SIGTRAP, code=insn.imm or 0, address=cpu.pc)
        elif op == "syscall":
            cpu.syscall(insn.imm or 0)
        elif op == "lui":
            cpu.set_reg(insn.rd, (insn.imm & 0xFFFF) << 16)
        elif op == "ori":
            cpu.set_reg(insn.rd, R(insn.rs) | (insn.imm & 0xFFFF))
        elif op == "addi":
            cpu.set_reg(insn.rd, R(insn.rs) + insn.imm)
        elif op == "add":
            cpu.set_reg(insn.rd, R(insn.rs) + R(insn.rt))
        elif op == "sub":
            cpu.set_reg(insn.rd, R(insn.rs) - R(insn.rt))
        elif op == "mul":
            cpu.set_reg(insn.rd, to_i32(R(insn.rs)) * to_i32(R(insn.rt)))
        elif op == "div":
            divisor = to_i32(R(insn.rt))
            if divisor == 0:
                raise TargetFault(SIGFPE, code=0, address=cpu.pc)
            cpu.set_reg(insn.rd, _tdiv(to_i32(R(insn.rs)), divisor))
        elif op == "rem":
            divisor = to_i32(R(insn.rt))
            if divisor == 0:
                raise TargetFault(SIGFPE, code=0, address=cpu.pc)
            cpu.set_reg(insn.rd, _trem(to_i32(R(insn.rs)), divisor))
        elif op == "divu":
            if R(insn.rt) == 0:
                raise TargetFault(SIGFPE, code=0, address=cpu.pc)
            cpu.set_reg(insn.rd, R(insn.rs) // R(insn.rt))
        elif op == "remu":
            if R(insn.rt) == 0:
                raise TargetFault(SIGFPE, code=0, address=cpu.pc)
            cpu.set_reg(insn.rd, R(insn.rs) % R(insn.rt))
        elif op == "and":
            cpu.set_reg(insn.rd, R(insn.rs) & R(insn.rt))
        elif op == "or":
            cpu.set_reg(insn.rd, R(insn.rs) | R(insn.rt))
        elif op == "xor":
            cpu.set_reg(insn.rd, R(insn.rs) ^ R(insn.rt))
        elif op == "nor":
            cpu.set_reg(insn.rd, ~(R(insn.rs) | R(insn.rt)))
        elif op == "sll":
            cpu.set_reg(insn.rd, R(insn.rs) << (R(insn.rt) & 31))
        elif op == "srl":
            cpu.set_reg(insn.rd, R(insn.rs) >> (R(insn.rt) & 31))
        elif op == "sra":
            cpu.set_reg(insn.rd, to_i32(R(insn.rs)) >> (R(insn.rt) & 31))
        elif op == "slli":
            cpu.set_reg(insn.rd, R(insn.rs) << (insn.imm & 31))
        elif op == "srli":
            cpu.set_reg(insn.rd, R(insn.rs) >> (insn.imm & 31))
        elif op == "srai":
            cpu.set_reg(insn.rd, to_i32(R(insn.rs)) >> (insn.imm & 31))
        elif op == "slt":
            cpu.set_reg(insn.rd, int(to_i32(R(insn.rs)) < to_i32(R(insn.rt))))
        elif op == "sltu":
            cpu.set_reg(insn.rd, int(R(insn.rs) < R(insn.rt)))
        elif op == "seq":
            cpu.set_reg(insn.rd, int(R(insn.rs) == R(insn.rt)))
        elif op == "sne":
            cpu.set_reg(insn.rd, int(R(insn.rs) != R(insn.rt)))
        elif op in _LOADS:
            address = to_u32(R(insn.rs) + insn.imm)
            if op == "lw":
                value = cpu.mem.read_u32(address)
            elif op == "lh":
                value = cpu.mem.read_i16(address)
            elif op == "lhu":
                value = cpu.mem.read_u16(address)
            elif op == "lb":
                value = cpu.mem.read_i8(address)
            else:
                value = cpu.mem.read_u8(address)
            cpu.defer_load(insn.rd, value)  # load delay slot
        elif op == "sw":
            cpu.mem.write_u32(to_u32(R(insn.rs) + insn.imm), R(insn.rd))
        elif op == "sh":
            cpu.mem.write_u16(to_u32(R(insn.rs) + insn.imm), R(insn.rd) & 0xFFFF)
        elif op == "sb":
            cpu.mem.write_u8(to_u32(R(insn.rs) + insn.imm), R(insn.rd) & 0xFF)
        elif op == "beq":
            if R(insn.rd) == R(insn.rs):
                next_pc = cpu.pc + 4 + (insn.imm << 2)
        elif op == "bne":
            if R(insn.rd) != R(insn.rs):
                next_pc = cpu.pc + 4 + (insn.imm << 2)
        elif op == "blez":
            if to_i32(R(insn.rd)) <= 0:
                next_pc = cpu.pc + 4 + (insn.imm << 2)
        elif op == "bgtz":
            if to_i32(R(insn.rd)) > 0:
                next_pc = cpu.pc + 4 + (insn.imm << 2)
        elif op == "bltz":
            if to_i32(R(insn.rd)) < 0:
                next_pc = cpu.pc + 4 + (insn.imm << 2)
        elif op == "bgez":
            if to_i32(R(insn.rd)) >= 0:
                next_pc = cpu.pc + 4 + (insn.imm << 2)
        elif op == "j":
            next_pc = insn.target
        elif op == "jal":
            cpu.set_reg(REG_RA, cpu.pc + 4)
            next_pc = insn.target
        elif op == "jr":
            next_pc = R(insn.rs)
        elif op == "jalr":
            cpu.set_reg(REG_RA, cpu.pc + 4)
            next_pc = R(insn.rs)
        elif op == "lwc1":
            cpu.fregs[insn.rd] = cpu.mem.read_f32(to_u32(R(insn.rs) + insn.imm))
        elif op == "ldc1":
            cpu.fregs[insn.rd] = cpu.mem.read_f64(to_u32(R(insn.rs) + insn.imm))
        elif op == "swc1":
            cpu.mem.write_f32(to_u32(R(insn.rs) + insn.imm), cpu.fregs[insn.rd])
        elif op == "sdc1":
            cpu.mem.write_f64(to_u32(R(insn.rs) + insn.imm), cpu.fregs[insn.rd])
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
        elif op == "cvtdw":
            cpu.fregs[insn.rd] = float(to_i32(R(insn.rs)))
        elif op == "cvtwd":
            cpu.set_reg(insn.rd, int(math.trunc(cpu.fregs[insn.rs])))
        elif op == "fslt":
            cpu.set_reg(insn.rd, int(cpu.fregs[insn.rs] < cpu.fregs[insn.rt]))
        elif op == "fsle":
            cpu.set_reg(insn.rd, int(cpu.fregs[insn.rs] <= cpu.fregs[insn.rt]))
        elif op == "fseq":
            cpu.set_reg(insn.rd, int(cpu.fregs[insn.rs] == cpu.fregs[insn.rt]))
        elif op == "negd":
            cpu.fregs[insn.rd] = -cpu.fregs[insn.rs]
        elif op == "movd":
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs]
        else:  # pragma: no cover - decode rejects unknown opcodes
            raise TargetFault(SIGILL, address=cpu.pc)
        cpu.pc = to_u32(next_pc)


class RMipsELArch(RMipsArch):
    """The little-endian rmips variant.

    Identical ISA; only byte order differs.  The paper stresses that the
    register memory lets ldb run the same code on little- and big-endian
    MIPS (Sec. 4.1) — this variant exists to test exactly that.
    """

    name = "rmipsel"
    byteorder = "little"


def _tdiv(a: int, b: int) -> int:
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _trem(a: int, b: int) -> int:
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder
