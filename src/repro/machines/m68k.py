"""The rm68k target: the Motorola 68020 analog.

Big-endian, variable-length instructions built from 16-bit words, a frame
pointer (a6) with LINK/UNLK, condition codes, and — the property that
drives the paper's machine-dependent code — **80-bit extended floats**
that the nub must fetch and store specially (Sec. 4.3).  The compiler
adds register-save masks to procedure symbol-table entries for this
target (Sec. 5); the stack-walking code reads them.

Encoding: the first word is ``op(8) r1(4) r2(4)``; extension words carry
16-bit displacements or 32-bit immediates (high word first).  The real
68k encodings of ``NOP`` (0x4E71) and ``BKPT`` (0x4848) are kept.
"""

from __future__ import annotations

import math

from .isa import (
    Arch,
    CC_TESTS,
    Fragment,
    Insn,
    SIGFPE,
    SIGILL,
    SIGTRAP,
    TargetFault,
    to_i16,
    to_i32,
    to_u32,
    set_cc_source,
)
from .memory import load_source, store_source

NOP_WORD = 0x4E71
BKPT_WORD = 0x4848

# op byte -> (name, extension descriptor)
# extensions: "" none, "d" disp16, "i" imm32, "w" imm16, "f" imm64(float)
_OPTABLE = {
    0x01: ("movei", "i"),
    0x02: ("move", ""),
    0x03: ("lea", "d"),
    0x04: ("load32", "d"),
    0x05: ("load16s", "d"),
    0x06: ("load8s", "d"),
    0x07: ("load8u", "d"),
    0x08: ("load16u", "d"),
    0x09: ("store32", "d"),
    0x0A: ("store16", "d"),
    0x0B: ("store8", "d"),
    0x10: ("add", ""),
    0x11: ("sub", ""),
    0x12: ("muls", ""),
    0x13: ("divs", ""),
    0x14: ("rems", ""),
    0x15: ("and", ""),
    0x16: ("or", ""),
    0x17: ("eor", ""),
    0x18: ("lsl", ""),
    0x19: ("lsr", ""),
    0x1A: ("asr", ""),
    0x1B: ("not", ""),
    0x1C: ("neg", ""),
    0x1D: ("divu", ""),
    0x1E: ("remu", ""),
    0x1F: ("tst", ""),
    0x20: ("cmp", ""),
    0x22: ("bra", "d"),
    0x23: ("beq", "d"),
    0x24: ("bne", "d"),
    0x25: ("blt", "d"),
    0x26: ("ble", "d"),
    0x27: ("bgt", "d"),
    0x28: ("bge", "d"),
    0x29: ("bltu", "d"),
    0x2A: ("bleu", "d"),
    0x2B: ("bgtu", "d"),
    0x2C: ("bgeu", "d"),
    0x2D: ("seq", ""),
    0x2E: ("sne", ""),
    0x2F: ("slt", ""),
    0x30: ("sle", ""),
    0x31: ("sgt", ""),
    0x32: ("sge", ""),
    0x33: ("sltu", ""),
    0x34: ("sgtu", ""),
    0x35: ("sleu", ""),
    0x36: ("sgeu", ""),
    0x37: ("push", ""),
    0x38: ("pop", ""),
    0x39: ("link", "d"),
    0x3A: ("unlk", ""),
    0x3B: ("jsr", "i"),
    0x3C: ("rts", ""),
    0x3D: ("jsrr", ""),
    0x40: ("syscall", "w"),
    0x41: ("lsli", "w"),
    0x42: ("lsri", "w"),
    0x43: ("asri", "w"),
    0x50: ("fmove", ""),
    0x52: ("fload32", "d"),
    0x53: ("fload64", "d"),
    0x54: ("fload80", "d"),
    0x55: ("fstore32", "d"),
    0x56: ("fstore64", "d"),
    0x57: ("fstore80", "d"),
    0x58: ("fadd", ""),
    0x59: ("fsub", ""),
    0x5A: ("fmul", ""),
    0x5B: ("fdiv", ""),
    0x5C: ("fneg", ""),
    0x5D: ("fitod", ""),
    0x5E: ("fdtoi", ""),
    0x5F: ("fcmp", ""),
    0x60: ("fmovei", "f"),
}
_OPS = {name: (byte, ext) for byte, (name, ext) in _OPTABLE.items()}

REG_SP = 15  # a7
REG_FP = 14  # a6
REG_RETVAL = 0  # d0
DATA_REGS = tuple(range(0, 8))
ADDR_REGS = tuple(range(8, 16))
TEMP_REGS = (1, 2, 3)            # d1-d3: caller-trashed evaluation regs
SAVED_REGS = (4, 5, 6, 7)        # d4-d7: callee-saved (register variables)
ADDR_TEMP = 8                    # a0: address scratch
FTEMP_REGS = (1, 2, 3)
FRET_REG = 0


# -- fragments: each op's execute semantics as block-engine source ------------
#
# Registers hold unsigned 32-bit values, so ``to_i32`` of one is a sign-bit
# flip, and the low word of a product is the same signed or unsigned.

_SP = "regs[%d]" % REG_SP
_FP = "regs[%d]" % REG_FP


def _rd_rs(insn, pc):
    return insn.rd, insn.rs


def _taken(insn, pc):
    return ((pc + insn.size + insn.imm) & 0xFFFFFFFF,)


_FRAGMENTS = {
    "nop": (Fragment("nop", ""), lambda insn, pc: ()),
    "break": (Fragment(
        "break", "raise TargetFault(SIGTRAP, code=0, address={pc})",
        jumps=True), lambda insn, pc: ()),
    "syscall": (Fragment("syscall", "cpu.syscall({code})", ("code",),
                         calls=True),
                lambda insn, pc: (insn.imm or 0,)),
    "movei": (Fragment("movei", "regs[{rd}] = {val}", ("rd", "val")),
              lambda insn, pc: (insn.rd, insn.imm & 0xFFFFFFFF)),
    "move": (Fragment("move", "regs[{rd}] = regs[{rs}]", ("rd", "rs")),
             _rd_rs),
    "lea": (Fragment("lea", "regs[{rd}] = (regs[{rs}] + {imm}) & 0xFFFFFFFF",
                     ("rd", "rs", "imm")),
            lambda insn, pc: (insn.rd, insn.rs, insn.imm)),
    "not": (Fragment("not", "regs[{rd}] = ~regs[{rd}] & 0xFFFFFFFF",
                     ("rd",)), lambda insn, pc: (insn.rd,)),
    "neg": (Fragment("neg", "regs[{rd}] = -regs[{rd}] & 0xFFFFFFFF",
                     ("rd",)), lambda insn, pc: (insn.rd,)),
    "cmp": (Fragment("cmp", ["a = regs[{rd}]", "b = regs[{rs}]"]
                     + set_cc_source("a", "b"), ("rd", "rs")), _rd_rs),
    "tst": (Fragment("tst", ["a = regs[{rd}]"] + set_cc_source("a", "0"),
                     ("rd",)), lambda insn, pc: (insn.rd,)),
    "bra": (Fragment("bra", "cpu.pc = {taken}", ("taken",), jumps=True),
            _taken),
    # -- stack and calls ---------------------------------------------------
    "push": (Fragment("push", ["sp = (%s - 4) & 0xFFFFFFFF" % _SP,
                               "%s = sp" % _SP]
                      + store_source("sp", 4, "regs[{rs}]"),
                      ("rs",)),
             lambda insn, pc: (insn.rs,)),
    "link": (Fragment("link", ["sp = (%s - 4) & 0xFFFFFFFF" % _SP]
                      + store_source("sp", 4, _FP)
                      + ["%s = sp" % _FP,
                         "%s = (sp - {frame}) & 0xFFFFFFFF" % _SP],
                      ("frame",)),
             lambda insn, pc: (insn.imm or 0,)),
    "jsr": (Fragment("jsr", ["sp = (%s - 4) & 0xFFFFFFFF" % _SP,
                             "%s = sp" % _SP]
                     + store_source("sp", 4, "{npc}")
                     + ["cpu.pc = {target}"],
                     ("target",), jumps=True),
            lambda insn, pc: (insn.target & 0xFFFFFFFF,)),
    "jsrr": (Fragment("jsrr", ["sp = (%s - 4) & 0xFFFFFFFF" % _SP,
                               "%s = sp" % _SP]
                      + store_source("sp", 4, "{npc}")
                      + ["cpu.pc = regs[{rs}]"],
                      ("rs",), jumps=True),
             lambda insn, pc: (insn.rs,)),
}
_check, _value = load_source("sp", 4)
_FRAGMENTS["pop"] = (Fragment(
    "pop", ["sp = " + _SP, _check, "regs[{rd}] = " + _value,
            "%s = (sp + 4) & 0xFFFFFFFF" % _SP], ("rd",)),
    lambda insn, pc: (insn.rd,))
_FRAGMENTS["rts"] = (Fragment(
    "rts", ["sp = " + _SP, _check, "t = " + _value,
            "%s = (sp + 4) & 0xFFFFFFFF" % _SP, "cpu.pc = t"],
    jumps=True), lambda insn, pc: ())
_check, _value = load_source("fp", 4)
_FRAGMENTS["unlk"] = (Fragment(
    "unlk", ["fp = " + _FP, "%s = (fp + 4) & 0xFFFFFFFF" % _SP, _check,
             "%s = %s" % (_FP, _value)]), lambda insn, pc: ())

# -- loads and stores: a displacement off a register ------------------------
_ADDRESS = "a = (regs[{base}] + {imm}) & 0xFFFFFFFF"
for _op, _size, _signed in (("load32", 4, False), ("load16s", 2, True),
                            ("load16u", 2, False), ("load8s", 1, True),
                            ("load8u", 1, False)):
    _check, _value = load_source("a", _size, _signed)
    if _signed:
        _value += " & 0xFFFFFFFF"
    _FRAGMENTS[_op] = (Fragment(
        _op, [_ADDRESS, _check, "regs[{rd}] = " + _value],
        ("rd", "base", "imm")),
        lambda insn, pc: (insn.rd, insn.rs, insn.imm))
for _op, _size in (("store32", 4), ("store16", 2), ("store8", 1)):
    _FRAGMENTS[_op] = (Fragment(
        _op, [_ADDRESS] + store_source("a", _size, "regs[{rs}]"),
        ("base", "rs", "imm")),
        lambda insn, pc: (insn.rd, insn.rs, insn.imm))

# -- two-address ALU (dst also the left operand) ----------------------------
for _op, _value in (
        ("add", "(regs[{rd}] + regs[{rs}]) & 0xFFFFFFFF"),
        ("sub", "(regs[{rd}] - regs[{rs}]) & 0xFFFFFFFF"),
        ("muls", "(regs[{rd}] * regs[{rs}]) & 0xFFFFFFFF"),
        ("and", "regs[{rd}] & regs[{rs}]"),
        ("or", "regs[{rd}] | regs[{rs}]"),
        ("eor", "regs[{rd}] ^ regs[{rs}]"),
        ("lsl", "(regs[{rd}] << (regs[{rs}] & 31)) & 0xFFFFFFFF"),
        ("lsr", "regs[{rd}] >> (regs[{rs}] & 31)"),
        ("asr", "(((regs[{rd}] ^ 0x80000000) - 0x80000000) "
                ">> (regs[{rs}] & 31)) & 0xFFFFFFFF")):
    _FRAGMENTS[_op] = (Fragment(_op, "regs[{rd}] = " + _value,
                                ("rd", "rs")), _rd_rs)
for _op, _value in (
        ("lsli", "(regs[{rd}] << {sh}) & 0xFFFFFFFF"),
        ("lsri", "regs[{rd}] >> {sh}"),
        ("asri", "(((regs[{rd}] ^ 0x80000000) - 0x80000000) >> {sh}) "
                 "& 0xFFFFFFFF")):
    _FRAGMENTS[_op] = (Fragment(_op, "regs[{rd}] = " + _value,
                                ("rd", "sh")),
                       lambda insn, pc: (insn.rd, insn.imm & 31))

# -- condition codes --------------------------------------------------------
for _cond, _test in CC_TESTS.items():
    _FRAGMENTS["b" + _cond] = (Fragment(
        "b" + _cond, "cpu.pc = {taken} if %s else {npc}" % _test,
        ("taken",), jumps=True), _taken)
    _FRAGMENTS["s" + _cond] = (Fragment(
        "s" + _cond, "regs[{rd}] = 1 if %s else 0" % _test, ("rd",)),
        lambda insn, pc: (insn.rd,))


class RM68kArch(Arch):
    name = "rm68k"
    byteorder = "big"
    insn_align = 2  # instructions are fetched as 16-bit words
    nregs = 16
    nfregs = 8
    zero_reg = False
    sp = REG_SP
    fp = REG_FP
    ra = None  # return address lives on the stack
    arg_regs = ()
    ret_reg = REG_RETVAL
    has_f80 = True
    reg_names = ("d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7",
                 "a0", "a1", "a2", "a3", "a4", "a5", "fp", "sp")

    def __init__(self):
        self.nop_bytes = NOP_WORD.to_bytes(2, "big")
        self.break_bytes = BKPT_WORD.to_bytes(2, "big")

    # -- encoding ---------------------------------------------------------

    def encode(self, insn: Insn) -> bytes:
        if insn.op == "nop":
            insn.size = 2
            return self.nop_bytes
        if insn.op == "break":
            insn.size = 2
            return self.break_bytes
        byte, ext = _OPS[insn.op]
        first = (byte << 8) | ((insn.rd or 0) & 15) << 4 | ((insn.rs or 0) & 15)
        words = [first]
        if ext == "d":
            disp = insn.imm or 0
            if not isinstance(disp, int):
                raise ValueError("unresolved displacement %r in %r" % (disp, insn))
            if not -(1 << 15) <= disp < (1 << 15):
                raise ValueError("disp16 %d out of range" % disp)
            words.append(disp & 0xFFFF)
        elif ext == "i":
            imm = insn.imm if insn.op != "jsr" else insn.target
            if not isinstance(imm, int):
                raise ValueError("unresolved imm32 %r in %r" % (imm, insn))
            imm &= 0xFFFFFFFF
            words.append(imm >> 16)
            words.append(imm & 0xFFFF)
        elif ext == "w":
            words.append((insn.imm or 0) & 0xFFFF)
        elif ext == "f":
            import struct
            raw = struct.pack(">d", float(insn.imm or 0.0))
            for i in range(0, 8, 2):
                words.append(int.from_bytes(raw[i : i + 2], "big"))
        data = b"".join(w.to_bytes(2, "big") for w in words)
        insn.size = len(data)
        return data

    def decode(self, mem, address: int) -> Insn:
        first = mem.read_uint(address, 2)
        if first == NOP_WORD:
            insn = Insn("nop")
            insn.size = 2
            return insn
        if first == BKPT_WORD:
            insn = Insn("break")
            insn.size = 2
            return insn
        entry = _OPTABLE.get(first >> 8)
        if entry is None:
            raise TargetFault(SIGILL, code=first, address=address)
        name, ext = entry
        insn = Insn(name, rd=(first >> 4) & 15, rs=first & 15)
        size = 2
        if ext == "d":
            insn.imm = to_i16(mem.read_uint(address + 2, 2))
            size = 4
        elif ext == "i":
            value = mem.read_uint(address + 2, 2) << 16 | mem.read_uint(address + 4, 2)
            if name == "jsr":
                insn.target = value
            else:
                insn.imm = to_i32(value)
            size = 6
        elif ext == "w":
            insn.imm = mem.read_uint(address + 2, 2)
            size = 4
        elif ext == "f":
            import struct
            raw = b"".join(
                mem.read_uint(address + 2 + i, 2).to_bytes(2, "big")
                for i in range(0, 8, 2))
            insn.imm = struct.unpack(">d", raw)[0]
            size = 10
        insn.size = size
        return insn

    def insn_length(self, insn: Insn) -> int:
        if insn.op in ("nop", "break"):
            return 2
        ext = _OPS[insn.op][1]
        return {"": 2, "d": 4, "w": 4, "i": 6, "f": 10}[ext]

    # -- block dispatch ----------------------------------------------------

    block_enders = frozenset([
        "break", "syscall", "bra",
        "beq", "bne", "blt", "ble", "bgt", "bge",
        "bltu", "bleu", "bgtu", "bgeu",
        "jsr", "jsrr", "rts",
    ])

    def compile_insn(self, insn: Insn, pc: int):
        """The op's fragment (see :data:`_FRAGMENTS`) and its operands;
        division and float ops fall back to :meth:`execute`."""
        entry = _FRAGMENTS.get(insn.op)
        if entry is None:
            return None
        return entry[0], entry[1](insn, pc)

    # -- execution ---------------------------------------------------------

    def execute(self, cpu, insn: Insn) -> None:
        op = insn.op
        next_pc = cpu.pc + insn.size
        R = cpu.get_reg
        mem = cpu.mem
        if op == "nop":
            pass
        elif op == "break":
            raise TargetFault(SIGTRAP, code=0, address=cpu.pc)
        elif op == "syscall":
            cpu.syscall(insn.imm or 0)
        elif op == "movei":
            cpu.set_reg(insn.rd, insn.imm)
        elif op == "move":
            cpu.set_reg(insn.rd, R(insn.rs))
        elif op == "lea":
            cpu.set_reg(insn.rd, R(insn.rs) + insn.imm)
        elif op == "load32":
            cpu.set_reg(insn.rd, mem.read_u32(to_u32(R(insn.rs) + insn.imm)))
        elif op == "load16s":
            cpu.set_reg(insn.rd, mem.read_i16(to_u32(R(insn.rs) + insn.imm)))
        elif op == "load16u":
            cpu.set_reg(insn.rd, mem.read_u16(to_u32(R(insn.rs) + insn.imm)))
        elif op == "load8s":
            cpu.set_reg(insn.rd, mem.read_i8(to_u32(R(insn.rs) + insn.imm)))
        elif op == "load8u":
            cpu.set_reg(insn.rd, mem.read_u8(to_u32(R(insn.rs) + insn.imm)))
        elif op == "store32":
            mem.write_u32(to_u32(R(insn.rd) + insn.imm), R(insn.rs))
        elif op == "store16":
            mem.write_u16(to_u32(R(insn.rd) + insn.imm), R(insn.rs) & 0xFFFF)
        elif op == "store8":
            mem.write_u8(to_u32(R(insn.rd) + insn.imm), R(insn.rs) & 0xFF)
        elif op in ("add", "sub", "muls", "divs", "rems", "divu", "remu",
                    "and", "or", "eor", "lsl", "lsr", "asr"):
            a = R(insn.rd)
            b = R(insn.rs)
            if op == "add":
                result = a + b
            elif op == "sub":
                result = a - b
            elif op == "muls":
                result = to_i32(a) * to_i32(b)
            elif op in ("divu", "remu"):
                if b == 0:
                    raise TargetFault(SIGFPE, code=0, address=cpu.pc)
                result = a // b if op == "divu" else a % b
            elif op in ("divs", "rems"):
                divisor = to_i32(b)
                if divisor == 0:
                    raise TargetFault(SIGFPE, code=0, address=cpu.pc)
                dividend = to_i32(a)
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                result = quotient if op == "divs" else dividend - quotient * divisor
            elif op == "and":
                result = a & b
            elif op == "or":
                result = a | b
            elif op == "eor":
                result = a ^ b
            elif op == "lsl":
                result = a << (b & 31)
            elif op == "lsr":
                result = a >> (b & 31)
            else:  # asr
                result = to_i32(a) >> (b & 31)
            cpu.set_reg(insn.rd, result)
        elif op == "not":
            cpu.set_reg(insn.rd, ~R(insn.rd))
        elif op == "neg":
            cpu.set_reg(insn.rd, -R(insn.rd))
        elif op == "cmp":
            cpu.set_cc(R(insn.rd), R(insn.rs))
        elif op == "tst":
            cpu.set_cc(R(insn.rd), 0)
        elif op == "lsli":
            cpu.set_reg(insn.rd, R(insn.rd) << (insn.imm & 31))
        elif op == "lsri":
            cpu.set_reg(insn.rd, R(insn.rd) >> (insn.imm & 31))
        elif op == "asri":
            cpu.set_reg(insn.rd, to_i32(R(insn.rd)) >> (insn.imm & 31))
        elif op == "bra":
            next_pc = cpu.pc + insn.size + insn.imm
        elif op in ("beq", "bne", "blt", "ble", "bgt", "bge",
                    "bltu", "bleu", "bgtu", "bgeu"):
            if _cc_test(cpu, op[1:]):
                next_pc = cpu.pc + insn.size + insn.imm
        elif op in ("seq", "sne", "slt", "sle", "sgt", "sge", "sltu", "sgtu",
                    "sleu", "sgeu"):
            cpu.set_reg(insn.rd, int(_cc_test(cpu, op[1:])))
        elif op == "push":
            sp = to_u32(R(REG_SP) - 4)
            cpu.set_reg(REG_SP, sp)
            mem.write_u32(sp, R(insn.rs))
        elif op == "pop":
            sp = R(REG_SP)
            cpu.set_reg(insn.rd, mem.read_u32(sp))
            cpu.set_reg(REG_SP, sp + 4)
        elif op == "link":
            # push fp; fp = sp; sp -= size
            sp = to_u32(R(REG_SP) - 4)
            mem.write_u32(sp, R(REG_FP))
            cpu.set_reg(REG_FP, sp)
            cpu.set_reg(REG_SP, sp - (insn.imm or 0))
        elif op == "unlk":
            fp = R(REG_FP)
            cpu.set_reg(REG_SP, fp + 4)
            cpu.set_reg(REG_FP, mem.read_u32(fp))
        elif op == "jsr":
            sp = to_u32(R(REG_SP) - 4)
            cpu.set_reg(REG_SP, sp)
            mem.write_u32(sp, cpu.pc + insn.size)
            next_pc = insn.target
        elif op == "jsrr":
            sp = to_u32(R(REG_SP) - 4)
            cpu.set_reg(REG_SP, sp)
            mem.write_u32(sp, cpu.pc + insn.size)
            next_pc = R(insn.rs)
        elif op == "rts":
            sp = R(REG_SP)
            next_pc = mem.read_u32(sp)
            cpu.set_reg(REG_SP, sp + 4)
        elif op == "fmove":
            cpu.fregs[insn.rd] = cpu.fregs[insn.rs]
        elif op == "fmovei":
            cpu.fregs[insn.rd] = insn.imm
        elif op == "fload32":
            cpu.fregs[insn.rd] = mem.read_f32(to_u32(R(insn.rs) + insn.imm))
        elif op == "fload64":
            cpu.fregs[insn.rd] = mem.read_f64(to_u32(R(insn.rs) + insn.imm))
        elif op == "fload80":
            cpu.fregs[insn.rd] = mem.read_f80(to_u32(R(insn.rs) + insn.imm))
        elif op == "fstore32":
            mem.write_f32(to_u32(R(insn.rs) + insn.imm), cpu.fregs[insn.rd])
        elif op == "fstore64":
            mem.write_f64(to_u32(R(insn.rs) + insn.imm), cpu.fregs[insn.rd])
        elif op == "fstore80":
            mem.write_f80(to_u32(R(insn.rs) + insn.imm), cpu.fregs[insn.rd])
        elif op == "fadd":
            cpu.fregs[insn.rd] += cpu.fregs[insn.rs]
        elif op == "fsub":
            cpu.fregs[insn.rd] -= cpu.fregs[insn.rs]
        elif op == "fmul":
            cpu.fregs[insn.rd] *= cpu.fregs[insn.rs]
        elif op == "fdiv":
            if cpu.fregs[insn.rs] == 0.0:
                raise TargetFault(SIGFPE, code=1, address=cpu.pc)
            cpu.fregs[insn.rd] /= cpu.fregs[insn.rs]
        elif op == "fneg":
            cpu.fregs[insn.rd] = -cpu.fregs[insn.rd]
        elif op == "fitod":
            cpu.fregs[insn.rd] = float(to_i32(R(insn.rs)))
        elif op == "fdtoi":
            cpu.set_reg(insn.rd, int(math.trunc(cpu.fregs[insn.rs])))
        elif op == "fcmp":
            a, b = cpu.fregs[insn.rd], cpu.fregs[insn.rs]
            cpu.cc_lt = a < b
            cpu.cc_eq = a == b
            cpu.cc_ltu = a < b
        else:  # pragma: no cover
            raise TargetFault(SIGILL, address=cpu.pc)
        cpu.pc = to_u32(next_pc)


def _cc_test(cpu, cond: str) -> bool:
    if cond == "eq":
        return cpu.cc_eq
    if cond == "ne":
        return not cpu.cc_eq
    if cond == "lt":
        return cpu.cc_lt
    if cond == "le":
        return cpu.cc_lt or cpu.cc_eq
    if cond == "gt":
        return not (cpu.cc_lt or cpu.cc_eq)
    if cond == "ge":
        return not cpu.cc_lt
    if cond == "ltu":
        return cpu.cc_ltu
    if cond == "leu":
        return cpu.cc_ltu or cpu.cc_eq
    if cond == "gtu":
        return not (cpu.cc_ltu or cpu.cc_eq)
    if cond == "geu":
        return not cpu.cc_ltu
    raise ValueError("unknown condition %r" % cond)
