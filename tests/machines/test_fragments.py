"""Every instruction fragment, one hand-built case at least, both engines.

The block engine runs each op as its fragment's source, the step engine
as ``Arch.execute``.  A case is a tiny program that sets registers and a
stack word up, runs the op and ends in a trap; the two engines must leave
the same state.  The edge cases put every load and store width at the
last in-range address and across the end of memory.  The guard fails when
an ISA gains a fragment no case covers.
"""

import pytest

from repro.machines import Process, TargetFault, m68k, mips, sparc, vax
from repro.machines.isa import SIGSEGV, Insn, Label
from repro.machines.vax import Operand

from .helpers import build
from .test_engines import _run_hand_built

#: the size of every test process's memory (the linker's default)
MEMORY = 1 << 20
#: a word every case finds on the stack, 16 bytes below the stack top
WORD = 0x80000005


# -- rmips ------------------------------------------------------------------


def _mips_li(reg, value):
    return [Insn("lui", rd=reg, imm=value >> 16),
            Insn("ori", rd=reg, rs=reg, imm=value & 0xFFFF)]


_MIPS_SETUP = (_mips_li(8, WORD) + [Insn("addi", rd=9, rs=0, imm=7)]
               + _mips_li(10, 0xFFFFFFF0)
               + [Insn("sw", rd=8, rs=29, imm=-16)])
#: loads land in the delay slot: r13 sees the old r12, r14 the new one
_MIPS_AFTER_LOAD = [Insn("add", rd=13, rs=12, rt=0),
                    Insn("add", rd=14, rs=12, rt=0)]
_MIPS_ADDRESS = [Insn("lui", rd=11, imm=("hi", "there")),
                 Insn("ori", rd=11, rs=11, imm=("lo", "there"))]


def _mips_cases():
    rr = ["add", "sub", "mul", "div", "rem", "divu", "remu", "and", "or",
          "xor", "nor", "sll", "srl", "sra", "slt", "sltu", "seq", "sne"]
    for op in rr:
        yield op, op, [Insn(op, rd=12, rs=8, rt=9)]
        yield op, op + " swapped", [Insn(op, rd=12, rs=9, rt=8)]
        yield op, op + " r0", [Insn(op, rd=0, rs=8, rt=9)]
    for op in ("div", "rem", "divu", "remu"):
        yield op, op + " by zero", [Insn(op, rd=12, rs=8, rt=0)]
        yield op, op + " by zero r0", [Insn(op, rd=0, rs=8, rt=0)]
    for op, imm in (("addi", -3), ("ori", 0xF0F0), ("lui", 0x1234),
                    ("slli", 3), ("srli", 3), ("srai", 3)):
        yield op, op, [Insn(op, rd=12, rs=8, imm=imm)]
        yield op, op + " r0", [Insn(op, rd=0, rs=8, imm=imm)]
    for op in ("lw", "lh", "lhu", "lb", "lbu"):
        yield op, op, [Insn(op, rd=12, rs=29, imm=-16)] + _MIPS_AFTER_LOAD
        # the delay slot writes the loaded register: its write wins
        yield op, op + " overwritten", [
            Insn(op, rd=12, rs=29, imm=-16),
            Insn("addi", rd=12, rs=0, imm=1)] + _MIPS_AFTER_LOAD
        yield op, op + " into r0", [Insn(op, rd=0, rs=29, imm=-16)]
    # back-to-back loads: the second lands the first in its slot
    yield "lw", "lw lw", [Insn("lw", rd=12, rs=29, imm=-16),
                          Insn("lh", rd=13, rs=29, imm=-16),
                          Insn("add", rd=14, rs=12, rt=13)]
    for op in ("sw", "sh", "sb"):
        yield op, op, [Insn(op, rd=10, rs=29, imm=-13),
                       Insn("lw", rd=12, rs=29, imm=-16),
                       Insn("nop")]
    for op in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
        for reg in (8, 9, 0):
            yield op, "%s r%d" % (op, reg), [
                Insn(op, rd=reg, rs=9, imm=1),
                Insn("addi", rd=12, rs=0, imm=1),
                Insn("addi", rd=13, rs=0, imm=2)]
    skip = [Insn("addi", rd=12, rs=0, imm=1), Label("there"),
            Insn("addi", rd=13, rs=0, imm=2)]
    yield "j", "j", [Insn("j", target="there")] + skip
    yield "jal", "jal", [Insn("jal", target="there")] + skip
    # a load into ra with jal in its delay slot: jal's write wins
    yield "jal", "jal after lw ra", [Insn("lw", rd=31, rs=29, imm=-16),
                                     Insn("jal", target="there")] + skip
    yield "jr", "jr", _MIPS_ADDRESS + [Insn("jr", rs=11)] + skip
    yield "jalr", "jalr", _MIPS_ADDRESS + [Insn("jalr", rs=11)] + skip
    # execute writes ra before reading it: jalr through ra falls through
    yield "jalr", "jalr ra", [Insn("jalr", rs=31)] + skip
    yield "nop", "nop", [Insn("nop")]
    yield "break", "break", [Insn("break", imm=9)]
    yield "syscall", "syscall exit", [Insn("addi", rd=4, rs=0, imm=5),
                                      Insn("syscall", imm=1)]
    yield "syscall", "syscall bad", [Insn("syscall", imm=77)]


# -- rsparc -----------------------------------------------------------------


def _sparc_li(reg, value):
    low = value & 0x1FFF
    if low >= 0x1000:
        low -= 0x2000  # a signed simm13 adds it back
    return [Insn("sethi", rd=reg, imm=((value - low) >> 13) & 0x7FFFF),
            Insn("add", rd=reg, rs=reg, imm=low)]


_SPARC_SETUP = _sparc_li(8, WORD) + [Insn("add", rd=9, rs=0, imm=7),
                                    Insn("add", rd=10, rs=0, imm=-16),
                                    Insn("st", rd=8, rs=14, imm=-16)]
_SPARC_ADDRESS = [Insn("sethi", rd=11, imm=("hi19", "there")),
                  Insn("add", rd=11, rs=11, imm=("lo13", "there"))]


def _sparc_cases():
    for op in ("add", "sub", "smul", "and", "or", "xor", "sll", "srl",
               "sra", "slt", "sltu", "seq", "sne"):
        yield op, op, [Insn(op, rd=12, rs=8, rt=9)]
        yield op, op + " swapped", [Insn(op, rd=12, rs=9, rt=8)]
        yield op, op + " imm", [Insn(op, rd=12, rs=8, imm=-3)]
        yield op, op + " imm positive", [Insn(op, rd=12, rs=8, imm=5)]
        yield op, op + " g0", [Insn(op, rd=0, rs=8, imm=-3)]
    yield "sethi", "sethi", [Insn("sethi", rd=12, imm=0x7FFFF)]
    yield "sethi", "sethi g0", [Insn("sethi", rd=0, imm=0x7FFFF)]
    for op in ("ld", "ldsb", "ldub", "ldsh", "lduh"):
        yield op, op, [Insn(op, rd=12, rs=14, imm=-16),
                       Insn("add", rd=13, rs=12, rt=0)]
        yield op, op + " g0", [Insn(op, rd=0, rs=14, imm=-16)]
    for op in ("st", "stb", "sth"):
        yield op, op, [Insn(op, rd=10, rs=14, imm=-13),
                       Insn("ld", rd=12, rs=14, imm=-16)]
    for op in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
        for reg in (8, 9, 0):
            yield op, "%s r%d" % (op, reg), [
                Insn(op, rd=reg, rs=9, imm=1),
                Insn("add", rd=12, rs=0, imm=1),
                Insn("add", rd=13, rs=0, imm=2)]
    skip = [Insn("add", rd=12, rs=0, imm=1), Label("there"),
            Insn("add", rd=13, rs=0, imm=2)]
    yield "call", "call", [Insn("call", target="there")] + skip
    yield "callr", "callr", _SPARC_ADDRESS + [Insn("callr", rs=11)] + skip
    yield "jmpl", "jmpl", (_SPARC_ADDRESS + [Insn("jmpl", rs=11, imm=0)]
                           + skip)
    yield "nop", "nop", [Insn("nop")]
    yield "break", "break", [Insn("break")]
    yield "syscall", "syscall exit", [Insn("add", rd=8, rs=0, imm=5),
                                      Insn("syscall", imm=1)]


# -- rm68k ------------------------------------------------------------------

_M68K_SETUP = [Insn("movei", rd=1, imm=WORD - (1 << 32)),
               Insn("movei", rd=2, imm=7),
               Insn("movei", rd=3, imm=-16),
               Insn("lea", rd=8, rs=15, imm=-16),
               Insn("store32", rd=8, rs=1, imm=0)]


def _m68k_cases():
    yield "movei", "movei", [Insn("movei", rd=4, imm=-5)]
    yield "move", "move", [Insn("move", rd=4, rs=1)]
    yield "lea", "lea", [Insn("lea", rd=4, rs=8, imm=-12)]
    for op in ("load32", "load16s", "load16u", "load8s", "load8u"):
        yield op, op, [Insn(op, rd=4, rs=8, imm=0)]
    for op in ("store32", "store16", "store8"):
        yield op, op, [Insn(op, rd=8, rs=3, imm=1),
                       Insn("load32", rd=4, rs=8, imm=0)]
    for op in ("add", "sub", "muls", "and", "or", "eor", "lsl", "lsr",
               "asr"):
        yield op, op, [Insn("move", rd=4, rs=1), Insn(op, rd=4, rs=2)]
        yield op, op + " swapped", [Insn("move", rd=4, rs=2),
                                    Insn(op, rd=4, rs=1)]
    for op in ("lsli", "lsri", "asri"):
        yield op, op, [Insn("move", rd=4, rs=1), Insn(op, rd=4, imm=3)]
    for op in ("not", "neg"):
        yield op, op, [Insn("move", rd=4, rs=1), Insn(op, rd=4)]
    for pair in ((1, 2), (2, 1), (2, 2), (3, 1)):
        yield "cmp", "cmp d%d d%d" % pair, [Insn("cmp", rd=pair[0],
                                                 rs=pair[1])]
    for reg in (1, 2, 0):
        yield "tst", "tst d%d" % reg, [Insn("tst", rd=reg)]
    skip = [Insn("movei", rd=4, imm=1), Label("there"),
            Insn("movei", rd=5, imm=2)]
    yield "bra", "bra", [Insn("bra", imm=("br", "there"))] + skip
    for cond in ("eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu",
                 "geu"):
        for pair in ((1, 2), (2, 1), (2, 2)):
            compare = [Insn("cmp", rd=pair[0], rs=pair[1])]
            yield "b" + cond, "b%s %s" % (cond, pair), compare + [
                Insn("b" + cond, imm=("br", "there"))] + skip
            yield "s" + cond, "s%s %s" % (cond, pair), compare + [
                Insn("s" + cond, rd=4)]
    yield "push", "push", [Insn("push", rs=1),
                           Insn("load32", rd=4, rs=15, imm=0)]
    yield "push", "push sp", [Insn("push", rs=15)]
    yield "pop", "pop", [Insn("push", rs=1), Insn("pop", rd=4)]
    yield "pop", "pop sp", [Insn("push", rs=1), Insn("pop", rd=15)]
    yield "link", "link", [Insn("link", imm=24)]
    yield "unlk", "unlk", [Insn("link", imm=24), Insn("movei", rd=4, imm=9),
                           Insn("unlk")]
    yield "jsr", "jsr", [Insn("jsr", target="there")] + skip
    yield "jsrr", "jsrr", [Insn("movei", rd=9, imm="there"),
                           Insn("jsrr", rs=9)] + skip
    yield "rts", "rts", [Insn("jsr", target="sub"),
                         Insn("movei", rd=4, imm=1),
                         Insn("bra", imm=("br", "there")),
                         Label("sub"), Insn("movei", rd=5, imm=3),
                         Insn("rts")] + skip
    yield "nop", "nop", [Insn("nop")]
    yield "break", "break", [Insn("break")]
    yield "syscall", "syscall exit", [Insn("movei", rd=1, imm=5),
                                      Insn("push", rs=1),
                                      Insn("push", rs=1),
                                      Insn("syscall", imm=1)]


# -- rvax -------------------------------------------------------------------

R = Operand.reg_


def _vax_sources():
    """One operand of every class a read handles, over the stack word."""
    return {"reg": R(1), "defer": Operand.defer(6),
            "disp8": Operand.disp(14, -16), "disp32": Operand.disp(14, -400),
            "imm": Operand.imm(0xFFFFFFF0), "abs": Operand.absolute(
                MEMORY - 32)}


def _vax_dests():
    return {"reg": R(4), "defer": Operand.defer(6),
            "disp": Operand.disp(14, -12), "abs": Operand.absolute(
                MEMORY - 28)}


_VAX_SETUP = [Insn("movl", imm=[Operand.imm(WORD), R(1)]),
              Insn("movl", imm=[Operand.imm(7), R(2)]),
              Insn("moval", imm=[Operand.disp(14, -16), R(6)]),
              Insn("movl", imm=[R(1), Operand.defer(6)])]


def _vax_cases():
    for op in ("movl", "movzbl", "movzwl"):
        for sname, source in _vax_sources().items():
            yield op, "%s %s reg" % (op, sname), [Insn(op, imm=[source,
                                                             R(4)])]
        for dname, dest in _vax_dests().items():
            yield op, "%s reg %s" % (op, dname), [
                Insn(op, imm=[R(1), dest]), Insn("movl", imm=[dest, R(5)])]
    for sname in ("defer", "disp8", "disp32", "abs"):
        yield "moval", "moval " + sname, [
            Insn("moval", imm=[_vax_sources()[sname], R(4)])]
    yield "moval", "moval to memory", [
        Insn("moval", imm=[Operand.disp(14, -40), Operand.disp(14, -12)])]
    for op in vax._ALU3:
        yield op, op, [Insn(op, imm=[R(2), R(1), R(4)])]
        yield op, op + " swapped", [Insn(op, imm=[R(1), R(2), R(4)])]
        yield op, op + " memory", [Insn(op, imm=[
            Operand.imm(3), Operand.disp(14, -16), Operand.disp(14, -12)])]
    for op in ("divl3", "reml3", "divul3", "remul3"):
        yield op, op + " by zero", [Insn(op, imm=[Operand.imm(0), R(1),
                                                  R(4)])]
    yield "ashl", "ashl right", [Insn("ashl", imm=[Operand.imm(0xFFFFFFFD),
                                                   R(1), R(4)])]
    for pair in ((R(1), R(2)), (R(2), R(1)), (R(2), Operand.imm(7)),
                 (Operand.disp(14, -16), R(1))):
        yield "cmpl", "cmpl %r" % (pair,), [Insn("cmpl", imm=list(pair))]
    skip = [Insn("movl", imm=[Operand.imm(1), R(4)]), Label("there"),
            Insn("movl", imm=[Operand.imm(2), R(5)])]
    for op in vax._BRANCH_CONDS:
        for pair in ((R(1), R(2)), (R(2), R(1)), (R(2), R(2))):
            compare = [Insn("cmpl", imm=list(pair))]
            yield op, "%s %r" % (op, pair), compare + [
                Insn(op, imm=("br", "there"))] + skip
    for op in vax._SCC_CONDS:
        for pair in ((R(1), R(2)), (R(2), R(1)), (R(2), R(2))):
            yield op, "%s %r" % (op, pair), [Insn("cmpl", imm=list(pair)),
                                             Insn(op, imm=[R(4)])]
        yield op, op + " memory", [Insn(op, imm=[Operand.disp(14, -12)])]
    yield "brb", "brb", [Insn("brb", imm=("br", "there"))] + skip
    for sname, source in _vax_sources().items():
        yield "pushl", "pushl " + sname, [Insn("pushl", imm=[source])]
    yield "pushl", "pushl sp", [Insn("pushl", imm=[R(14)])]
    yield "pushl", "pushl off sp", [Insn("pushl", imm=[Operand.defer(14)])]
    for dname, dest in _vax_dests().items():
        yield "popl", "popl " + dname, [Insn("pushl", imm=[R(1)]),
                                        Insn("popl", imm=[dest])]
    yield "popl", "popl sp", [Insn("pushl", imm=[R(1)]),
                              Insn("popl", imm=[R(14)])]
    yield "popl", "popl off sp", [Insn("pushl", imm=[R(1)]),
                                  Insn("popl", imm=[Operand.defer(14)])]
    yield "call", "call", [Insn("call", target="there")] + skip
    yield "callr", "callr", [Insn("moval", imm=[Operand.absolute("there"),
                                                R(9)]),
                             Insn("callr", imm=[R(9)])] + skip
    yield "ret", "ret", [Insn("call", target="sub"),
                         Insn("movl", imm=[Operand.imm(1), R(4)]),
                         Insn("brb", imm=("br", "there")),
                         Label("sub"), Insn("movl", imm=[Operand.imm(3),
                                                         R(5)]),
                         Insn("ret")] + skip
    yield "nop", "nop", [Insn("nop")]
    yield "halt", "halt", [Insn("halt")]
    yield "bpt", "bpt", [Insn("bpt")]
    yield "syscall", "syscall exit", [Insn("pushl", imm=[Operand.imm(5)]),
                                      Insn("pushl", imm=[Operand.imm(0)]),
                                      Insn("syscall", imm=1)]


# -- the table --------------------------------------------------------------

#: arch -> (set-up, the cases, the trap that ends a case)
_ISAS = {
    "rmips": (_MIPS_SETUP, _mips_cases, Insn("break", imm=3)),
    "rsparc": (_SPARC_SETUP, _sparc_cases, Insn("break")),
    "rm68k": (_M68K_SETUP, _m68k_cases, Insn("break")),
    "rvax": (_VAX_SETUP, _vax_cases, Insn("bpt")),
}


def _fragment_ops(arch):
    """Every op the arch has a fragment for."""
    if arch == "rmips":
        return set(mips._FRAGMENTS)
    if arch == "rsparc":
        return set(sparc._FRAGMENTS) | set(sparc._ALU)
    if arch == "rm68k":
        return set(m68k._FRAGMENTS)
    return set(vax._FIXED) | set(vax._OPERAND_SOURCES)


def _table():
    for arch, (_setup, cases, _trap) in _ISAS.items():
        for op, name, text in cases():
            yield pytest.param(arch, op, text, id="%s %s" % (arch, name))


def _states(arch, text):
    setup, _cases, trap = _ISAS[arch]
    exe = build(arch, [Label("__start")] + setup + text + [trap])
    return [_run_hand_built(exe, engine)[1] for engine in ("step", "block")]


@pytest.mark.parametrize("arch,op,text", list(_table()))
def test_fragment_matches_execute(arch, op, text):
    stepped, blocked = _states(arch, text)
    assert blocked == stepped


@pytest.mark.parametrize("arch", sorted(_ISAS))
def test_every_fragment_has_a_case(arch):
    covered = {op for op, _name, _text in _ISAS[arch][1]()}
    assert covered == _fragment_ops(arch)


@pytest.mark.parametrize("arch", sorted(_ISAS))
def test_every_case_runs_its_fragment(arch):
    """Each case's op compiles to a fragment, not to ``execute``."""
    for op, name, text in _ISAS[arch][1]():
        exe = build(arch, [Label("__start")] + text)
        process = Process(exe)
        address = exe.entry
        while True:
            insn = exe.arch.decode(process.mem, address)
            if insn.op == op:
                break
            address += insn.size
        assert exe.arch.compile_insn(insn, address) is not None, name


# -- loads and stores at the end of memory ----------------------------------


def _edge_text(arch, op, width, address):
    """``op`` of ``width`` bytes at ``address``."""
    if arch == "rmips":
        return _mips_li(11, address) + [Insn(op, rd=8, rs=11, imm=0),
                                        Insn("nop")]
    if arch == "rsparc":
        return _sparc_li(11, address) + [Insn(op, rd=8, rs=11, imm=0)]
    if arch == "rm68k":
        base = [Insn("movei", rd=9, imm=address)]
        if op.startswith("store"):
            return base + [Insn(op, rd=9, rs=1, imm=0)]
        return base + [Insn(op, rd=4, rs=9, imm=0)]
    at = Operand.absolute(address)
    if op == "store":
        return [Insn("movl", imm=[R(1), at])]
    return [Insn(op, imm=[at, R(4)])]


_EDGES = {
    "rmips": [("lw", 4), ("lh", 2), ("lhu", 2), ("lb", 1), ("lbu", 1),
              ("sw", 4), ("sh", 2), ("sb", 1)],
    "rsparc": [("ld", 4), ("ldsh", 2), ("lduh", 2), ("ldsb", 1),
               ("ldub", 1), ("st", 4), ("sth", 2), ("stb", 1)],
    "rm68k": [("load32", 4), ("load16s", 2), ("load16u", 2),
              ("load8s", 1), ("load8u", 1), ("store32", 4),
              ("store16", 2), ("store8", 1)],
    "rvax": [("movl", 4), ("movzwl", 2), ("movzbl", 1), ("store", 4)],
}


def _edge_run(exe, engine):
    """Run to the first stop; the raw fault, if any, and the state."""
    process = Process(exe, engine=engine)
    fault = None
    try:
        process.cpu.run()
    except TargetFault as exc:
        fault = (exc.signo, exc.code, exc.address)
    cpu = process.cpu
    return fault, (cpu.pc, cpu.icount, list(cpu.regs), cpu._pending_load,
                   cpu._wrote_reg, bytes(process.mem.bytes))


@pytest.mark.parametrize("arch,op,width", [
    (arch, op, width) for arch, edges in sorted(_EDGES.items())
    for op, width in edges])
def test_end_of_memory(arch, op, width):
    setup, _cases, trap = _ISAS[arch]
    for address, faults in ((MEMORY - width, False),
                            (MEMORY - width + 1, True)):
        exe = build(arch, [Label("__start")] + setup
                    + _edge_text(arch, op, width, address) + [trap])
        stepped = _edge_run(exe, "step")
        assert _edge_run(exe, "block") == stepped
        if faults:
            assert stepped[0] == (SIGSEGV, 2, address)
        else:
            assert stepped[0][0] != SIGSEGV
