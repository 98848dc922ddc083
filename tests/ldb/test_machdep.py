"""The debugger's machine descriptions agree with the targets.

ldb carries its own copies of machine facts (paper Sec. 4.3) instead of
importing the simulator's Arch classes; this holds each copy to the
target's: the saved-context layout the nub writes, the register names
the per-target PostScript gives, and the breakpoint data.
"""

import io

import pytest

from repro.ldb.machdep import machdep_for
from repro.machines import get_arch
from repro.postscript import KIND_BYTES, new_interp

ARCHES = ("rmips", "rmipsel", "rsparc", "rm68k", "rvax")


def names(machine, key):
    arch_dict = new_interp(stdout=io.StringIO()).systemdict["ArchDicts"][
        machine.ps_arch]
    return [item.text for item in arch_dict[key]]


@pytest.mark.parametrize("name", ARCHES)
def test_context_layout_matches_the_target(name):
    machine, arch = machdep_for(name), get_arch(name)
    assert (machine.nregs, machine.nfregs) == (arch.nregs, arch.nfregs)
    regs = freg = 0
    for field in arch.context_fields():
        if field.kind == "pc":
            assert (machine.pc_slot, 4) == (field.offset, field.size)
        elif field.kind == "reg":
            assert machine.reg_slot(regs) == field.offset, field.name
            regs += 1
        elif field.kind == "freg":
            assert machine.freg_slot(freg) == field.offset, field.name
            assert KIND_BYTES[machine.float_kind] == field.size
            freg += 1
        else:
            assert field.offset == machine.freg_slot(machine.nfregs)
    assert (regs, freg) == (machine.nregs, machine.nfregs)
    assert machine.context_size() == arch.context_size()


@pytest.mark.parametrize("name", ARCHES)
def test_register_names_match_the_counts_and_the_sp_and_fp(name):
    machine, arch = machdep_for(name), get_arch(name)
    regs = names(machine, "RegNames")
    assert len(regs) == machine.nregs
    assert len(names(machine, "FRegNames")) == machine.nfregs
    assert regs[machine.sp_reg] == "sp" and machine.sp_reg == arch.sp
    assert machine.fp_reg == arch.fp
    if machine.fp_reg is not None:
        assert regs[machine.fp_reg] == "fp"


@pytest.mark.parametrize("name", ARCHES)
def test_breakpoint_data_matches_the_target(name):
    machine, arch = machdep_for(name), get_arch(name)
    assert machine.byteorder == arch.byteorder
    for mine, theirs in ((machine.break_bytes_le, arch.break_bytes),
                         (machine.nop_bytes_le, arch.nop_bytes)):
        value = int.from_bytes(theirs, arch.byteorder)
        assert mine == value.to_bytes(len(theirs), "little")
    assert machine.insn_fetch_size == arch.insn_align
    assert machine.noop_advance == arch.noop_advance
