"""ldb's machine-dependent modules: one per target architecture.

Each module states its target's facts as a
:class:`~repro.ldb.frames.Machine` subclass (paper Sec. 4.3):

* the four items of breakpoint data — the break and no-op bit patterns,
  the instruction fetch size, and the pc advance that "interprets" a
  skipped no-op;
* the byte order, the register counts, the float kind, and the sp and
  fp register numbers;
* the frame subtype, whose ``caller()`` is the target's two
  machine-dependent methods: walk down the stack, restore registers.

The context layout, the context aliases and the top frame are
machine-independent code in :class:`~repro.ldb.frames.Machine`, which
reads these facts; rmips alone adds its vfp frame base, the ``x1``
alias for it, and a word-swapping cache fixup.

These descriptions deliberately do not import the simulator's Arch
classes: the debugger carries its own copies of machine facts, exactly
as the paper's ldb does — tests/ldb/test_machdep.py checks that the two
agree, without sharing code with the target.
"""

from __future__ import annotations


def machdep_for(arch_name: str):
    """The machine description for a target architecture name."""
    if arch_name in ("rmips", "rmipsel"):
        from . import mips
        return mips.MipsMachine(arch_name)
    if arch_name == "rsparc":
        from . import sparc
        return sparc.SparcMachine()
    if arch_name == "rm68k":
        from . import m68k
        return m68k.M68kMachine()
    if arch_name == "rvax":
        from . import vax
        return vax.VaxMachine()
    raise KeyError("no machine-dependent support for %r" % arch_name)
