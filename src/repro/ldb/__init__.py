"""ldb: the retargetable debugger (the paper's primary contribution).

Quick start::

    from repro.cc.driver import compile_and_link
    from repro.ldb import Ldb

    exe = compile_and_link({"fib.c": source}, "rmips", debug=True)
    ldb = Ldb()
    target = ldb.load_program(exe)        # stops before main
    ldb.break_at_function("fib")
    ldb.run_to_stop()                     # hits the breakpoint
    print(ldb.print_variable("n"))
    print(ldb.backtrace_text())
    print(ldb.evaluate("n * 2 + 1"))
"""

from .breakpoints import Breakpoint, BreakpointError, BreakpointTable
from .debugger import Ldb
from .frames import Frame
from .linker import LinkerInterface, MipsLinkerInterface, linker_for
from .memories import (
    AliasMemory,
    JoinedMemory,
    LocalMemory,
    MemoryStats,
    RegisterMemory,
    WireMemory,
)
from .symtab import SymbolTable
from .target import Target, TargetError

__all__ = [
    "AliasMemory",
    "Breakpoint",
    "BreakpointError",
    "BreakpointTable",
    "Frame",
    "JoinedMemory",
    "Ldb",
    "LinkerInterface",
    "LocalMemory",
    "MemoryStats",
    "MipsLinkerInterface",
    "RegisterMemory",
    "SymbolTable",
    "Target",
    "TargetError",
    "WireMemory",
    "linker_for",
]
