"""The complete operator set of ldb's PostScript dialect, built once.

Beyond the standard categories this adds a handful of extension operators
the prelude's printer procedures need (``chr``, ``hexstring``) plus inert
compatibility stubs (``readonly``/``executeonly`` — the dialect drops
access attributes along with ``save``/``restore``).

Every operator is a function of the interpreter running it (the printer
operators drive ``ip.pretty``), so a process builds the set once, as
:data:`OPERATORS`, and every interpreter's systemdict starts with these
same objects.  Each interpreter keeps its own systemdict dictionary, so
redefining a name in one leaves the others alone.
"""

from __future__ import annotations

import time

from . import memops, ops_array, ops_control, ops_dict, ops_io, ops_math, ops_stack, ops_string, printer
from .objects import Operator, PSDict, PSError, String


def op_chr(interp) -> None:
    """``code chr -> string``: the one-character string for a char code."""
    code = interp.pop_int()
    if not 0 <= code < 0x110000:
        raise PSError("rangecheck", "chr %d" % code)
    interp.push(String(chr(code)))


def op_hexstring(interp) -> None:
    """``int hexstring -> string``: lower-case hex, unsigned 32-bit view."""
    value = interp.pop_int()
    interp.push(String("%x" % (value & 0xFFFFFFFF)))


def op_readonly(interp) -> None:
    pass  # access attributes are not in the dialect; top of stack unchanged


def op_usertime(interp) -> None:
    interp.push(int(time.monotonic() * 1000))


def install(interp) -> None:
    ops_stack.install(interp)
    ops_math.install(interp)
    ops_dict.install(interp)
    ops_array.install(interp)
    ops_string.install(interp)
    ops_control.install(interp)
    ops_io.install(interp)
    printer.install(interp)
    memops.install(interp)
    interp.defop("chr", op_chr)
    interp.defop("hexstring", op_hexstring)
    interp.defop("readonly", op_readonly)
    interp.defop("executeonly", op_readonly)
    interp.defop("usertime", op_usertime)
    interp.systemdict["version"] = String("ldb-dialect-1")


class _Table:
    """What the ``install`` functions fill: the built-in entries of a
    systemdict, collected in a dictionary of their own."""

    def __init__(self):
        self.systemdict = PSDict()
        install(self)

    def defop(self, name: str, fn) -> None:
        self.systemdict[name] = Operator(name, fn)


#: name -> the built-in systemdict entries every interpreter starts with
OPERATORS = _Table().systemdict.store
