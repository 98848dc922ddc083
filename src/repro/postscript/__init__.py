"""ldb's embedded PostScript dialect.

One interpreter instance supports both the code in symbol-table entries
and expression evaluation (paper Sec. 3).  Use :func:`new_interp` to get
an interpreter with the standard operators, the debugging extensions, and
the shared prelude loaded; push a per-architecture dictionary with
:func:`load_arch_dict` to bind machine-dependent names (Sec. 5).
"""

from __future__ import annotations

import io
import os
import threading
from typing import Any, Dict, Optional

from .interp import Interp
from .objects import (
    NULL,
    Mark,
    Name,
    Operator,
    PSArray,
    PSDict,
    PSError,
    PSExit,
    PSStop,
    Reader,
    String,
    Writer,
    cvlit,
    cvx,
    is_executable,
    ps_key,
    type_name,
)
from .memops import (
    ABSOLUTE,
    FLOAT_KINDS,
    IMMEDIATE,
    INT_KINDS,
    KIND_BYTES,
    AbstractMemory,
    Location,
    mask_to_kind,
)
from .printer import PrettyPrinter
from .scanner import EOF, Scanner

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: Architectures with machine-dependent PostScript shipped in this package.
ARCH_PS = ("rmips", "rsparc", "rm68k", "rvax")


def data_path(name: str) -> str:
    """Path to a PostScript file shipped with the package."""
    return os.path.join(_DATA_DIR, name)


def read_data(name: str) -> str:
    with open(data_path(name)) as f:
        return f.read()


def new_interp(stdout: Any = None) -> Interp:
    """A fresh interpreter with the shared prelude loaded into userdict.

    Reading the initial PostScript is one of the startup phases the paper
    times (Sec. 7).  A process pays it once: the first call reads the
    files into a template interpreter that is never handed out, and every
    call builds a bare interpreter and gives it a copy of what the read
    added (:func:`copy_initial`).  ``bench_table_startup.py`` times both.
    A bare ``Interp()`` has the operators and no initial PostScript.
    """
    interp = Interp(stdout=stdout)
    copy_initial(_initial_template(), interp)
    return interp


def read_initial(interp: Interp) -> None:
    """Read the initial PostScript into ``interp``: the prelude and the
    loader-table harness into userdict, and one machine-dependent
    dictionary per architecture into systemdict's ``ArchDicts``.

    This is the read the template is built by and the reference that
    tests hold every copy to.
    """
    interp.run(read_data("prelude.ps"), name="prelude.ps")
    interp.run(read_data("symload.ps"), name="symload.ps")
    # one machine-dependent dictionary per target architecture; the
    # loader table selects one with UseArchitecture (Sec. 5), because
    # register locations like `30 Regset0 Absolute` are computed when
    # the symbol table is interpreted (Sec. 2)
    arch_dicts = PSDict()
    for arch in ARCH_PS:
        arch_dicts[arch] = load_arch_dict(interp, arch)
    arch_dicts["rmipsel"] = arch_dicts["rmips"]  # same MD PostScript
    interp.systemdict["ArchDicts"] = arch_dicts


_template: Optional[Interp] = None
_template_lock = threading.Lock()


def _initial_template() -> Interp:
    """The process's template interpreter, read on first use."""
    global _template
    template = _template
    if template is None:
        with _template_lock:
            template = _template
            if template is None:
                template = Interp(stdout=io.StringIO())
                read_initial(template)
                _template = template
    return template


_MISSING = object()

#: objects a copy shares with the template: nothing mutates them, and
#: an operator works on whichever interpreter runs it
_SHARED = frozenset((int, float, bool, type(None), Name, String, Operator))


def copy_initial(template: Interp, interp: Interp) -> None:
    """Give ``interp`` a structural copy of what reading the initial
    PostScript left in ``template``'s userdict and systemdict.

    Dictionaries, arrays (with their ``items`` lists) and locations are
    copied fresh, each once, so two references to one object in the
    template are two references to one copy in ``interp``.  Names,
    strings, numbers and operators are shared: every interpreter starts
    with the same operator objects, and the printer operators write to
    the stdout of the interpreter that runs them.  Anything else (a key
    other than a string, a type the read never makes) raises TypeError
    rather than being shared by mistake.
    """
    memo: Dict[int, Any] = {id(template.systemdict): interp.systemdict,
                            id(template.userdict): interp.userdict}

    def copy(obj: Any) -> Any:
        kind = type(obj)
        if kind in _SHARED:
            return obj
        done = memo.get(id(obj))
        if done is not None:
            return done
        if kind is PSArray:
            items = memo.get(id(obj.items))
            if items is None:
                items = memo[id(obj.items)] = []
                new = memo[id(obj)] = PSArray(items, obj.literal)
                items.extend(map(copy, obj.items))
            else:
                new = memo[id(obj)] = PSArray(items, obj.literal)
            return new
        if kind is PSDict:
            new = memo[id(obj)] = PSDict()
            copy_entries(obj, new)
            return new
        if kind is Location:
            new = memo[id(obj)] = Location(obj.space, obj.offset, obj.mode,
                                           obj.value)
            return new
        raise TypeError("cannot copy %r from the initial PostScript" % (obj,))

    def copy_entries(source: PSDict, dest: PSDict) -> None:
        store = dest.store
        for key, value in source.store.items():
            if type(key) is not str:
                raise TypeError("dictionary key %r in the initial PostScript"
                                " is not a name" % (key,))
            # the operators a bare interpreter starts with are there
            if store.get(key, _MISSING) is not value:
                store[key] = copy(value)

    copy_entries(template.userdict, interp.userdict)
    copy_entries(template.systemdict, interp.systemdict)


def load_arch_dict(interp: Interp, arch: str) -> PSDict:
    """Build the machine-dependent dictionary for ``arch``.

    The returned dictionary is *not* left on the dictionary stack; ldb
    pushes it (and pops the previous target's) when it changes
    architectures, rebinding the machine-dependent names dynamically
    (paper Sec. 5: "we supply one such dictionary for each target
    architecture").
    """
    if arch not in ARCH_PS:
        raise PSError("undefined", "no machine-dependent PostScript for %r" % arch)
    arch_dict = PSDict()
    interp.push_dict(arch_dict)
    try:
        interp.run(read_data(arch + ".ps"), name=arch + ".ps")
    finally:
        interp.pop_dict_stack()
    return arch_dict


__all__ = [
    "ABSOLUTE",
    "ARCH_PS",
    "AbstractMemory",
    "EOF",
    "FLOAT_KINDS",
    "IMMEDIATE",
    "INT_KINDS",
    "Interp",
    "KIND_BYTES",
    "Location",
    "Mark",
    "NULL",
    "Name",
    "Operator",
    "PSArray",
    "PSDict",
    "PSError",
    "PSExit",
    "PSStop",
    "PrettyPrinter",
    "Reader",
    "Scanner",
    "String",
    "Writer",
    "copy_initial",
    "cvlit",
    "cvx",
    "data_path",
    "is_executable",
    "load_arch_dict",
    "mask_to_kind",
    "new_interp",
    "ps_key",
    "read_data",
    "read_initial",
    "type_name",
]
