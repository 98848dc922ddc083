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
from typing import Any, Dict, FrozenSet, Optional, Tuple

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

    Loader tables are read once per process the same way: the debugger
    reads each new text in one more copy that nobody else uses
    (:func:`new_reader`) and hands every reader a :func:`copy_table` of
    what it built (``Ldb.read_loader_table``).
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


class CopyError(TypeError):
    """An object a structural copy cannot hold without sharing it."""


def _copier(memo: Dict[int, Any], int_keys: Optional[list] = None,
            foreign: FrozenSet[int] = frozenset()):
    """The structural copy behind :func:`copy_initial` and
    :func:`copy_table`: a function from an object to its copy.

    Dictionaries, arrays (with their ``items`` lists) and locations are
    copied fresh, each once (``memo`` maps the id of each object copied
    to its copy), so two references to one object are two references to
    one copy.  Names, strings, numbers and operators are shared.  A
    dictionary key must be a name; with ``int_keys`` an integer key is
    copied too and appended there, for the caller to check that it is
    no array's or dictionary's ``id()`` (``ps_key``).  Reaching an
    object whose id is in ``foreign``, a key of another type, or an
    object of a type the copy does not know raises :class:`CopyError`.
    """

    def key_of(key: Any) -> Any:
        if type(key) is int and int_keys is not None:
            int_keys.append(key)
            return key
        raise CopyError("dictionary key %r is not a name" % (key,))

    def copy(obj: Any) -> Any:
        kind = type(obj)
        if kind in _SHARED:
            return obj
        done = memo.get(id(obj))
        if done is not None:
            return done
        if id(obj) in foreign:
            raise CopyError("a %s of the reading interpreter's own"
                            % type(obj).__name__)
        if kind is PSArray:
            items = memo.get(id(obj.items))
            if items is None:
                if id(obj.items) in foreign:
                    raise CopyError("an array sharing the reading"
                                    " interpreter's items")
                items = memo[id(obj.items)] = []
                new = memo[id(obj)] = PSArray(items, obj.literal)
                items.extend(map(copy, obj.items))
            else:
                new = memo[id(obj)] = PSArray(items, obj.literal)
            return new
        if kind is PSDict:
            new = memo[id(obj)] = PSDict()
            new.store = {(key if type(key) is str else key_of(key)):
                         copy(value) for key, value in obj.store.items()}
            return new
        if kind is Location:
            new = memo[id(obj)] = Location(obj.space, obj.offset, obj.mode,
                                           obj.value)
            return new
        raise CopyError("cannot copy a %s" % type(obj).__name__)

    return copy


def copy_initial(template: Interp, interp: Interp) -> Dict[int, Any]:
    """Give ``interp`` a structural copy of what reading the initial
    PostScript left in ``template``'s userdict and systemdict, and
    return the memo: every template object's id, mapped to its copy.

    Every interpreter starts with the same operator objects, and the
    printer operators write to the stdout of the interpreter that runs
    them.  Anything else the copy cannot hold (a key other than a
    string, a type the read never makes) raises :class:`CopyError`, a
    TypeError, rather than being shared by mistake.
    """
    memo: Dict[int, Any] = {id(template.systemdict): interp.systemdict,
                            id(template.userdict): interp.userdict}
    copy = _copier(memo)
    for source, dest in ((template.userdict, interp.userdict),
                         (template.systemdict, interp.systemdict)):
        store = dest.store
        for key, value in source.store.items():
            if type(key) is not str:
                raise CopyError("dictionary key %r in the initial PostScript"
                                " is not a name" % (key,))
            # the operators a bare interpreter starts with are there
            if store.get(key, _MISSING) is not value:
                store[key] = copy(value)
    return memo


def copy_table(table: PSDict, foreign: FrozenSet[int] = frozenset()) -> PSDict:
    """A structural copy of ``table``, a dictionary a loader table
    built: it shares no dictionary, array, ``items`` list or location
    with ``table``.  Integer keys (an enum's tags) copy.

    Raises :class:`CopyError` if ``table`` holds an object whose id is
    in ``foreign``, has an integer key that is the ``id()`` of an object
    it or ``foreign`` holds (``ps_key`` keys a dictionary by an array's
    or a dictionary's id, which that object's copy would not have), or
    holds something else a copy cannot hold.
    """
    memo: Dict[int, Any] = {}
    int_keys: list = []
    new = _copier(memo, int_keys, foreign)(table)
    for key in int_keys:
        if key in memo or key in foreign:
            raise CopyError("dictionary key %d is an object's id" % key)
    return new


def new_reader() -> Tuple[Interp, FrozenSet[int]]:
    """An interpreter like :func:`new_interp`'s for reading templates
    in, and the ids of every dictionary, array, ``items`` list and
    location it starts with: a template that holds one of those took it
    from the reader's initial PostScript (``copy_table``'s
    ``foreign``)."""
    reader = Interp(stdout=io.StringIO())
    made = copy_initial(_initial_template(), reader)
    return reader, frozenset(map(id, made.values()))


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
    "CopyError",
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
    "copy_table",
    "cvlit",
    "cvx",
    "data_path",
    "is_executable",
    "load_arch_dict",
    "mask_to_kind",
    "new_interp",
    "new_reader",
    "ps_key",
    "read_data",
    "read_initial",
    "type_name",
]
