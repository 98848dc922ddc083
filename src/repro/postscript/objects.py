"""Object model for ldb's embedded PostScript dialect.

The paper (Sec. 5) describes the dialect's deviations from Adobe PostScript:

* strings are immutable (for compatibility with Modula-3 ``TEXT``) — we wrap
  Python ``str``;
* there are no ``save``/``restore`` operators — memory is reclaimed by the
  host garbage collector;
* there are no substrings or subarrays;
* interpreter errors raise host-language exceptions (here: :class:`PSError`);
* files are readers or writers;
* font and imaging types are omitted; debugging types (abstract memories and
  locations, see :mod:`repro.postscript.memops`) are added.

Every PostScript object carries an attribute that says whether it is literal
or executable; the distinction is explicit, never inferred from context
(Sec. 5).  Python ``int``, ``float`` and ``bool`` stand in for PostScript
numbers and booleans, which are always literal.  ``None`` is the PostScript
``null`` object.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class PSError(Exception):
    """A PostScript interpreter error.

    ``errname`` is the standard PostScript error name (``typecheck``,
    ``stackunderflow``, ``undefined``, ``rangecheck`` ...).  The paper notes
    that interpreter errors raise Modula-3 exceptions; ``PSError`` is the
    Python analog, and it cooperates with the ``stopped`` operator.
    """

    def __init__(self, errname: str, detail: str = ""):
        self.errname = errname
        self.detail = detail
        message = errname if not detail else "%s: %s" % (errname, detail)
        super().__init__(message)


class PSStop(Exception):
    """Raised by the ``stop`` operator; caught by ``stopped``."""


class PSExit(Exception):
    """Raised by ``exit``; caught by the enclosing looping operator."""


class Name:
    """A PostScript name.

    Names may be literal (``/foo``) or executable (``foo``).  Name characters
    include anything that is not whitespace or a delimiter, so names such as
    ``&elemsize`` used by the paper's printer procedures are ordinary names.
    """

    __slots__ = ("text", "literal")

    def __init__(self, text: str, literal: bool = False):
        self.text = text
        self.literal = literal

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Name) and other.text == self.text

    def __hash__(self) -> int:
        return hash(("psname", self.text))

    def __repr__(self) -> str:
        return ("/" if self.literal else "") + self.text


class String:
    """An immutable PostScript string.

    Strings are literal by default; ``cvx`` produces an executable string,
    which, when executed, is scanned and interpreted as PostScript source.
    """

    __slots__ = ("text", "literal")

    def __init__(self, text: str, literal: bool = True):
        self.text = text
        self.literal = literal

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, String) and other.text == self.text

    def __hash__(self) -> int:
        return hash(("psstring", self.text))

    def __repr__(self) -> str:
        return "(%s)" % self.text


class PSArray:
    """A PostScript array; an executable array is a procedure."""

    __slots__ = ("items", "literal")

    def __init__(self, items: Optional[List[Any]] = None, literal: bool = True):
        self.items = items if items is not None else []
        self.literal = literal

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def __getitem__(self, index: int) -> Any:
        return self.items[index]

    def __setitem__(self, index: int, value: Any) -> None:
        self.items[index] = value

    def __repr__(self) -> str:
        opener, closer = ("{", "}") if not self.literal else ("[", "]")
        return opener + " " + " ".join(repr(x) for x in self.items) + " " + closer


class PSDict:
    """A PostScript dictionary.

    Keys are normalized with :func:`ps_key` so that the name ``/x``, the
    executable name ``x``, and the string ``(x)`` all denote the same slot,
    matching PostScript's key-equality rules.
    """

    __slots__ = ("store", "literal")

    def __init__(self, store: Optional[Dict[Any, Any]] = None):
        self.store = store if store is not None else {}
        self.literal = True

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, key: Any) -> bool:
        return ps_key(key) in self.store

    def get(self, key: Any, default: Any = None) -> Any:
        return self.store.get(ps_key(key), default)

    def __getitem__(self, key: Any) -> Any:
        norm = ps_key(key)
        if norm not in self.store:
            raise PSError("undefined", _key_text(norm))
        return self.store[norm]

    def __setitem__(self, key: Any, value: Any) -> None:
        self.store[ps_key(key)] = value

    def __delitem__(self, key: Any) -> None:
        norm = ps_key(key)
        if norm not in self.store:
            raise PSError("undefined", _key_text(norm))
        del self.store[norm]

    def keys(self) -> Iterator[Any]:
        return iter(self.store.keys())

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self.store.items())

    def __repr__(self) -> str:
        inner = " ".join("/%s %r" % (k, v) for k, v in self.store.items())
        return "<< %s >>" % inner


class Operator:
    """A built-in operator: a named host function over the interpreter."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self.fn = fn
        # operators are always executable

    literal = False

    def __repr__(self) -> str:
        return "--%s--" % self.name


class Mark:
    """The mark object pushed by ``[``, ``<<`` and ``mark``."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = "mark"):
        self.kind = kind

    literal = True

    def __repr__(self) -> str:
        return "-mark-"


class Reader:
    """A PostScript file object open for reading.

    The paper replaces PostScript files with Modula-3 readers and writers;
    we wrap any object with a ``readline()``/``read()`` method, e.g. an open
    pipe from the expression server.  An executable reader, when executed,
    is scanned and interpreted until end of stream — that is how ldb
    implements "interpret PostScript until the expression server tells it to
    stop" via ``cvx stopped``.
    """

    __slots__ = ("stream", "literal", "name")

    def __init__(self, stream: Any, name: str = "<reader>"):
        self.stream = stream
        self.literal = True
        self.name = name

    def __repr__(self) -> str:
        return "-reader:%s-" % self.name


class Writer:
    """A PostScript file object open for writing (wraps ``write()``)."""

    __slots__ = ("stream", "literal", "name")

    def __init__(self, stream: Any, name: str = "<writer>"):
        self.stream = stream
        self.literal = True
        self.name = name

    def write(self, text: str) -> None:
        self.stream.write(text)

    def __repr__(self) -> str:
        return "-writer:%s-" % self.name


#: The PostScript ``null`` object.
NULL = None


def ps_key(key: Any) -> Any:
    """Normalize ``key`` for use as a dictionary key.

    Names and strings with the same text are the same key; other hashable
    objects are used directly.
    """
    if isinstance(key, Name):
        return key.text
    if isinstance(key, String):
        return key.text
    if isinstance(key, (PSArray, PSDict)):
        return id(key)
    return key


def _key_text(norm: Any) -> str:
    return norm if isinstance(norm, str) else repr(norm)


def is_executable(obj: Any) -> bool:
    """True if executing ``obj`` does something other than push it."""
    if isinstance(obj, Operator):
        return True
    if isinstance(obj, (Name, String, PSArray, Reader)):
        return not obj.literal
    return False


def cvlit(obj: Any) -> Any:
    """Return a literal version of ``obj`` (the ``cvlit`` operator)."""
    if isinstance(obj, Name):
        return Name(obj.text, literal=True)
    if isinstance(obj, String):
        return String(obj.text, literal=True)
    if isinstance(obj, PSArray):
        lit = PSArray(obj.items)
        lit.literal = True
        return lit
    if isinstance(obj, Reader):
        lit = Reader(obj.stream, obj.name)
        return lit
    return obj


def cvx(obj: Any) -> Any:
    """Return an executable version of ``obj`` (the ``cvx`` operator)."""
    if isinstance(obj, Name):
        return Name(obj.text, literal=False)
    if isinstance(obj, String):
        return String(obj.text, literal=False)
    if isinstance(obj, PSArray):
        exe = PSArray(obj.items)
        exe.literal = False
        return exe
    if isinstance(obj, Reader):
        exe = Reader(obj.stream, obj.name)
        exe.literal = False
        return exe
    return obj


def type_name(obj: Any) -> str:
    """The PostScript type name of ``obj`` (the ``type`` operator)."""
    if obj is None:
        return "nulltype"
    if isinstance(obj, bool):
        return "booleantype"
    if isinstance(obj, int):
        return "integertype"
    if isinstance(obj, float):
        return "realtype"
    if isinstance(obj, Name):
        return "nametype"
    if isinstance(obj, String):
        return "stringtype"
    if isinstance(obj, PSArray):
        return "arraytype"
    if isinstance(obj, PSDict):
        return "dicttype"
    if isinstance(obj, Operator):
        return "operatortype"
    if isinstance(obj, Mark):
        return "marktype"
    if isinstance(obj, Reader):
        return "readertype"
    if isinstance(obj, Writer):
        return "writertype"
    # Extension types (abstract memories, locations) report their own names.
    name = getattr(obj, "ps_type_name", None)
    if name is not None:
        return name
    return "foreigntype"


def to_string(obj: Any) -> str:
    """Convert ``obj`` to the text the ``cvs`` / ``Put`` operators use."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        text = repr(obj)
        return text
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (Name, String)):
        return obj.text
    if isinstance(obj, Operator):
        return obj.name
    return repr(obj)
