"""The prettyprinter interface.

The paper (Sec. 5): ldb's PostScript "includes an interface to a
prettyprinter supplied with Modula-3; the prettyprinter procedures are
called by the PostScript code that prints structured data."  The ARRAY
procedure in Sec. 2, for instance, emits ``({) Put 0 Begin ... 0 Break ...
(}) Put End``.

This module supplies the Modula-3-prettyprinter analog — an Oppen-style
group/break formatter — and the four PostScript operators ``Put``,
``Break``, ``Begin``, and ``End`` over it.

Semantics:

* ``Put`` emits text;
* ``n Begin`` opens a group whose broken lines indent ``n`` further;
* ``n Break`` is an optional break point: invisible if the enclosing group
  fits on the line, otherwise a newline indented ``n`` beyond the group's
  indentation (the Modula-3 Formatter convention — the ``(, ) Put 0 Break``
  idiom in the paper's ARRAY procedure supplies its own separating space);
* ``End`` closes the group.

A group renders flat when its whole flattened width fits in the remaining
line width, which is how ``{1, 1, 2, 3}`` prints on one line but a large
array wraps and indents.
"""

from __future__ import annotations

from typing import Any, List, Union

from .objects import PSError, String, to_string


class _Group:
    __slots__ = ("indent", "items")

    def __init__(self, indent: int):
        self.indent = indent
        self.items: List[Any] = []


class _Break:
    __slots__ = ("indent",)

    def __init__(self, indent: int):
        self.indent = indent


class PrettyPrinter:
    """Groups-and-breaks formatter writing to ``out``."""

    def __init__(self, out: Any, width: int = 72):
        self.out = out
        self.width = width
        self.column = 0
        self._open: List[_Group] = []

    # -- the four interface procedures ---------------------------------

    def put(self, text: str) -> None:
        if self._open:
            self._open[-1].items.append(text)
        else:
            self._emit_text(text)

    def brk(self, indent: int) -> None:
        if self._open:
            self._open[-1].items.append(_Break(indent))
        # outside any group a potential break is invisible

    def begin(self, indent: int) -> None:
        self._open.append(_Group(indent))

    def end(self) -> None:
        if not self._open:
            raise PSError("rangecheck", "prettyprinter End without Begin")
        group = self._open.pop()
        if self._open:
            self._open[-1].items.append(group)
        else:
            self._render(group, self.column)

    def newline(self) -> None:
        """An unconditional newline, resetting the current column."""
        while self._open:  # close any dangling groups defensively
            self.end()
        self.out.write("\n")
        self.column = 0

    # -- rendering ------------------------------------------------------

    def _emit_text(self, text: str) -> None:
        self.out.write(text)
        last_nl = text.rfind("\n")
        if last_nl >= 0:
            self.column = len(text) - last_nl - 1
        else:
            self.column += len(text)

    def _flat_width(self, item: Union[str, _Break, _Group]) -> int:
        if isinstance(item, str):
            return len(item)
        if isinstance(item, _Break):
            return 0
        return sum(self._flat_width(sub) for sub in item.items)

    def _render(self, group: _Group, base: int) -> None:
        flat = self._flat_width(group)
        if base + flat <= self.width:
            self._render_flat(group)
        else:
            indent = base + group.indent
            for item in group.items:
                if isinstance(item, str):
                    self._emit_text(item)
                elif isinstance(item, _Break):
                    self.out.write("\n" + " " * (indent + item.indent))
                    self.column = indent + item.indent
                else:
                    self._render(item, self.column)

    def _render_flat(self, group: _Group) -> None:
        for item in group.items:
            if isinstance(item, str):
                self._emit_text(item)
            elif isinstance(item, _Group):
                self._render_flat(item)
            # breaks are invisible when the group renders flat


# The operators drive the running interpreter's own printer,
# ``ip.pretty``, which writes to that interpreter's stdout.

def op_put(ip) -> None:
    obj = ip.pop()
    ip.pretty.put(obj.text if isinstance(obj, String) else to_string(obj))


def op_break(ip) -> None:
    ip.pretty.brk(ip.pop_int())


def op_begin(ip) -> None:
    ip.pretty.begin(ip.pop_int())


def op_end(ip) -> None:
    ip.pretty.end()


def op_newline(ip) -> None:
    ip.pretty.newline()


def install(interp) -> None:
    """Install ``Put``/``Break``/``Begin``/``End`` and ``Newline``."""
    interp.defop("Put", op_put)
    interp.defop("Break", op_break)
    interp.defop("Begin", op_begin)
    interp.defop("End", op_end)
    interp.defop("Newline", op_newline)
