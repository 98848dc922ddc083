"""The embedded PostScript interpreter.

Embedded in ldb is an interpreter for a dialect of PostScript (paper
Sec. 2).  One interpreter instance supports both the code in symbol-table
entries and expression evaluation.

Key behaviours this module implements:

* the operand stack, the dictionary stack, and execution of the four kinds
  of executable objects (names, operators, procedures, strings/readers);
* dynamic name binding through the dictionary stack, which ldb manipulates
  explicitly: when ldb changes target architectures it rebinds
  machine-dependent names by pushing a per-architecture dictionary
  (Sec. 5) — see :meth:`Interp.push_dict` / :meth:`Interp.pop_dict`;
* ``stopped`` applied to an executable reader, which is how ldb interprets
  PostScript arriving on the pipe from the expression server until the
  server tells it to stop (Sec. 3: ``cvx stopped``).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Optional, Union

from .objects import (
    Name,
    Operator,
    PSArray,
    PSDict,
    PSError,
    PSStop,
    Reader,
    String,
)
from .ops_core import OPERATORS
from .printer import PrettyPrinter
from .scanner import EOF, Scanner


class Interp:
    """A PostScript interpreter instance.

    ``stdout`` receives the output of the printing operators; pass a
    ``StringIO`` to capture it.  The systemdict starts with the whole
    operator set (:data:`~repro.postscript.ops_core.OPERATORS`, shared by
    every interpreter); :func:`repro.postscript.new_interp` adds the
    initial PostScript.
    """

    def __init__(self, stdout: Any = None):
        self.ostack: List[Any] = []
        self.systemdict = PSDict()
        self.userdict = PSDict()
        self.dstack: List[PSDict] = [self.systemdict, self.userdict]
        self.stdout = stdout if stdout is not None else sys.stdout
        #: the error that made the outermost ``stopped`` return true, or
        #: None when it stopped via ``stop`` (the $error analog: hosts
        #: read it to tell "done" from "failed")
        self.stop_error: Optional[PSError] = None
        #: the prettyprinter ``Put``/``Break``/``Begin``/``End`` drive
        self.pretty = PrettyPrinter(self)
        self.systemdict["systemdict"] = self.systemdict
        self.systemdict["userdict"] = self.userdict
        self.systemdict.store.update(OPERATORS)

    # ------------------------------------------------------------------
    # operand stack

    def push(self, obj: Any) -> None:
        self.ostack.append(obj)

    def pop(self) -> Any:
        if not self.ostack:
            raise PSError("stackunderflow")
        return self.ostack.pop()

    def pop_n(self, n: int) -> List[Any]:
        """Pop ``n`` objects; the result is in stack order (deepest first)."""
        if len(self.ostack) < n:
            raise PSError("stackunderflow")
        if n == 0:
            return []
        taken = self.ostack[-n:]
        del self.ostack[-n:]
        return taken

    def peek(self, depth: int = 0) -> Any:
        if len(self.ostack) <= depth:
            raise PSError("stackunderflow")
        return self.ostack[-1 - depth]

    def pop_int(self) -> int:
        obj = self.pop()
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise PSError("typecheck", "expected integer, got %r" % (obj,))
        return obj

    def pop_number(self) -> Union[int, float]:
        obj = self.pop()
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise PSError("typecheck", "expected number, got %r" % (obj,))
        return obj

    def pop_bool(self) -> bool:
        obj = self.pop()
        if not isinstance(obj, bool):
            raise PSError("typecheck", "expected boolean, got %r" % (obj,))
        return obj

    def pop_string(self) -> String:
        obj = self.pop()
        if not isinstance(obj, String):
            raise PSError("typecheck", "expected string, got %r" % (obj,))
        return obj

    def pop_name_or_string_text(self) -> str:
        obj = self.pop()
        if isinstance(obj, (Name, String)):
            return obj.text
        raise PSError("typecheck", "expected name or string, got %r" % (obj,))

    def pop_array(self) -> PSArray:
        obj = self.pop()
        if not isinstance(obj, PSArray):
            raise PSError("typecheck", "expected array, got %r" % (obj,))
        return obj

    def pop_proc(self) -> PSArray:
        obj = self.pop()
        if not isinstance(obj, PSArray) or obj.literal:
            raise PSError("typecheck", "expected procedure, got %r" % (obj,))
        return obj

    def pop_dict(self) -> PSDict:
        obj = self.pop()
        if not isinstance(obj, PSDict):
            raise PSError("typecheck", "expected dict, got %r" % (obj,))
        return obj

    # ------------------------------------------------------------------
    # dictionary stack

    def push_dict(self, d: PSDict) -> None:
        self.dstack.append(d)

    def pop_dict_stack(self) -> PSDict:
        if len(self.dstack) <= 2:
            raise PSError("dictstackunderflow")
        return self.dstack.pop()

    def lookup(self, text: str) -> Any:
        """Resolve ``text`` through the dictionary stack, top to bottom."""
        for d in reversed(self.dstack):
            if text in d.store:
                return d.store[text]
        raise PSError("undefined", text)

    def lookup_dict(self, text: str) -> Optional[PSDict]:
        """The dictionary in which ``text`` is defined (the ``where`` op)."""
        for d in reversed(self.dstack):
            if text in d.store:
                return d
        return None

    def define(self, name: str, value: Any) -> None:
        """Define ``name`` in the current (topmost) dictionary."""
        self.dstack[-1][name] = value

    def defop(self, name: str, fn: Callable[["Interp"], None]) -> None:
        """Register an operator in this interpreter's systemdict."""
        self.systemdict[name] = Operator(name, fn)

    # ------------------------------------------------------------------
    # execution

    def execute(self, obj: Any) -> None:
        """Execute one object fetched from a stack or returned by a lookup.

        Literal objects are pushed.  Executable names are resolved and their
        values executed; a value that is a procedure runs.
        """
        while True:
            if isinstance(obj, Operator):
                obj.fn(self)
                return
            if isinstance(obj, Name):
                if obj.literal:
                    self.push(obj)
                    return
                obj = self.lookup(obj.text)
                if isinstance(obj, PSArray) and not obj.literal:
                    self.run_proc(obj)
                    return
                continue  # execute the resolved value
            if isinstance(obj, PSArray):
                if obj.literal:
                    self.push(obj)
                else:
                    self.run_proc(obj)
                return
            if isinstance(obj, String):
                if obj.literal:
                    self.push(obj)
                else:
                    self.run_source(obj.text)
                return
            if isinstance(obj, Reader):
                if obj.literal:
                    self.push(obj)
                else:
                    self.run_source(obj.stream, name=obj.name)
                return
            self.push(obj)
            return

    def run_proc(self, proc: PSArray) -> None:
        """Run the body of a procedure (an executable array).

        Inside a body, nested procedures are pushed, not run — they are
        deferred, as in standard PostScript.
        """
        for element in proc.items:
            if isinstance(element, PSArray):
                self.push(element)
            elif isinstance(element, (Name, Operator)):
                self.execute(element)
            else:
                self.push(element)

    def call(self, obj: Any) -> None:
        """Apply ``obj`` as the body of a control operator (``if`` etc.).

        Procedures run; any other executable object is executed; literal
        objects are pushed.
        """
        if isinstance(obj, PSArray) and not obj.literal:
            self.run_proc(obj)
        else:
            self.execute(obj)

    def run_source(self, source: Any, name: str = "<ps>") -> None:
        """Scan and execute PostScript source (a string or a stream).

        Objects are executed as they are scanned, so running an open pipe
        makes progress incrementally; ``stop`` raised mid-stream leaves the
        rest of the stream unread (the caller owns the stream position).
        """
        scanner = Scanner(source, name)
        while True:
            obj = scanner.next_object()
            if obj is EOF:
                return
            if isinstance(obj, PSArray):  # a {...} body scanned at top level
                self.push(obj)
            else:
                self.execute(obj)

    def run(self, source: Any, name: str = "<ps>") -> None:
        """Public entry point: scan and execute ``source``."""
        self.run_source(source, name)

    def stopped_call(self, obj: Any) -> bool:
        """Execute ``obj``; True if it stopped (``stop`` or an error).

        ``stop_error`` records *why*: the :class:`PSError` when an error
        stopped execution, None for a plain ``stop`` or a clean finish.
        The outermost ``stopped`` wins, so an inner handler that caught
        and absorbed an error leaves no stale record behind."""
        try:
            self.call(obj)
        except PSStop:
            self.stop_error = None
            return True
        except PSError as err:
            self.stop_error = err
            return True
        self.stop_error = None
        return False

    # ------------------------------------------------------------------
    # conveniences for the host program

    def result(self) -> Any:
        """Pop and return the single result of a host-initiated run."""
        return self.pop()

    def write(self, text: str) -> None:
        self.stdout.write(text)
