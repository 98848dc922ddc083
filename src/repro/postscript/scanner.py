"""Scanner for ldb's PostScript dialect.

The scanner reads PostScript source incrementally — from a string or from a
stream such as the open pipe to the expression server — and yields fully
built objects: numbers, names, strings, and procedure bodies (``{...}``).

The tokens ``[``, ``]``, ``<<`` and ``>>`` are returned as executable names;
the corresponding operators (mark, array-building, dict-building) live in
systemdict, exactly as in Adobe PostScript.

Radix numbers (``16#000023d8``) are supported because the loader table
(paper Sec. 3) uses them for addresses.

The scanner matches compiled patterns over a buffer rather than stepping
through characters: one match skips whitespace and comments and takes the
next token, and one match takes each run of string text up to a paren,
escaped parens and backslashes included.  The string path matters most: the paper (Sec. 5) defers the
*lexical analysis* of quoted PostScript code by reading it as a string,
which "the scanner reads quickly", cutting symbol-table read time by 40%.
``bench_deferral.py`` measures that effect against this implementation.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, List, Optional, Union

from .objects import Name, PSArray, PSError, String

_WHITESPACE = " \t\r\n\f\0"
_DELIMITERS = "()<>[]{}/%"
_SKIP = "[{0}]*(?:%[^\n]*[{0}]*)*".format(re.escape(_WHITESPACE))
_REGULAR = "[^%s]" % re.escape(_WHITESPACE + _DELIMITERS)

#: whitespace and comments, then at most one token; ``lastgroup`` names
#: the token's kind (None: only skipped text, up to the buffer's end).
#: A regular token that starts like a number (a decimal digit, a sign or
#: a dot) is a ``number`` for :func:`parse_number` to decide; any other
#: is a ``name``.
_TOKEN = re.compile(
    _SKIP + r"(?:(?P<number>[\d+\-.]%s*)|(?P<name>%s+)|//?(?P<literal>%s*)"
    r"|(?P<brace>[{}])|(?P<mark>[\[\]]|<<|>>)|(?P<string>\()|(?P<close>\))"
    r"|(?P<angle>[<>]))?" % (_REGULAR, _REGULAR, _REGULAR))
#: kinds whose match can go on past the buffer's end: a stream refills
#: and matches again before taking them
_OPEN_ENDED = frozenset((None, "number", "name", "literal", "angle"))

#: a run of string text up to the next unescaped paren, taking the
#: escapes that stand for the character after the backslash (``\\``,
#: ``\(``, ``\)``, unknown ones) and stopping at the others
_STRING_RUN = re.compile(r"(?:[^()\\]+|\\[^0-7nrt\n])*")
_OCTAL = re.compile("[0-7]{0,3}")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\n": ""}


class CharSource:
    """A buffered character source over a string or a readable stream.

    Stream input is buffered a line at a time so that scanning an open pipe
    makes progress as soon as the writer sends a newline-terminated chunk.
    The scanner matches its compiled patterns at ``pos`` in ``buf``; a
    match that reaches the buffer's end and could go on asks :meth:`fill`
    for more.
    """

    def __init__(self, source: Union[str, Any], name: str = "<ps>"):
        self.name = name
        if isinstance(source, str):
            self.buf = source
            self._stream = None
        else:
            self.buf = ""
            self._stream = source
        self.pos = 0
        self._lines_dropped = 0

    @property
    def line(self) -> int:
        """The line the read position is on, counting from 1."""
        return 1 + self._lines_dropped + self.buf.count("\n", 0, self.pos)

    def fill(self) -> bool:
        """Append the stream's next line, dropping what is consumed;
        False at end of input."""
        if self._stream is None:
            return False
        chunk = self._stream.readline()
        if isinstance(chunk, bytes):
            chunk = chunk.decode("latin-1")
        if not chunk:
            return False
        self._lines_dropped += self.buf.count("\n", 0, self.pos)
        self.buf = self.buf[self.pos :] + chunk
        self.pos = 0
        return True


class Scanner:
    """Reads PostScript objects one at a time from a :class:`CharSource`."""

    def __init__(self, source: Union[str, Any], name: str = "<ps>"):
        self.src = source if isinstance(source, CharSource) else CharSource(source, name)

    def __iter__(self) -> Iterator[Any]:
        while True:
            obj = self.next_object()
            if obj is _EOF:
                return
            yield obj

    def next_object(self) -> Any:
        """Scan and return the next object, or the EOF sentinel.

        ``{`` builds a complete (possibly nested) procedure body.
        """
        token = self._next_token()
        if type(token) is str:  # a brace
            if token == "{":
                return self._scan_procedure()
            raise PSError("syntaxerror", "unmatched } at line %d" % self.src.line)
        return token

    def _scan_procedure(self) -> PSArray:
        items: List[Any] = []
        next_token = self._next_token
        while True:
            token = next_token()
            if type(token) is str:  # a brace
                if token == "}":
                    return PSArray(items, literal=False)
                items.append(self._scan_procedure())
            elif token is _EOF:
                raise PSError("syntaxerror", "unterminated procedure")
            else:
                items.append(token)

    def _next_token(self) -> Any:
        """The next token: an object, a brace, or the EOF sentinel."""
        src = self.src
        while True:
            buf = src.buf
            pos = src.pos
            m = _TOKEN.match(buf, pos)
            kind = m.lastgroup
            end = m.end()
            if end < len(buf) or kind not in _OPEN_ENDED:
                break
            # the skipped text or the token may go on in the stream: drop
            # the lines passed (a token holds no newline, a comment ends
            # at one) and match again over the longer buffer
            src.pos = max(pos, buf.rfind("\n", pos, end) + 1)
            if not src.fill():
                if kind is None:
                    return _EOF
                break
        src.pos = end
        if kind == "name":
            return Name(m.group(kind), False)
        if kind == "literal":
            # immediate names (//name) are treated as literal
            return Name(m.group(kind), True)
        if kind == "number":
            text = m.group(kind)
            number = parse_number(text)
            if number is not None:
                return number
            return Name(text, False)
        if kind == "brace":
            return m.group(kind)
        if kind == "mark":
            return Name(m.group(kind), False)
        if kind == "string":
            return self._scan_string()
        if kind == "close":
            raise PSError("syntaxerror", "unmatched ) at line %d" % src.line)
        if m.group(kind) == "<":
            raise PSError("syntaxerror", "hex strings are not in the dialect")
        raise PSError("syntaxerror", "stray > at line %d" % src.line)

    def _scan_string(self) -> String:
        """Scan the rest of a ``(...)`` string: nesting and backslash escapes.

        This is the dialect's fast path: each run of text up to an
        unescaped paren is one compiled match, so a string of quoted code
        costs a match per nested paren in it, not a step per character.
        Only ``\\n``, ``\\t``, ``\\r``, octal escapes and line continuations
        end a run early.
        """
        src = self.src
        depth = 1
        pieces: List[str] = []
        while True:
            buf = src.buf
            pos = src.pos
            end = _STRING_RUN.match(buf, pos).end()
            if end > pos:
                run = buf[pos:end]
                if "\\" in run:
                    # backslashes pair off from the left, as matched
                    run = "\\".join(part.replace("\\", "")
                                     for part in run.split("\\\\"))
                pieces.append(run)
            if end == len(buf):
                src.pos = end
                if not src.fill():
                    raise PSError("syntaxerror", "unterminated string")
                continue
            ch = buf[end]
            src.pos = end + 1
            if ch == ")":
                depth -= 1
                if depth == 0:
                    return String("".join(pieces))
                pieces.append(ch)
            elif ch == "(":
                depth += 1
                pieces.append(ch)
            else:
                pieces.append(self._scan_escape())

    def _scan_escape(self) -> str:
        """Consume the body of a backslash escape; answer its text."""
        src = self.src
        m = _OCTAL.match(src.buf, src.pos)
        # up to three octal digits, which may go on in the stream
        while (m.end() == len(src.buf) and m.end() - m.start() < 3
               and src.fill()):
            m = _OCTAL.match(src.buf, src.pos)
        digits = m.group()
        if digits:
            src.pos = m.end()
            return chr(int(digits, 8))
        if src.pos == len(src.buf):
            raise PSError("syntaxerror", "unterminated string escape")
        esc = src.buf[src.pos]
        src.pos += 1
        # a backslash-newline continues the line; \\, \( and \) and
        # unknown escapes stand for the character itself
        return _ESCAPES.get(esc, esc)


#: the dialect's numerals, ASCII only: a signed integer, a real with a
#: decimal point, an exponent or both, or ``base#digits``
_NUMERAL = re.compile(r"(?P<int>[+-]?[0-9]+)"
                      r"|(?P<real>[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
                      r"(?:[eE][+-]?[0-9]+)?)"
                      r"|0*(?P<base>[0-9]{1,2})#(?P<digits>.*)", re.DOTALL)
_RADIX_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def parse_number(text: str) -> Optional[Union[int, float]]:
    """The number ``text`` spells, or None if it spells none.

    The scanner and ``cvi``/``cvr`` share this rule.  Integers, reals
    and radix numbers like ``16#000023d8`` count, in ASCII only; a radix
    number (base 2 to 36, no sign) whose digits do not fit its base is a
    syntaxerror.
    """
    if text.isascii() and text.isdigit():
        kind = "int"  # most numbers in a loader table: no match needed
    else:
        m = _NUMERAL.fullmatch(text)
        if m is None:
            return None
        kind = m.lastgroup
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            # more digits than int() converts: PostScript makes an
            # integer too large for it a real
            return float(text)
    if kind == "real":
        return float(text)
    base = int(m.group("base"))
    digits = m.group("digits")
    if not 2 <= base <= 36 or not digits:
        return None
    # the strip leaves what is not a digit of the base; int() alone would
    # also take underscores, signs, 0x prefixes and other scripts' digits
    if digits.isascii() and not digits.lower().strip(_RADIX_DIGITS[:base]):
        try:
            return int(digits, base)
        except ValueError:  # more digits than int() converts
            pass
    raise PSError("syntaxerror", "bad radix number %r" % text)


class _Eof:
    def __repr__(self) -> str:
        return "<EOF>"


#: Sentinel returned by :meth:`Scanner.next_object` at end of input.
_EOF = _Eof()
EOF = _EOF
