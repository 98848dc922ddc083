#!/usr/bin/env python
"""Doc-consistency check: PROTOCOL.md vs. the defining modules.

The wire-protocol spec is only useful while it matches the code, so CI
fails when they drift.  Three checks:

* a two-way set comparison of the symbolic names — every ``MSG_*`` and
  ``ERR_*`` constant *defined* in the protocol's source modules must be
  documented in ``PROTOCOL.md``, and the spec must not document a name
  the code does not define (a renamed or removed message would
  otherwise live on in the spec);
* the frame layout — Secs. 1-2 of ``PROTOCOL.md`` must state the
  header size, the trailer size, ``NO_SEQ`` and ``PROTOCOL_VERSION``
  as ``protocol.py`` defines them, each written `` `NAME` = value``,
  so the spec cannot drift back to describing another framing;
* the command verbs — the table of Appendix A.4 must list exactly the
  verbs of ``DebugAPI``'s verb table in ``ldb/api.py``, one row each.

Three modules define wire-visible vocabularies:

* ``src/repro/nub/protocol.py`` — the nub protocol (frames, features,
  nub error codes);
* ``src/repro/serve/errors.py`` — the gateway's session-layer error
  codes (PROTOCOL.md Appendix A);
* ``src/repro/ldb/api.py`` — the command-layer error codes answered
  through the gateway's ``command`` op (also Appendix A).

Exit status 0 when consistent; 1 with a per-name report otherwise.
Run from anywhere: paths resolve relative to the repository root.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (
    ROOT / "src" / "repro" / "nub" / "protocol.py",
    ROOT / "src" / "repro" / "serve" / "errors.py",
    ROOT / "src" / "repro" / "ldb" / "api.py",
)
PROTOCOL_MD = ROOT / "PROTOCOL.md"

#: a protocol constant *definition*: the name at column 0, assigned
_DEF = re.compile(r"^((?:MSG|ERR)_[A-Z0-9_]+)\s*=", re.MULTILINE)

#: any *mention* of a protocol constant name
_MENTION = re.compile(r"\b((?:MSG|ERR)_[A-Z0-9_]+)\b")

#: the frame-layout constants Secs. 1-2 must state with their values
LAYOUT = ("HEADER_SIZE", "TRAILER_SIZE", "NO_SEQ", "PROTOCOL_VERSION")
_NUMBER = r"(0x[0-9A-Fa-f]+|\d+)"
_LAYOUT_DEF = re.compile(r"^(%s)\s*=\s*%s\s*$" % ("|".join(LAYOUT), _NUMBER),
                         re.MULTILINE)
_LAYOUT_STATED = re.compile(r"`(%s)`\s*=\s*`?%s`?" % ("|".join(LAYOUT),
                                                      _NUMBER))


#: an entry of DebugAPI's verb table: ``"verb": self._cmd_verb,``
_VERB_DEF = re.compile(r'^\s+"([a-z_]+)": self\._cmd_[a-z_]+,$', re.MULTILINE)

#: a row of the A.4 table: the verb in its first column
_VERB_ROW = re.compile(r"^\| `([a-z_]+)` \|", re.MULTILINE)


def defined_names(source: str) -> set:
    return set(_DEF.findall(source))


def documented_names(text: str) -> set:
    return set(_MENTION.findall(text))


def layout_problems(source: str, doc: str) -> list:
    """What Secs. 1-2 of ``doc`` state wrongly, or leave out, of the
    frame layout ``source`` defines; empty when they agree."""
    defined = {name: int(value, 0)
               for name, value in _LAYOUT_DEF.findall(source)}
    start, end = doc.find("\n## 1."), doc.find("\n## 3.")
    sections = doc[start:end] if 0 <= start < end else ""
    stated: dict = {}
    for name, value in _LAYOUT_STATED.findall(sections):
        stated.setdefault(name, set()).add(int(value, 0))
    problems = []
    for name in LAYOUT:
        if name not in defined:
            problems.append("protocol.py defines no %s" % name)
        elif name not in stated:
            problems.append("PROTOCOL.md Secs. 1-2 do not state `%s` = %d"
                            % (name, defined[name]))
        elif stated[name] != {defined[name]}:
            problems.append("PROTOCOL.md Secs. 1-2 state %s as %s, but "
                            "protocol.py defines %d"
                            % (name, sorted(stated[name]), defined[name]))
    return problems


def verb_problems(source: str, doc: str) -> list:
    """The verbs ``source`` (``ldb/api.py``) answers that ``doc``'s
    Appendix A.4 table leaves out, and the rows it has for verbs the
    API does not answer; empty when they agree."""
    defined = set(_VERB_DEF.findall(source))
    start = doc.find("\n### A.4")
    end = doc.find("\n## ", start + 1)
    documented = set(_VERB_ROW.findall(doc[start:end])) if start >= 0 \
        else set()
    if not defined:
        return ["no DebugAPI verbs found in api.py (extraction broken?)"]
    return (["DebugAPI verb %s is not in PROTOCOL.md App. A.4" % verb
             for verb in sorted(defined - documented)]
            + ["PROTOCOL.md App. A.4 lists %s, which DebugAPI does not "
               "answer" % verb for verb in sorted(documented - defined)])


def check() -> int:
    if not PROTOCOL_MD.exists():
        print("check_protocol_doc: PROTOCOL.md is missing", file=sys.stderr)
        return 1
    code: set = set()
    for path in SOURCES:
        names = defined_names(path.read_text())
        if not names:
            print("check_protocol_doc: no protocol constants found in %s "
                  "(extraction broken?)" % path, file=sys.stderr)
            return 1
        code |= names
    doc = documented_names(PROTOCOL_MD.read_text())
    undocumented = sorted(code - doc)
    phantom = sorted(doc - code)
    for name in undocumented:
        print("check_protocol_doc: %s is defined in the source but not "
              "documented in PROTOCOL.md" % name, file=sys.stderr)
    for name in phantom:
        print("check_protocol_doc: PROTOCOL.md documents %s, which "
              "no source module defines" % name, file=sys.stderr)
    text = PROTOCOL_MD.read_text()
    problems = (layout_problems(SOURCES[0].read_text(), text)
                + verb_problems(SOURCES[2].read_text(), text))
    for problem in problems:
        print("check_protocol_doc: %s" % problem, file=sys.stderr)
    if undocumented or phantom or problems:
        return 1
    print("check_protocol_doc: PROTOCOL.md documents all %d protocol "
          "constants, the frame layout and the command verbs" % len(code))
    return 0


if __name__ == "__main__":
    sys.exit(check())
