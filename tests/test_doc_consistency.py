"""PROTOCOL.md must track the protocol module (the CI check, as a
tier-1 test so drift fails locally too, not just in Actions)."""

import importlib.util
import sys
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "tools" / "check_protocol_doc.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_protocol_doc", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_protocol_spec_matches_protocol_module(capsys):
    checker = _load_checker()
    status = checker.check()
    out = capsys.readouterr()
    assert status == 0, out.err
    assert "documents all" in out.out


def test_checker_flags_missing_and_phantom_names():
    checker = _load_checker()
    code = checker.defined_names("MSG_FETCH = 1\nERR_BAD_SPACE = 2\n")
    assert code == {"MSG_FETCH", "ERR_BAD_SPACE"}
    doc = checker.documented_names("`MSG_FETCH` and the phantom MSG_GHOST")
    assert doc == {"MSG_FETCH", "MSG_GHOST"}
    # a comparison on these sets is exactly what check() reports on
    assert sorted(code - doc) == ["ERR_BAD_SPACE"]   # undocumented
    assert sorted(doc - code) == ["MSG_GHOST"]       # phantom


def test_checker_ignores_prose_that_is_not_a_constant():
    checker = _load_checker()
    assert checker.documented_names("messages, features, errors") == set()
    # definitions must be at column 0 (not mentions in comments/docstrings)
    assert checker.defined_names("# MSG_OLD = 9\n    MSG_INNER = 3\n") == set()


def test_checker_holds_the_framing_sections_to_the_frame_layout():
    checker = _load_checker()
    source = ("HEADER_SIZE = 9\nTRAILER_SIZE = 4\nNO_SEQ = 0xFFFFFFFF\n"
              "PROTOCOL_VERSION = 3\n")
    stated = ("intro `HEADER_SIZE` = 5\n## 1. Framing\n`HEADER_SIZE` = 9, "
              "`TRAILER_SIZE` = 4 and `NO_SEQ` = `0xFFFFFFFF`.\n"
              "## 2. Setup\nThe current `PROTOCOL_VERSION` = 3.\n"
              "## 3. Messages\n`TRAILER_SIZE` = 0\n")
    # statements outside Secs. 1-2 are not the framing sections' business
    assert checker.layout_problems(source, stated) == []
    drifted = stated.replace("`HEADER_SIZE` = 9", "`HEADER_SIZE` = 5")
    assert checker.layout_problems(source, drifted) == [
        "PROTOCOL.md Secs. 1-2 state HEADER_SIZE as [5], but protocol.py "
        "defines 9"]
    silent = stated.replace("`PROTOCOL_VERSION` = 3", "version three")
    assert checker.layout_problems(source, silent) == [
        "PROTOCOL.md Secs. 1-2 do not state `PROTOCOL_VERSION` = 3"]
    two_framings = stated.replace("## 2. Setup", "plain `HEADER_SIZE` = 5\n"
                                  "## 2. Setup")
    assert checker.layout_problems(source, two_framings) == [
        "PROTOCOL.md Secs. 1-2 state HEADER_SIZE as [5, 9], but "
        "protocol.py defines 9"]


def test_checker_runs_as_a_script():
    import subprocess
    proc = subprocess.run([sys.executable, str(CHECKER)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_checker_holds_the_verb_table_to_the_api():
    checker = _load_checker()
    source = ('        self._verbs = {\n'
              '            "ping": self._cmd_ping,\n'
              '            "goto": self._cmd_goto,\n'
              '        }\n')
    doc = ("## Appendix A\n| op | fields |\n|---|---|\n| `spawn` | x |\n"
           "### A.4 The command verbs\n| verb | args |\n|---|---|\n"
           "| `ping` | — |\n| `goto` | `icount` |\n\n## Appendix B\n"
           "| `other` | y |\n")
    # rows outside A.4 (the ops table, other appendices) are not verbs
    assert checker.verb_problems(source, doc) == []
    missing = doc.replace("| `goto` | `icount` |\n", "")
    assert checker.verb_problems(source, missing) == [
        "DebugAPI verb goto is not in PROTOCOL.md App. A.4"]
    extra = doc.replace("| `ping` | — |\n",
                        "| `ping` | — |\n| `rewind` | — |\n")
    assert checker.verb_problems(source, extra) == [
        "PROTOCOL.md App. A.4 lists rewind, which DebugAPI does not answer"]
