"""The REPL is a renderer over DebugAPI.

Every REPL verb that acts on the current target is one
``DebugAPI.execute`` call of its own verb, so the REPL and the session
server's gateway share one implementation and one set of error
messages.  Whatever a line says, the REPL answers it with output, a
``usage:`` line or an ``ldb:`` line, and reads the next one.
"""

import io
import re
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb.cli import Cli

from ..ldb.helpers import FIB


@pytest.fixture(scope="module")
def fib_exe():
    return compile_and_link({"fib.c": FIB}, "rmips", debug=True)


class Recorder:
    """Wraps a Cli's ``DebugAPI.execute`` and notes each verb it runs."""

    def __init__(self, cli):
        self.verbs = []
        execute = cli.api.execute

        def wrapped(cmd, args=None, timeout=None):
            self.verbs.append(cmd)
            return execute(cmd, args, timeout)

        cli.api.execute = wrapped


def test_each_target_verb_is_one_api_call(fib_exe, tmp_path):
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.start_program(fib_exe)
    recorder = Recorder(cli)
    recording = tmp_path / "fib.ldbrec"
    core = tmp_path / "fib.core"
    cli.command("record --save %s 40" % recording)

    def line(text, verb):
        before = out.tell()
        recorder.verbs.clear()
        cli.command(text)
        said = out.getvalue()[before:]
        assert recorder.verbs == [verb], (text, said)
        assert "ldb:" not in said and "usage:" not in said, (text, said)
        return said

    line("break fib", "break")
    line("condition fib.c:8 i == 4", "break")
    assert "stopped in fib ()" in line("run", "continue")
    line("step", "step")
    line("next", "next")
    assert "10" in line("print n", "print")
    assert "31" in line("print n * 3 + 1", "print")
    line("set n = 10", "set")
    assert "#1  main () at fib.c:" in line("bt", "backtrace")
    line("where", "where")
    assert line("info breaks", "breaks").count("0x") == 2
    assert "engine " in line("sim", "sim_stats")
    landed = int(re.search(r"back at icount (\d+): fib \(\) at fib\.c:",
                           line("rc", "reverse_continue")).group(1))
    assert "back at icount" in line("rs", "reverse_step")
    assert "back at icount" in line("rn", "reverse_next")
    assert ("now at icount %d" % landed) in line("goto %d" % landed, "goto")
    assert "recording saved to" in line("record save", "record_save")
    assert "core written to" in line("dumpcore %s" % core, "dumpcore")
    assert "recording stopped" in line("record stop", "record_stop")
    assert "killed" in line("kill", "kill")
    assert "replay target t1 (rmips)" in line("replay %s" % recording,
                                               "replay_open")


def test_the_repl_keeps_no_copy_of_the_api_verbs():
    """No file:line parse, no print-or-evaluate choice, no stop lookup
    and no engine counters of its own: the API answers those."""
    import repro.ldb.cli as cli_module
    source = Path(cli_module.__file__).read_text()
    for copy in ('partition(":")', 'rpartition(":")', "isidentifier",
                 "where_am_i", "print_variable", "evaluate(", ".engine",
                 "break_at", "ldb.reverse", "goto_icount"):
        assert copy not in source, copy


#: each raised out of ``Cli.command`` before the REPL ran its verbs
#: through the API
MALFORMED = ("break fib.c:xyz", "goto abc", "goto", "record abc", "record 0",
             "record --save F abc", "record --save", "target nosuch",
             "condition fib", "serve abc", "serve 70000")
WITHOUT_A_TARGET = ("icount", "kill", "info breaks", "info checkpoints",
                    "checkpoint", "where", "bt", "regs", "sim", "continue",
                    "record", "record save", "rc", "goto 5",
                    "dumpcore x.core")


def answers(cli, out, text):
    before = out.tell()
    cli.command(text)
    return out.getvalue()[before:]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_input_answers_a_line(fib_exe, text):
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.start_program(fib_exe)
    said = answers(cli, out, text)
    assert said.startswith(("ldb: ", "usage: ")), said
    assert "stopped in fib ()" in answers(cli, out, "break fib") + \
        answers(cli, out, "continue")


@pytest.mark.parametrize("text", WITHOUT_A_TARGET)
def test_no_target_answers_a_line(text):
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    said = answers(cli, out, text)
    assert said.startswith(("ldb: ", "usage: ")), said
    assert "no current target" in said or said.startswith("usage: ")
    assert answers(cli, out, "targets") == ""


def test_a_deeply_nested_expression_answers(fib_exe):
    """The expression server's parser recurses: an expression nested
    past the interpreter's stack is an error the REPL reports, and the
    next expression is answered as before."""
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.start_program(fib_exe)
    answers(cli, out, "break fib")
    answers(cli, out, "continue")
    nested = "print " + "(" * 3000 + "n" + ")" * 3000
    worker = threading.Thread(target=cli.command, args=(nested,),
                              daemon=True)
    worker.start()
    worker.join(30.0)
    assert not worker.is_alive()
    assert "ldb: expression nested too deeply" in out.getvalue()
    assert answers(cli, out, "print n * 2") == "20\n"


#: every verb the REPL has but `serve` and `quit`, aliases included
VERBS = ("break", "b", "condition", "run", "continue", "c", "r", "step",
         "s", "next", "n", "record", "record save", "record stop",
         "record --save", "replay", "reverse-continue", "rc",
         "reverse-step", "rs", "reverse-next", "rn", "goto", "icount",
         "checkpoint", "print", "p", "set", "backtrace", "bt", "where",
         "core", "dumpcore", "registers", "regs", "info", "info breaks",
         "info checkpoints", "stats", "sim", "trace", "trace dump",
         "triage", "targets", "target", "kill", "sessions", "nosuch")

#: argument text: words, numbers, C-ish punctuation and file names
WORDS = st.one_of(
    st.sampled_from(("fib", "main", "n", "a", "i", "fib.c", "fib.c:8",
                     "fib.c:xyz", ":", "=", "+", "*", "[", "]", "(", ")",
                     "stop", "save", "--save", "on", "off", "dump", "t0",
                     "t9", "breaks", "checkpoints", "-1", "0", "7",
                     "99999999999999999999999", "1e9", "nan", "'",
                     '"', "\\", "{", "}")),
    st.integers(-2**70, 2**70).map(str),
    st.text(st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=8))

#: the name of a drawn path inside the test's temporary directory
PATH = st.text("abcxyz019._-", min_size=1, max_size=8)

PATH_VERBS = ("replay", "core", "dumpcore", "record --save", "record save",
              "trace dump", "triage")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(with_target=st.booleans(),
       lines=st.lists(st.tuples(st.sampled_from(VERBS),
                                st.lists(WORDS, max_size=4), PATH),
                      min_size=1, max_size=6))
def test_no_line_raises_out_of_the_repl(fib_exe, tmp_path, with_target,
                                        lines):
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    wait = cli.ldb.events.wait
    # a drawn `continue` may run the target off its breakpoints: keep
    # each wait short, the REPL answers a runaway as still running
    cli.ldb.events.wait = lambda *a, **kw: wait(*a, **dict(kw, timeout=2.0))
    if with_target:
        cli.start_program(fib_exe)
    for verb, words, name in lines:
        if verb in PATH_VERBS:
            words = [str(tmp_path / name)] + words[:1]
        cli.command(" ".join([verb] + words))
    assert not cli.done
