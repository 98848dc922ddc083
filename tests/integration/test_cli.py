"""Command-line UI tests: scripted sessions through the Cli class."""

import io

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb.cli import Cli

from ..ldb.helpers import FIB


def run_session(commands, source=FIB, arch="rmips", filename="fib.c"):
    exe = compile_and_link({filename: source}, arch, debug=True)
    stdin = io.StringIO("\n".join(commands) + "\nquit\n")
    out = io.StringIO()
    cli = Cli(stdin=stdin, stdout=out)
    cli.start_program(exe)
    cli.repl()
    return out.getvalue()


class TestCommands:
    def test_break_and_continue(self):
        text = run_session(["break fib", "continue"])
        assert "breakpoint at 0x" in text
        assert "stopped in fib () at fib.c:" in text

    def test_print_variable_and_expression(self):
        text = run_session(["break fib", "continue", "print n",
                            "print n * 3 + 1"])
        assert "10" in text
        assert "31" in text

    def test_print_array_via_printer(self):
        text = run_session(["break fib.c:11", "continue", "print a"])
        assert "{1, 1, 2, 3, 5" in text

    def test_set_changes_behavior(self):
        text = run_session(["break fib", "continue", "set n = 3",
                            "continue"])
        assert "1 1 2 \n" in text

    def test_backtrace(self):
        text = run_session(["break fib", "continue", "bt"])
        assert "#0  fib () at fib.c:" in text
        assert "#1  main () at fib.c:" in text

    def test_registers(self):
        text = run_session(["break fib", "continue", "regs"])
        assert "sp   0x" in text
        assert "ra   0x" in text

    def test_step_command(self):
        text = run_session(["break fib", "continue", "step", "step"])
        assert text.count("fib () at fib.c:") >= 3

    def test_next_command(self):
        text = run_session(["break fib.c:11", "continue", "next"])
        assert "fib () at fib.c:" in text

    def test_condition_command(self):
        text = run_session(["condition fib.c:8 i == 4", "continue",
                            "print i"])
        assert "stopped in fib ()" in text
        assert "(ldb) 4" in text

    def test_info_breaks(self):
        text = run_session(["break fib", "break main", "info breaks"])
        assert text.count("0x") >= 2

    def test_run_to_exit_shows_output(self):
        text = run_session(["continue"])
        assert "program exited with status 0" in text
        assert "1 1 2 3 5 8 13 21 34 55" in text

    def test_unknown_command_suggests(self):
        text = run_session(["bogus"])
        assert "unknown command" in text

    def test_error_reported_not_fatal(self):
        text = run_session(["break nonesuch", "print n + ", "continue"])
        assert "ldb:" in text
        assert "program exited" in text

    def test_targets_listing(self):
        text = run_session(["targets"])
        assert "* t0 (rmips) stopped" in text

    def test_where(self):
        text = run_session(["break fib", "continue", "where"])
        assert "fib () at fib.c:" in text


RUNAWAY = """int spins;
int main(void)
{
    for (;;)
        spins = spins + 1;
    return 0;
}
"""


@pytest.mark.parametrize("record", (False, True))
def test_a_timed_out_continue_leaves_the_repl_running(record):
    """A runaway target outlives ``continue``'s wait: the CLI says the
    target is still running and goes on reading commands."""
    exe = compile_and_link({"spin.c": RUNAWAY}, "rmips", debug=True)
    commands = (["record"] if record else []) + ["continue", "continue",
                                                 "targets"]
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO("\n".join(commands) + "\nquit\n"),
              stdout=out)
    cli.start_program(exe)
    wait = cli.ldb.events.wait
    cli.ldb.events.wait = lambda *args, **kw: wait(*args, timeout=0.2, **kw)
    cli.repl()
    text = out.getvalue()
    assert text.count("target t0 is still running") == 2
    assert "* t0 (rmips) running" in text
