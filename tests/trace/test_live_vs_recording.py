"""A live time-travel session and its saved recording answer alike.

The live phase drives a recording session with random breakpoints,
stores to ``g``, continues, reverse-continues and gotos, then saves the
file.  The live session and the reopened recording both go back to the
recording's base and run the same random gotos, reverse commands,
continues and prints; after every command they must report the same
result or error text, position, stop pc, stop identity and ``g``.

Two fixed walks pin what the file's stores must survive: a continue
after travelling back past a store, and re-recording a replayed
session."""

import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.breakpoints import BreakpointError
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES
from repro.trace import DivergenceError

LOOP = """int g;
void mark(void) { }
int main(void) {
    int i;
    for (i = 0; i < 6; i++) {
        g = g + 1;
        mark();
    }
    return 0;
}
"""

_EXES = {}


def loop_exe(arch):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"loop.c": LOOP}, arch, debug=True)
    return _EXES[arch]


def along(first, last, arg):
    """``arg`` percent of the way from ``first`` to a bit past ``last``."""
    return first + (last + 40 - first) * arg // 100


def apply(ldb, target, command, arg):
    """Run one command; its result, or the text of its error."""
    if target.state != "stopped":
        return target.state
    try:
        if command == "break":
            (ldb.break_at_function("mark", target) if arg % 2
             else ldb.break_at_line("loop.c", 6, target))
        elif command == "set":
            ldb.assign("g = %d" % (100 + arg), target=target)
        elif command == "continue":
            return ldb.run_to_stop(target)
        elif command == "goto":
            return ldb.goto_icount(arg, target)
        elif command == "print":
            return ldb.evaluate("g", target=target)
        else:
            return getattr(ldb, command)(target).icount
    except (TargetError, BreakpointError, DivergenceError) as err:
        return str(err)
    return None


def observe(ldb, target):
    if target.state != "stopped":
        return (target.state,)
    return (target.current_icount(), target.stop_pc(), target.signo,
            target.sigcode, ldb.evaluate("g", target=target))


def live_phase(ldb, target, commands):
    for command, arg in commands:
        if command == "goto":
            icounts = [ck.icount for ck in target.replay.ring.entries]
            arg = along(min(icounts), max(icounts), arg)
        apply(ldb, target, command, arg)


def walk_alike(first, second, commands):
    """Both sessions step off the recording's base and go back to it:
    a goto from elsewhere restores the base's checkpoint, so both stand
    in its arrival state, whatever stores either made where it stood.
    Then they run ``commands``.  Every answer and every stop must
    match."""
    recording = second[1].recording
    base = recording.meta.base_icount
    for ldb, target in (first, second):
        apply(ldb, target, "goto", base + 1)
    steps = [("goto", base)] + [
        (command, along(base, recording.final_icount, arg)
         if command == "goto" else arg) for command, arg in commands]
    for command, arg in steps:
        answers = [(apply(ldb, target, command, arg), observe(ldb, target))
                   for ldb, target in (first, second)]
        assert answers[0] == answers[1], (command, arg)


def reopen(path):
    ldb = Ldb(stdout=io.StringIO())
    return ldb, ldb.open_recording(path)


def live_against_file(arch, path, live_commands, walk_commands):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(loop_exe(arch))
    ldb.start_recording(path=path, interval=13)
    live_phase(ldb, target, live_commands)
    if target.state == "stopped":
        ldb.record_save()
        walk_alike((ldb, target), reopen(path), walk_commands)


LIVE = st.lists(st.tuples(
    st.sampled_from(("break", "set", "continue", "continue",
                     "reverse_continue", "goto")),
    st.integers(0, 100)), min_size=1, max_size=10)

WALK = st.lists(st.tuples(
    st.sampled_from(("goto", "reverse_continue", "reverse_step",
                     "continue", "print")),
    st.integers(0, 100)), min_size=1, max_size=8)


@pytest.mark.parametrize("arch", ARCH_NAMES)
@settings(max_examples=4, deadline=None)
@given(live=LIVE, walk=WALK)
def test_a_reopened_recording_answers_as_the_live_session(arch, live, walk):
    with tempfile.TemporaryDirectory() as scratch:
        live_against_file(arch, os.path.join(scratch, "p.ldbrec"), live,
                          walk)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_a_continue_after_travelling_back_reapplies_the_store(arch,
                                                              tmp_path):
    """``set g = 100`` at hit 2, on to hit 3, back to hit 1: reaching
    hit 3 again shows g = 101 whether by goto or by continue, live and
    replayed alike."""
    path = str(tmp_path / "back.ldbrec")
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(loop_exe(arch))
    ldb.start_recording(path=path, interval=13)
    ldb.break_at_function("mark")
    ldb.run_to_stop()
    ldb.run_to_stop()
    ldb.assign("g = 100")
    ldb.run_to_stop()
    third = target.current_icount()
    for how in ("goto", "continue"):
        ldb.reverse_continue()
        ldb.reverse_continue()
        if how == "goto":
            ldb.goto_icount(third)
        else:
            ldb.run_to_stop()
            ldb.run_to_stop()
        assert target.current_icount() == third
        assert ldb.evaluate("g") == 101, how
    ldb.reverse_continue()
    ldb.reverse_continue()
    ldb.record_save()
    walk_alike((ldb, target), reopen(path),
               [("continue", 0)] * 4 + [("print", 0)])


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_re_recording_a_replayed_session_keeps_the_files_stores(arch,
                                                               tmp_path):
    """Record ``set g = 100`` at hit 2 and save; reopen, record that
    session to a second file from its base and save: the second file
    holds the store and replays as the session it was recorded from."""
    first_path = str(tmp_path / "first.ldbrec")
    second_path = str(tmp_path / "second.ldbrec")
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(loop_exe(arch))
    ldb.start_recording(path=first_path, interval=13)
    ldb.break_at_function("mark")
    ldb.run_to_stop()
    ldb.run_to_stop()
    ldb.assign("g = 100")
    for _ in range(4):
        ldb.run_to_stop()
    assert len(ldb.record_save().inputs) == 1
    replayed, reopened = reopen(first_path)
    replayed.start_recording(path=second_path)
    replayed.goto_icount(reopened.recording.meta.base_icount)
    for _ in range(4):
        assert replayed.run_to_stop() == "stopped"
    assert replayed.evaluate("g") == 102
    assert len(replayed.record_save().inputs) == 1
    walk_alike((replayed, reopened), reopen(second_path),
               [("continue", 0)] * 4 + [("reverse_continue", 0),
                                        ("print", 0)])
