"""Debugger stores are inputs on live targets, as recordings treat them.

A store is logged at the position it was made.  Landing on that
position shows the arrival state, before the store; every replay that
leaves it re-applies the store; and a failed reverse command or a
``record save`` leaves the target exactly as it found it, stores
included.  The program under test adds to a global ``g`` and calls
``mark`` in a loop, so ``g`` counts the hits of ``mark``."""

import io

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES, SIGTRAP

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


def session(arch, path=None, interval=13):
    """A loop session with time travel (a recording when ``path`` is
    given) and a breakpoint on ``mark``."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(loop_exe(arch))
    if path is None:
        ldb.enable_time_travel(interval=interval)
    else:
        ldb.start_recording(path=path, interval=interval)
    ldb.break_at_function("mark")
    return ldb, target


def to_hit(ldb, target):
    assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    return target.current_icount()


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_record_save_keeps_a_store_at_the_current_stop(arch, tmp_path):
    ldb, t = session(arch, path=str(tmp_path / "a.ldbrec"))
    to_hit(ldb, t)
    to_hit(ldb, t)
    ldb.assign("g = 100")
    ldb.record_save()
    assert ldb.evaluate("g") == 100
    to_hit(ldb, t)
    assert ldb.evaluate("g") == 101


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_failed_reverse_command_keeps_a_store(arch):
    ldb, t = session(arch)
    here = to_hit(ldb, t)
    ldb.assign("g = 100")
    with pytest.raises(TargetError, match="no earlier breakpoint hit"):
        ldb.reverse_continue()
    assert t.current_icount() == here and t.at_breakpoint()
    assert ldb.evaluate("g") == 100
    to_hit(ldb, t)
    assert ldb.evaluate("g") == 101


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_one_icount_shows_one_value_across_a_store(arch):
    ldb, t = session(arch)
    first = to_hit(ldb, t)
    ldb.assign("g = 100")
    second = to_hit(ldb, t)
    assert ldb.evaluate("g") == 101
    # landing on the store's position shows the arrival state
    assert ldb.reverse_continue().icount == first
    assert ldb.evaluate("g") == 1
    # and every replay leaving it re-applies the store
    assert ldb.goto_icount(second) == "stopped"
    assert t.current_icount() == second
    assert ldb.evaluate("g") == 101
    ldb.goto_icount(first)
    assert ldb.evaluate("g") == 1
    to_hit(ldb, t)
    assert ldb.evaluate("g") == 101


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_save_after_travelling_back_across_a_store_replays(arch, tmp_path):
    path = str(tmp_path / "b.ldbrec")
    ldb, t = session(arch, path=path)
    to_hit(ldb, t)
    ldb.assign("g = 100")
    to_hit(ldb, t)
    to_hit(ldb, t)
    ldb.reverse_continue()
    ldb.reverse_continue()  # back on the store's position
    assert ldb.evaluate("g") == 1
    ldb.record_save()
    replay = Ldb(stdout=io.StringIO())
    reopened = replay.open_recording(path)
    replay.goto_icount(reopened.recording.meta.base_icount)
    seen = []
    for _ in range(3):
        assert replay.run_to_stop() == "stopped"
        seen.append(replay.evaluate("g"))
    assert seen == [1, 101, 102]
    assert replay.obs.metrics.snapshot().get("trace.replay.divergences",
                                             0) == 0


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_reopened_recording_shows_the_live_values_at_every_stop(arch,
                                                                tmp_path):
    path = str(tmp_path / "c.ldbrec")
    live, t = session(arch, path=path)
    to_hit(live, t)
    to_hit(live, t)
    live.assign("g = 100")
    for _ in range(3):
        to_hit(live, t)
    live.record_save()
    replay = Ldb(stdout=io.StringIO())
    reopened = replay.open_recording(path)
    assert reopened.current_icount() == t.current_icount()
    # walk both back over every hit: same positions, same values
    walked = 0
    while True:
        assert replay.evaluate("g") == live.evaluate("g")
        assert reopened.stop_pc() == t.stop_pc()
        try:
            hit = live.reverse_continue()
        except TargetError:
            with pytest.raises(TargetError):
                replay.reverse_continue()
            break
        assert replay.reverse_continue().icount == hit.icount
        assert reopened.signo == t.signo == SIGTRAP
        walked += 1
    assert walked == 4


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_a_store_drops_the_recorded_future(arch):
    ldb, t = session(arch)
    first = to_hit(ldb, t)
    to_hit(ldb, t)
    to_hit(ldb, t)
    ldb.reverse_continue()
    ldb.reverse_continue()
    assert t.current_icount() == first
    ldb.assign("g = 50")
    replay = t.replay
    assert all(ck.icount <= first for ck in replay.ring.entries)
    assert all(run.end <= first for runs in replay.stop_log.runs.values()
               for run in runs)
    assert len(t.nub.checkpoints) == len(replay.ring)
    to_hit(ldb, t)
    assert ldb.evaluate("g") == 51


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_save_at_a_stop_with_no_checkpoint_after_a_store(arch, tmp_path):
    # a goto lands between checkpoints; the store made there makes the
    # save replay the arrival state for the file, then put it back
    path = str(tmp_path / "d.ldbrec")
    ldb, t = session(arch, path=path)
    first = to_hit(ldb, t)
    second = to_hit(ldb, t)
    icounts = {ck.icount for ck in t.replay.ring.entries}
    middle = next(icount for icount in range(first + 1, second)
                  if icount not in icounts)
    assert ldb.goto_icount(middle) == "stopped"
    pc = t.stop_pc()
    ldb.assign("g = 100")
    ldb.record_save()
    assert (t.current_icount(), t.stop_pc()) == (middle, pc)
    assert ldb.evaluate("g") == 100
    assert t.replay.ring.find(middle) is not None
    to_hit(ldb, t)
    assert ldb.evaluate("g") == 101
    replay = Ldb(stdout=io.StringIO())
    reopened = replay.open_recording(path)
    # the file ends where the store was made, in its arrival state
    assert reopened.current_icount() == middle
    assert replay.evaluate("g") == 1
    assert replay.run_to_stop() == "stopped"
    assert replay.evaluate("g") == 101
