"""The stop log answers reverse searches, and never changes a landing.

The controller logs every run it drives: where it started, the stop
that ended it and the breakpoints planted meanwhile.  A window covered
by logged runs that each had every breakpoint planted now is answered
from the log, with no restore and no replay.  The property runs the
same random commands in two sessions, one of which empties its log
before every command, and holds them to the same answers."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES, CODE_ICOUNT, SIGSEGV, SIGTRAP
from repro.timetravel.replay import Run, StopLog

LOOP = """int g;
void mark(int i) { g = g + i; }
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 5; i++) {
        g = g + 1;
        mark(i);
    }
    poke((int *)0x7fffffff);
    return 0;
}
"""

_EXES = {}


def loop_exe(arch):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"loop.c": LOOP}, arch, debug=True)
    return _EXES[arch]


def stop_addresses(target):
    symtab = target.symtab
    return sorted({symtab.stop_address(stop) for proc in symtab.procs()
                   for stop in symtab.loci(proc)} - {None})


class TestWindow:
    """``StopLog.window`` on hand-made runs."""

    def log(self, *runs):
        log = StopLog()
        for run in runs:
            log.add(run)
        return log

    def test_answers_a_covered_window_with_its_hits(self):
        log = self.log(Run(0, 10, None, SIGTRAP, CODE_ICOUNT, frozenset()),
                       Run(10, 14, 0x40, SIGTRAP, 0, frozenset({0x40})),
                       Run(14, 20, None, SIGTRAP, CODE_ICOUNT,
                           frozenset({0x40})))
        hits = log.window(10, 20, frozenset({0x40}), uses_sp=False)
        assert [(hit.icount, hit.pc) for hit in hits] == [(14, 0x40)]
        # a breakpoint removed since only added a stop: no hit now
        assert log.window(10, 20, frozenset(), uses_sp=False) == []

    def test_a_breakpoint_planted_since_means_replay(self):
        log = self.log(Run(0, 10, None, SIGTRAP, CODE_ICOUNT, frozenset()))
        assert log.window(0, 10, frozenset({0x40}), uses_sp=False) is None

    def test_a_gap_in_the_chain_means_replay(self):
        log = self.log(Run(0, 10, None, SIGTRAP, CODE_ICOUNT, frozenset()))
        assert log.window(0, 20, frozenset(), uses_sp=False) is None

    def test_a_fault_ends_the_window(self):
        log = self.log(Run(0, 4, 0x40, SIGTRAP, 0, frozenset({0x40})),
                       Run(4, 7, None, SIGSEGV, 0, frozenset({0x40})))
        hits = log.window(0, 20, frozenset({0x40}), uses_sp=False)
        assert [hit.icount for hit in hits] == [4]

    def test_a_closed_window_holds_a_trap_at_its_end(self):
        log = self.log(Run(0, 10, 0x40, SIGTRAP, 0, frozenset({0x40})),
                       Run(10, 20, None, SIGTRAP, CODE_ICOUNT,
                           frozenset({0x40})))
        assert log.window(0, 10, frozenset({0x40}), uses_sp=False) == []
        hits = log.window(0, 10, frozenset({0x40}), uses_sp=False,
                          closed=True)
        assert [(hit.icount, hit.pc) for hit in hits] == [(10, 0x40)]
        # an icount stop at the end is no hit, closed or not
        assert log.window(10, 20, frozenset({0x40}), uses_sp=False,
                          closed=True) == []

    def test_a_hit_without_its_sp_cannot_answer_a_depth_filter(self):
        log = self.log(Run(0, 4, 0x40, SIGTRAP, 0, frozenset({0x40})),
                       Run(4, 9, None, SIGTRAP, CODE_ICOUNT,
                           frozenset({0x40})))
        assert log.window(0, 9, frozenset({0x40}), uses_sp=True) is None
        assert len(log.window(0, 9, frozenset({0x40}), uses_sp=False)) == 1
        log.runs[0][0].sp = 0x7000
        assert log.window(0, 9, frozenset({0x40}), uses_sp=True)[0].sp \
            == 0x7000

    def test_cut_and_forget(self):
        log = self.log(Run(0, 10, None, SIGTRAP, CODE_ICOUNT, frozenset()),
                       Run(10, 20, None, SIGTRAP, CODE_ICOUNT, frozenset()),
                       Run(20, 30, None, SIGTRAP, CODE_ICOUNT, frozenset()))
        log.cut(20)
        assert sorted(log.runs) == [0, 10]
        log.forget(10, None)
        assert sorted(log.runs) == [0]


def record_to_crash(arch, interval=37):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(loop_exe(arch))
    ldb.enable_time_travel(target, interval=interval)
    ldb.break_at_function("mark", target)
    hits = []
    while ldb.run_to_stop(target) == "stopped" and target.signo == SIGTRAP:
        hits.append(target.current_icount())
    assert target.signo == SIGSEGV
    return ldb, target, hits


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_reverse_continue_is_answered_from_the_forward_run(arch):
    ldb, t, hits = record_to_crash(arch)
    metrics = ldb.obs.metrics
    for hit in reversed(hits):
        assert ldb.reverse_continue().icount == hit
        assert t.at_breakpoint()
    assert metrics.get("replay.windows") == 0
    assert metrics.get("replay.windows_from_log") > 0


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_a_breakpoint_planted_after_the_run_is_replayed(arch):
    ldb, t, hits = record_to_crash(arch)
    ldb.break_at_line("loop.c", 7)  # g = g + 1, never planted forward
    assert ldb.reverse_continue().icount == hits[-1]
    rc = ldb.reverse_continue()
    assert hits[-2] < rc.icount < hits[-1] and t.at_breakpoint()
    assert ldb.obs.metrics.get("replay.windows") > 0
    # the landing agrees with a forward run under the same breakpoints
    fresh = Ldb(stdout=io.StringIO())
    other = fresh.load_program(loop_exe(arch))
    fresh.break_at_line("loop.c", 7)
    fresh.break_at_function("mark")
    seen = []
    while fresh.run_to_stop() == "stopped" and other.signo == SIGTRAP:
        seen.append(other.current_icount())
    assert rc.icount == max(icount for icount in seen
                            if icount < hits[-1])


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_a_hit_at_an_automatic_checkpoint_is_found(arch):
    """The first hit of mark retires exactly where an automatic
    checkpoint was taken before mark was planted: the window ending
    there holds it, the checkpoint's own stop does not."""
    _ldb, _t, hits = record_to_crash(arch)
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(loop_exe(arch))
    ldb.enable_time_travel(target,
                           interval=hits[0] - target.current_icount())
    assert ldb.run_to_stop(target) == "stopped"
    assert target.signo == SIGSEGV
    assert target.replay.ring.find(hits[0]).kind == "auto"
    ldb.break_at_function("mark", target)
    found = []
    for _ in hits:
        found.append(ldb.reverse_continue(target).icount)
        assert target.at_breakpoint()
    assert found == hits[::-1]
    with pytest.raises(TargetError, match="no earlier breakpoint hit"):
        ldb.reverse_continue(target)
    assert target.current_icount() == hits[0]


class Pair:
    """One program debugged twice with the same commands; the second
    session empties its stop log before every command."""

    def __init__(self, arch, interval, capacity):
        self.sessions = []
        for _ in range(2):
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.load_program(loop_exe(arch))
            ldb.enable_time_travel(target, interval=interval,
                                   capacity=capacity)
            self.sessions.append((ldb, target))
        self.stops = stop_addresses(self.sessions[0][1])

    def run(self, command, arg):
        answers = []
        for index, (ldb, target) in enumerate(self.sessions):
            if index:
                target.replay.stop_log.clear()
            answers.append((self.apply(ldb, target, command, arg),
                            self.observe(ldb, target)))
        assert answers[0] == answers[1], (command, arg)

    def apply(self, ldb, target, command, arg):
        if target.state != "stopped":
            return target.state
        table = target.breakpoints
        address = self.stops[arg % len(self.stops)]
        try:
            if command == "break":
                table.plant(address, note="property")
            elif command == "delete":
                if table.at(address) is not None:
                    table.remove(address)
            elif command == "set":
                ldb.assign("g = %d" % (100 + arg))
            elif command == "continue":
                if target.signo == SIGTRAP:  # not past the crash
                    return ldb.run_to_stop(target)
            elif command == "goto":
                entries = target.replay.ring.entries
                first, last = entries[0].icount, entries[-1].icount
                return ldb.goto_icount(
                    first + (last + 40 - first) * arg // 100, target)
            else:
                return getattr(ldb, command)(target).icount
        except TargetError as err:
            return str(err)
        return None

    def observe(self, ldb, target):
        if target.state != "stopped":
            return (target.state,)
        return (target.state, target.current_icount(), target.stop_pc(),
                target.signo, target.sigcode, ldb.evaluate("g"))

    def close(self):
        for _ldb, target in self.sessions:
            if target.state == "stopped":
                target.kill()


COMMANDS = st.lists(st.tuples(
    st.sampled_from(("break", "delete", "set", "continue", "continue",
                     "reverse_continue", "reverse_step", "reverse_next",
                     "goto")),
    st.integers(0, 100)), min_size=1, max_size=12)


def drive(arch, interval, capacity, commands):
    """Run ``commands`` on a pair; answers how many windows the first
    session's log answered."""
    pair = Pair(arch, interval, capacity)
    try:
        for command, arg in commands:
            pair.run(command, arg)
    finally:
        pair.close()
    return pair.sessions[0][0].obs.metrics.get("replay.windows_from_log")


@pytest.mark.parametrize("arch", ARCH_NAMES)
@settings(max_examples=4, deadline=None)
@given(interval=st.integers(3, 60), capacity=st.integers(3, 64),
       commands=COMMANDS)
def test_the_log_never_changes_a_landing(arch, interval, capacity,
                                         commands):
    drive(arch, interval, capacity, commands)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_a_fixed_walk_lands_alike_with_and_without_the_log(arch):
    """Hits, a store, a breakpoint removed after the runs that had it,
    and every reverse command across them, with a small ring."""
    assert drive(arch, 7, 4, [
        ("break", 2), ("continue", 0), ("continue", 0), ("set", 3),
        ("continue", 0), ("break", 9), ("continue", 0), ("continue", 0),
        ("delete", 9), ("reverse_continue", 0), ("reverse_next", 0),
        ("reverse_step", 0), ("reverse_continue", 0), ("goto", 60),
        ("reverse_next", 0), ("continue", 0), ("reverse_continue", 0)]) > 0
