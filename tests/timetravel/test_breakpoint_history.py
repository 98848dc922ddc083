"""Breakpoints are not history: the nub owns the planted table.

A RESTORE rewinds registers and memory but keeps the traps planted now
(PROTOCOL.md §3.5), so the debugger never re-derives its table after a
reverse command.  The property drives random break, delete, continue,
reverse-continue, reverse-step and goto commands through a time-travel
session and, after every command, holds the nub's BREAKS to the
debugger's table and every stopping point's code to the table: a trap
exactly where the table has one.  Reverse commands send no BREAKS, and
a reverse step pays one PLANT and one UNPLANT per temporary.
"""

import io
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES, SIGTRAP
from repro.nub import protocol

LOOP = """int g;
void tick(int i) { g = g + i; }
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 4; i++)
        tick(i);
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
    """Every stopping point's address: where breakpoints may go."""
    symtab = target.symtab
    return sorted({symtab.stop_address(stop) for proc in symtab.procs()
                   for stop in symtab.loci(proc)} - {None})


class Session:
    """A time-travel session that counts the nub requests of each
    command by type."""

    def __init__(self, arch):
        self.ldb = Ldb(stdout=io.StringIO())
        self.target = self.ldb.load_program(loop_exe(arch))
        self.ldb.enable_time_travel(self.target, interval=23)
        self.stops = stop_addresses(self.target)
        self.sent = Counter()
        self.target.transport.taps.append(
            lambda msg, reply: self.sent.update(
                [protocol.type_name(msg.mtype)]))

    def run(self, command, arg):
        """Apply one command; returns the requests it sent."""
        ldb, target = self.ldb, self.target
        table = target.breakpoints
        address = self.stops[arg % len(self.stops)]
        self.sent.clear()
        if command == "break":
            table.plant(address, note="property")
        elif command == "delete":
            if table.at(address) is not None:
                table.remove(address)
        elif command == "continue":
            if target.signo == SIGTRAP:  # not past the crash
                ldb.run_to_stop(target)
        elif command == "goto":
            replay = target.replay
            first = replay.ring.entries[0].icount
            last = max(entry.icount for entry in replay.ring.entries)
            ldb.goto_icount(first + (last - first) * arg // 100, target)
        else:
            try:
                getattr(ldb, command)(target)
            except TargetError:
                pass  # nothing earlier: the target stays at the origin
        return Counter(self.sent)

    def check(self):
        """The nub's table is the debugger's, in BREAKS and in code."""
        target = self.target
        assert target.state == "stopped"
        transport = target.transport
        listed = protocol.parse_breaklist(transport.transact(
            protocol.breaks(), (protocol.MSG_BREAKLIST,)))
        planted = set(target.breakpoints.planted)
        assert {address for address, _ in listed} == planted
        trap = target.machdep.break_bytes_le
        nop = target.machdep.nop_bytes_le
        for address in self.stops:
            code = transport.transact(
                protocol.fetch("c", address, len(trap)),
                (protocol.MSG_DATA,)).payload
            assert code == (trap if address in planted else nop), \
                hex(address)


def drive(arch, commands):
    session = Session(arch)
    for command, arg in commands:
        before = set(session.target.breakpoints.planted)
        sent = session.run(command, arg)
        if command in ("reverse_continue", "reverse_step", "goto"):
            assert sent["BREAKS"] == 0, (command, sent)
        if command == "reverse_step":
            temporaries = len(set(session.stops) - before)
            assert sent["PLANT"] == sent["UNPLANT"] == temporaries, sent
        session.check()
    session.target.kill()


COMMANDS = st.lists(st.tuples(
    st.sampled_from(("break", "delete", "continue", "reverse_continue",
                     "reverse_step", "goto")),
    st.integers(0, 100)), min_size=1, max_size=10)


@settings(max_examples=40, deadline=None)
@given(arch=st.sampled_from(ARCH_NAMES), commands=COMMANDS)
def test_nub_table_matches_the_debugger_after_every_command(arch, commands):
    drive(arch, commands)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_every_isa_keeps_the_table_across_reverse_commands(arch):
    """A fixed walk on each ISA (the sampler may skip one): hits, a
    breakpoint removed after the checkpoints that hold it, reverse
    commands across it, and a goto into the past."""
    drive(arch, [("break", 3), ("continue", 0), ("break", 7),
                 ("continue", 0), ("continue", 0), ("delete", 3),
                 ("reverse_continue", 0), ("reverse_step", 0),
                 ("break", 11), ("reverse_step", 0), ("goto", 30),
                 ("continue", 0), ("delete", 7), ("reverse_continue", 0)])
