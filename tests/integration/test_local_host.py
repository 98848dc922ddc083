"""The in-thread nub host: ``load_program`` with no wire.

``Ldb.load_program`` hosts the target's nub on the debugger's own
thread (:class:`~repro.nub.session.LocalTransport`): no socket, no nub
thread, and the target runs in bounded slices.  The wire stays for
remote targets, so the wire nub is the oracle here.  A hypothesis
property drives the same random command sequence through both hosts on
all five ISAs and holds them to the same state, signal, stop pc,
instruction count and printed values after every command.  The slice
size is patched small, so slice boundaries land on traps and on RUNTO
bounds.
"""

import io
import socket
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.breakpoints import BreakpointError
from repro.ldb.debugger import load_over_wire
from repro.ldb.exprserver import EvalError
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES, SIGILL, SIGTRAP
from repro.nub import nub as nub_module
from repro.nub import session as session_module
from repro.postscript import PSError

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

SPIN = """int spins;
int main(void) {
    for (;;)
        spins = spins + 1;
    return 0;
}
"""

_EXES = {}


def exe_for(arch, source=LOOP):
    key = (arch, source)
    if key not in _EXES:
        _EXES[key] = compile_and_link({"t.c": source}, arch, debug=True)
    return _EXES[key]


def test_load_program_starts_no_thread_and_opens_no_socket():
    exe = exe_for("rmips")
    before = threading.active_count()
    refuse = mock.Mock(side_effect=AssertionError("a thread or socket"))
    with mock.patch.object(socket, "socket", refuse), \
            mock.patch.object(socket, "socketpair", refuse), \
            mock.patch.object(threading.Thread, "start", refuse):
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exe)
        ldb.break_at_function("tick")
        assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    # other tests' threads may end meanwhile, never start
    assert threading.active_count() <= before
    assert target.channel is None and target.session is None


def test_runaway_guard_counts_per_resume_not_per_slice():
    ldb = Ldb(stdout=io.StringIO())
    with mock.patch.object(session_module, "SLICE_INSTRUCTIONS", 64), \
            mock.patch.object(nub_module, "DEFAULT_MAX_STEPS", 5000):
        target = ldb.load_program(exe_for("rmips", SPIN))
        start = target.current_icount()
        assert ldb.run_to_stop() == "stopped"
        assert (target.signo, target.sigcode) == (SIGILL, 99)
        assert target.current_icount() == start + 5000
        # a resume starts the count again
        target.cont()
        assert target.wait_for_stop() == "stopped"
        assert target.current_icount() == start + 10000


def test_deadline_leaves_the_run_pending():
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe_for("rmips", SPIN))
    with pytest.raises(TimeoutError):
        ldb.run_to_stop(timeout=0.05)
    assert target.state == "running"
    first = target.process.cpu.icount
    with pytest.raises(TimeoutError):
        target.wait_for_stop(timeout=0.05)
    assert target.process.cpu.icount > first
    target.transport.close()
    assert target.wait_for_stop() == "disconnected"


def stop_addresses(target):
    symtab = target.symtab
    return sorted({symtab.stop_address(stop) for proc in symtab.procs()
                   for stop in symtab.loci(proc)} - {None})


class Session:
    """One host of the property's program, with time travel on."""

    def __init__(self, arch, wire):
        self.ldb = Ldb(stdout=io.StringIO())
        exe = exe_for(arch)
        self.target = (load_over_wire(self.ldb, exe) if wire
                       else self.ldb.load_program(exe))
        self.ldb.enable_time_travel(self.target, interval=23)
        self.stops = stop_addresses(self.target)

    def run(self, command, arg):
        """Apply one command; answers what it reported."""
        ldb, target = self.ldb, self.target
        table = target.breakpoints
        address = self.stops[arg % len(self.stops)]
        try:
            if command == "break":
                table.plant(address, note="property")
            elif command == "delete":
                if table.at(address) is not None:
                    table.remove(address)
            elif command == "print":
                return (ldb.print_variable("g", target=target),
                        ldb.evaluate("g * 2 + %d" % arg, target=target))
            elif command == "set":
                return ldb.assign("g = %d" % arg, target=target)
            elif command == "goto":
                ring = target.replay.ring.entries
                first = ring[0].icount
                last = max(entry.icount for entry in ring)
                return ldb.goto_icount(first + (last - first) * arg // 100,
                                       target)
            elif command in ("reverse_step", "reverse_continue"):
                return getattr(ldb, command)(target).icount
            elif target.signo == SIGTRAP:  # not past the crash
                if command == "continue":
                    return ldb.events.wait(target).kind
                if command == "step":
                    return ldb.step(target).kind
                return ldb.step_over(target).kind
        except (TargetError, BreakpointError, EvalError, PSError) as err:
            return type(err).__name__
        return None

    def observe(self):
        target = self.target
        seen = [target.state, target.signo, target.sigcode,
                sorted(target.breakpoints.planted)]
        if target.state == "stopped":
            seen += [target.stop_pc(), target.current_icount()]
        return seen


COMMANDS = st.lists(st.tuples(
    st.sampled_from(("break", "delete", "continue", "step", "next",
                     "print", "set", "reverse_step", "reverse_continue",
                     "goto")),
    st.integers(0, 100)), min_size=1, max_size=8)


def compare(arch, commands, slice_instructions=7):
    with mock.patch.object(session_module, "SLICE_INSTRUCTIONS",
                           slice_instructions):
        local, wire = Session(arch, wire=False), Session(arch, wire=True)
        try:
            assert local.observe() == wire.observe()
            for command, arg in commands:
                said = local.run(command, arg)
                assert said == wire.run(command, arg), (command, arg)
                assert local.observe() == wire.observe(), (command, arg)
        finally:
            wire.target.transport.close()


@settings(max_examples=25, deadline=None)
@given(arch=st.sampled_from(ARCH_NAMES), commands=COMMANDS,
       slice_instructions=st.integers(1, 40))
def test_local_host_answers_like_the_wire(arch, commands,
                                          slice_instructions):
    compare(arch, commands, slice_instructions)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_every_isa_answers_like_the_wire(arch):
    """A fixed walk on each ISA (the sampler may skip one)."""
    compare(arch, [("break", 3), ("continue", 0), ("print", 1),
                   ("set", 9), ("step", 0), ("next", 0), ("break", 7),
                   ("continue", 0), ("reverse_continue", 0),
                   ("reverse_step", 0), ("goto", 40), ("delete", 3),
                   ("continue", 0), ("print", 2), ("continue", 0)])
