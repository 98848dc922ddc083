"""Acceptance tests for the time-travel engine: recording, the reverse
commands, byte-identical landings on every architecture, and survival
over a faulty wire.

The driver program hits a breakpoint in ``poke`` and then dies of
SIGSEGV, so "reverse-continue from the fault" has a well-defined right
answer: the ``poke`` stop."""

import io

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES, Process, SIGSEGV, SIGTRAP
from repro.nub import (
    FaultInjectingChannel,
    FaultSchedule,
    Listener,
    Nub,
    NubRunner,
    RetryPolicy,
    connect,
)

BOOM = """int g;
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < 6; i++)
        g = g + i;
    poke((int *)0x7fffffff);
    return 0;
}
"""

_EXES = {}


def boom_exe(arch):
    if arch not in _EXES:
        _EXES[arch] = compile_and_link({"boom.c": BOOM}, arch, debug=True)
    return _EXES[arch]


def record_session(arch, interval=37, capacity=32, **load_kw):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(boom_exe(arch), **load_kw)
    ldb.enable_time_travel(interval=interval, capacity=capacity)
    ldb.break_at_function("poke")
    return ldb, target


def machine_state(target):
    p = target.process
    return (list(p.cpu.regs), list(p.cpu.fregs), p.cpu.pc, p.cpu.icount,
            bytes(p.mem.bytes), p.output())


class TestReverseContinue:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_lands_on_prior_hit_byte_identical(self, arch):
        # run to the breakpoint, then on to the fault, then rewind
        ldb, t = record_session(arch)
        assert ldb.run_to_stop() == "stopped" and t.at_breakpoint()
        hit_icount = t.current_icount()
        assert ldb.run_to_stop() == "stopped"
        assert t.signo == SIGSEGV
        assert t.current_icount() > hit_icount

        hit = ldb.reverse_continue()
        assert hit.icount == hit_icount
        assert t.at_breakpoint()
        assert t.signo == SIGTRAP and t.sigcode == 0

        # the landing must be byte-identical to a forward run that
        # simply stopped at the same hit (recording identically)
        ldb2, t2 = record_session(arch)
        assert ldb2.run_to_stop() == "stopped" and t2.at_breakpoint()
        assert machine_state(t) == machine_state(t2)

    def test_repeated_hits_rewind_one_at_a_time(self):
        ldb, t = record_session("rmips", interval=40)
        ldb.break_at_line("boom.c", 5)  # the loop body: 6 hits
        icounts = []
        while True:
            ldb.run_to_stop()
            if t.signo != SIGTRAP:
                break
            icounts.append(t.current_icount())
        assert len(icounts) >= 3
        # reverse-continue walks the hits backwards, newest first
        assert ldb.reverse_continue().icount == icounts[-1]
        assert ldb.reverse_continue().icount == icounts[-2]
        assert ldb.reverse_continue().icount == icounts[-3]

    def test_without_earlier_hit_is_a_clear_error(self):
        ldb, t = record_session("rmips")
        with pytest.raises(TargetError):
            ldb.reverse_continue()  # still at the entry pause
        # and the failed search leaves the target where it was
        assert t.state == "stopped"
        assert ldb.run_to_stop() == "stopped" and t.at_breakpoint()


class TestReverseStepNextGoto:
    def test_reverse_steps_move_strictly_backwards(self):
        ldb, t = record_session("rmips")
        ldb.run_to_stop()
        ldb.run_to_stop()  # the fault
        rc = ldb.reverse_continue()
        assert ldb.evaluate("g") == 15  # 0+1+..+5: the loop finished
        rs = ldb.reverse_step()
        assert rs.icount < rc.icount
        rn = ldb.reverse_next()
        assert rn.icount < rs.icount
        proc, _file, _line = ldb.where_am_i()
        assert proc in ("main", "poke")

    def test_goto_travels_both_directions(self):
        ldb, t = record_session("rmips")
        ldb.run_to_stop()
        hit_icount = t.current_icount()
        base = t.replay.ring.entries[0]
        assert ldb.goto_icount(base.icount) == "stopped"
        assert t.current_icount() == base.icount
        # forward again, landing on the very same breakpoint stop
        assert ldb.goto_icount(hit_icount) == "stopped"
        assert t.current_icount() == hit_icount
        assert t.at_breakpoint() and t.sigcode == 0

    def test_goto_before_history_is_an_error(self):
        ldb, t = record_session("rmips")
        ldb.run_to_stop()
        base = t.replay.ring.entries[0]
        with pytest.raises(TargetError):
            ldb.goto_icount(base.icount - 1)


class TestRecording:
    def test_auto_checkpoints_at_interval_boundaries(self):
        ldb, t = record_session("rmips", interval=25)
        ldb.run_to_stop()
        ring = t.replay.ring
        kinds = [ck.kind for ck in ring.entries]
        assert "auto" in kinds
        assert kinds[0] == "stop"  # the base
        icounts = [ck.icount for ck in ring.entries]
        assert icounts == sorted(icounts)
        # the automatic ones sit exactly on interval boundaries
        base = ring.entries[0].icount
        for ck in ring.entries:
            if ck.kind == "auto":
                assert (ck.icount - base) % 25 == 0

    def test_eviction_keeps_base_and_releases_nub_side(self):
        ldb, t = record_session("rmips", interval=10, capacity=4)
        ldb.enable_time_travel()  # idempotent: same controller
        ldb.run_to_stop()
        ring = t.replay.ring
        assert len(ring) == 4
        assert ring.entries[0].kind == "stop"  # the base survived
        # evicted checkpoints were dropped nub-side too
        assert len(t.nub.checkpoints) == len(ring)

    def test_forward_resume_after_rewind_drops_the_future(self):
        ldb, t = record_session("rmips", interval=30)
        ldb.run_to_stop()
        ldb.run_to_stop()  # the fault
        ldb.reverse_continue()
        here = t.current_icount()
        assert all(ck.icount <= here for ck in t.replay.ring.entries) is False
        ldb.run_to_stop()  # re-executes towards the fault
        # recording again from the hit: nothing stale beyond the new stops
        assert len(t.nub.checkpoints) == len(t.replay.ring)


class TestFaultySession:
    def test_reverse_continue_over_a_lossy_wire(self):
        exe = boom_exe("rmips")
        listener = Listener()
        nub = Nub(Process(exe), listener=listener, accept_timeout=30.0)
        runner = NubRunner(nub).start()
        port = listener.port
        schedule = FaultSchedule(seed=11, drop=0.04, corrupt=0.04, limit=60)

        def connector():
            return FaultInjectingChannel(connect("127.0.0.1", port), schedule)

        ldb = Ldb(stdout=io.StringIO())
        t = ldb.adopt_channel(connector(), loader_table_ps(exe),
                              connector=connector)
        t.session.reply_timeout = 0.5
        t.session.policy = RetryPolicy(max_attempts=10, base_delay=0.01,
                                       max_delay=0.05, seed=1)
        ldb.enable_time_travel(interval=37)
        ldb.break_at_function("poke")
        assert ldb.run_to_stop() == "stopped" and t.at_breakpoint()
        hit_icount = t.current_icount()
        ldb.run_to_stop()
        assert t.signo == SIGSEGV
        hit = ldb.reverse_continue()
        assert hit.icount == hit_icount
        assert t.at_breakpoint()
        # the state the lossy wire delivered matches a clean recording
        ldb2, t2 = record_session("rmips")
        ldb2.run_to_stop()
        assert (list(nub.process.cpu.regs), nub.process.cpu.pc,
                nub.process.cpu.icount, bytes(nub.process.mem.bytes)) == \
               (list(t2.process.cpu.regs), t2.process.cpu.pc,
                t2.process.cpu.icount, bytes(t2.process.mem.bytes))
        t.kill()
        runner.join()


class TestFailedSearchComesHome:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_full_ring_after_goto_keeps_the_search_origin(self, arch):
        # travelling back with a full ring: the origin checkpoint the
        # search adds must survive to bring the target home
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.load_program(boom_exe(arch))
        ldb.enable_time_travel(interval=23, capacity=3)
        assert ldb.run_to_stop() == "stopped" and t.signo == SIGSEGV
        assert ldb.goto_icount(21) == "stopped"
        pc, signo, sigcode = t.stop_pc(), t.signo, t.sigcode
        with pytest.raises(TargetError, match="no earlier breakpoint hit"):
            ldb.reverse_continue()
        assert t.current_icount() == 21
        assert (t.stop_pc(), t.signo, t.sigcode) == (pc, signo, sigcode)
        assert len(t.nub.checkpoints) == len(t.replay.ring)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_failed_search_from_a_trap_at_an_automatic_checkpoint(self, arch):
        # an interval boundary checkpointed as an icount stop, reached
        # again as a breakpoint trap: the way home must be the trap
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.load_program(boom_exe(arch))
        ldb.enable_time_travel(interval=3, capacity=256)
        ldb.run_to_stop()
        symtab = t.symtab
        stops = {symtab.stop_address(stop) for proc in symtab.procs()
                 for stop in symtab.loci(proc)} - {None}
        for address in stops:
            t.breakpoints.plant(address)
        base = t.replay.ring.entries[0].icount
        for ck in [ck for ck in t.replay.ring.entries if ck.kind == "auto"]:
            ldb.goto_icount(base)
            ldb.goto_icount(ck.icount)
            if t.at_breakpoint() and t.current_icount() == ck.icount:
                break
        else:
            pytest.fail("no trap at an automatic checkpoint's icount")
        pc = t.stop_pc()
        for address in stops - {pc}:
            t.breakpoints.remove(address)
        with pytest.raises(TargetError, match="no earlier breakpoint hit"):
            ldb.reverse_continue()
        assert t.current_icount() == ck.icount
        assert (t.stop_pc(), t.signo, t.sigcode) == (pc, SIGTRAP, 0)
        assert t.at_breakpoint()
