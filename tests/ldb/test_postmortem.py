"""Post-mortem debugging acceptance tests.

The robustness contract under test:

* a fatal fault on any architecture auto-writes a versioned core file;
* ``open_core`` rebuilds the whole debugger stack over the recorded
  image — backtraces and variable values are *byte-identical* to the
  live session at the same stop, with no nub anywhere;
* mutating verbs refuse a corpse with clear, typed errors;
* a smashed stack yields a truncated backtrace ending in
  ``<corrupt frame>`` — on live and core targets alike, never an
  unhandled exception;
* a nub that dies mid-session surfaces as the typed ``died`` event,
  pointing at the core it left behind, instead of an endless retry.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb
from repro.ldb.api import DebugAPI
from repro.ldb.debugger import load_over_wire
from repro.ldb.breakpoints import BreakpointError
from repro.ldb.exprserver import EvalError
from repro.ldb.postmortem import CoreTransport, PostMortemError
from repro.ldb.target import TargetDiedError, TargetError
from repro.postscript import PSError
from repro.machines import ARCH_NAMES, Process, SIGSEGV, SIGTRAP
from repro.machines.core import CoreError, CoreFile
from repro.machines.engine import ENGINE_ENV
from repro.nub import (
    FaultSchedule,
    Listener,
    Nub,
    NubRunner,
    RetryPolicy,
    connect,
    protocol,
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

RECUR = """int depth;
int down(int n) { depth = n; if (n == 0) return 1; return n + down(n - 1); }
int main(void) { return down(6); }
"""

_EXES = {}


def exe_for(arch, name, source):
    key = (arch, name)
    if key not in _EXES:
        _EXES[key] = compile_and_link({name: source}, arch, debug=True)
    return _EXES[key]


def crashed_session(arch, core_path):
    """A live session stopped at BOOM's SIGSEGV, with auto-cores on."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe_for(arch, "boom.c", BOOM),
                              core_path=core_path)
    assert ldb.run_to_stop() == "stopped"
    assert target.signo == SIGSEGV
    return ldb, target


def deep_session(arch):
    """A live session stopped at RECUR's deepest ``down`` activation."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe_for(arch, "recur.c", RECUR))
    ldb.break_at_function("down")
    for _ in range(7):
        assert ldb.run_to_stop() == "stopped"
    assert target.at_breakpoint()
    return ldb, target


def open_core(path, **kw):
    ldb = Ldb(stdout=io.StringIO())
    return ldb, ldb.open_core(str(path), **kw)


class TestAutoCore:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_segfault_writes_a_core(self, arch, tmp_path):
        path = tmp_path / ("%s.core" % arch)
        crashed_session(arch, str(path))
        core = CoreFile.load(str(path))
        assert core.arch_name == arch
        assert core.signo == SIGSEGV
        assert core.segments  # the image is there, sparsely
        assert core.loader_ps  # standalone: the symbol table rode along
        assert core.icount > 0

    def test_no_core_path_means_no_core(self, tmp_path):
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exe_for("rmips", "boom.c", BOOM))
        assert ldb.run_to_stop() == "stopped"
        assert target.signo == SIGSEGV  # the fault still surfaces cleanly


class TestCoreRoundTrip:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_auto_core_matches_live_session(self, arch, tmp_path):
        path = tmp_path / "boom.core"
        live_ldb, live = crashed_session(arch, str(path))
        live_bt = live_ldb.backtrace_text()
        live_g = live_ldb.print_variable("g")
        live_regs = live_ldb.registers_text()

        core_ldb, post = open_core(path)
        assert post.post_mortem
        assert post.arch_name == arch
        assert post.signo == SIGSEGV
        assert post.state == "stopped"
        assert core_ldb.backtrace_text() == live_bt
        assert core_ldb.print_variable("g") == live_g
        assert core_ldb.registers_text() == live_regs
        assert post.core.icount == live.current_icount()

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_explicit_dumpcore_at_a_breakpoint(self, arch, tmp_path):
        path = tmp_path / "recur.core"
        live_ldb, live = deep_session(arch)
        live.dump_core(str(path))
        core_ldb, post = open_core(path)
        assert core_ldb.backtrace_text() == live_ldb.backtrace_text()
        assert core_ldb.print_variable("n") == live_ldb.print_variable("n")
        assert (core_ldb.print_variable("depth")
                == live_ldb.print_variable("depth"))
        # the recorded planted-breakpoint table rode along
        assert sorted(post.breakpoints.planted) \
            == sorted(live.breakpoints.planted)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_dumpcore_after_travelling_back_records_that_stop(self, arch,
                                                              tmp_path):
        """Reverse-continue from the crash to ``poke`` restores a
        checkpoint: the core then records the breakpoint stop, not the
        SIGSEGV the target left, so triage cannot take it for the
        crash."""
        path = tmp_path / "back.core"
        ldb = Ldb(stdout=io.StringIO())
        live = ldb.load_program(exe_for(arch, "boom.c", BOOM))
        ldb.enable_time_travel(interval=37)
        ldb.break_at_function("poke")
        assert ldb.run_to_stop() == "stopped" and live.at_breakpoint()
        assert ldb.run_to_stop() == "stopped" and live.signo == SIGSEGV
        ldb.reverse_continue()
        core = live.dump_core(str(path))
        assert (core.signo, core.fault_pc, core.icount) == (
            SIGTRAP, live.stop_pc(), live.current_icount())
        core_ldb, post = open_core(path)
        assert DebugAPI(core_ldb).execute("fault")["signo"] == SIGTRAP
        assert core_ldb.backtrace_text() == ldb.backtrace_text()

    def test_core_embeds_enough_to_open_standalone(self, tmp_path):
        # no executable, no explicit table: only the file
        path = tmp_path / "alone.core"
        crashed_session("rsparc", str(path))
        ldb, target = open_core(path)
        assert "poke" in ldb.backtrace_text() or "main" in ldb.backtrace_text()

    def test_resaving_a_core_round_trips(self, tmp_path):
        first = tmp_path / "first.core"
        again = tmp_path / "again.core"
        crashed_session("rmips", str(first))
        ldb, target = open_core(first)
        target.dump_core(str(again))  # DUMPCORE served from the core itself
        ldb2, target2 = open_core(again)
        assert ldb2.backtrace_text() == ldb.backtrace_text()


class TestDataFault:
    """A wild write stops at the store that made it, not at the
    address it wrote to: live, from the core, and from the reopened
    recording, on every ISA and under both engines."""

    @pytest.mark.parametrize("engine", ["block", "step"])
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_stops_at_the_faulting_store(self, arch, engine, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, engine)
        core_path = str(tmp_path / "boom.core")
        recording_path = str(tmp_path / "boom.ldbrec")
        ldb = Ldb(stdout=io.StringIO())
        live = ldb.load_program(exe_for(arch, "boom.c", BOOM),
                                core_path=core_path)
        ldb.start_recording(path=recording_path, interval=37)
        assert ldb.run_to_stop() == "stopped" and live.signo == SIGSEGV
        ldb.record_save()
        process = live.transport.nub.process
        store = process.cpu.pc
        assert process.arch.may_write_mem(
            process.arch.decode(process.mem, store))
        core_ldb, _ = open_core(core_path)
        replay_ldb = Ldb(stdout=io.StringIO())
        replay_ldb.open_recording(recording_path)
        for debugger in (ldb, core_ldb, replay_ldb):
            api = DebugAPI(debugger)
            assert api.execute("fault")["fault_pc"] == store
            assert api.execute("where")["proc"] == "poke"
            frames = api.execute("backtrace")["frames"]
            assert [frame["proc"] for frame in frames] == ["poke", "main"]


class TestPostMortemRefusals:
    @pytest.fixture()
    def post(self, tmp_path):
        path = tmp_path / "boom.core"
        crashed_session("rmips", str(path))
        return open_core(path)

    def test_continue_refused(self, post):
        ldb, target = post
        with pytest.raises(TargetError, match="post-mortem"):
            target.cont()

    def test_kill_and_detach_refused(self, post):
        ldb, target = post
        with pytest.raises(TargetError, match="post-mortem"):
            target.kill()
        with pytest.raises(TargetError, match="post-mortem"):
            target.detach()

    def test_breakpoints_refused(self, post):
        ldb, target = post
        with pytest.raises(BreakpointError, match="post-mortem"):
            ldb.break_at_function("main")

    def test_assignment_refused(self, post):
        ldb, target = post
        with pytest.raises(EvalError, match="post-mortem"):
            ldb.assign("g = 7")
        # the recorded value is untouched, and the expression client
        # is still in sync for the next evaluation
        assert ldb.evaluate("g") == 15

    def test_time_travel_refused_before_sending(self, post):
        # a core has no future: reverse commands refuse as post-mortem
        # before any time-travel message reaches the transport
        ldb, target = post
        sent = []
        serve = target.transport.transact

        def spy(msg, expect, timeout=None):
            sent.append(msg.mtype)
            return serve(msg, expect, timeout)

        target.transport.transact = spy
        with pytest.raises(TargetError, match="post-mortem"):
            ldb.enable_time_travel()
        with pytest.raises(TargetError, match="post-mortem"):
            target.run_to_icount(10)
        assert not {protocol.MSG_ICOUNT, protocol.MSG_CHECKPOINT,
                    protocol.MSG_RUNTO} & set(sent)

    def test_raw_control_refused_with_typed_error(self, post):
        ldb, target = post
        with pytest.raises(PostMortemError, match="cannot continue"):
            target.transport.control(protocol.cont())

    def test_inspection_still_works(self, post):
        ldb, target = post
        assert target.frames()
        assert target.stop_pc() != 0
        assert ldb.evaluate("g + 1") is not None


class TestCoreFileDamage:
    @pytest.fixture(scope="class")
    def raw(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cores") / "boom.core"
        crashed_session("rmips", str(path))
        return path.read_bytes()

    def test_bad_magic(self, raw):
        with pytest.raises(CoreError, match="magic"):
            CoreFile.from_bytes(b"ELF!" + raw[4:])

    def test_truncation(self, raw):
        with pytest.raises(CoreError, match="truncated"):
            CoreFile.from_bytes(raw[:len(raw) // 2])

    def test_bit_rot_fails_the_crc(self, raw):
        flipped = bytearray(raw)
        flipped[-1] ^= 0x40
        with pytest.raises(CoreError, match="CRC"):
            CoreFile.from_bytes(bytes(flipped))

    def test_future_version_is_refused(self, raw):
        import struct
        bumped = raw[:4] + struct.pack("<H", 99) + raw[6:]
        with pytest.raises(CoreError, match="version 99"):
            CoreFile.from_bytes(bumped)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.core"
        path.write_bytes(b"")
        with pytest.raises(CoreError):
            CoreFile.load(str(path))

    def test_open_core_maps_damage_to_target_error(self, raw, tmp_path):
        path = tmp_path / "rotten.core"
        path.write_bytes(raw[:32])
        ldb = Ldb(stdout=io.StringIO())
        with pytest.raises(TargetError, match="cannot open core"):
            ldb.open_core(str(path))


def smash(target, lo, data):
    """Overwrite live target memory behind the wire cache's back."""
    mem = target.process.mem
    hi = min(len(mem.bytes), lo + len(data))
    mem.bytes[lo:hi] = data[:hi - lo]
    target.wire.invalidate()
    target._top_frame = None


def assert_defensive(frames):
    """The unwinder's contract: at least one frame, corruption only as
    the terminating sentinel."""
    assert len(frames) >= 1
    for frame in frames[:-1]:
        assert not frame.corrupt
    return frames[-1].corrupt


class TestSmashedStacks:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_smashed_callers_truncate_identically_live_and_core(
            self, arch, tmp_path):
        ldb, target = deep_session(arch)
        clean_depth = len(target.frames())
        assert clean_depth >= 7
        sp = target.top_frame().sp
        smash(target, sp + 32, b"\xff" * 4096)

        frames = target.frames()
        assert assert_defensive(frames)  # truncated, marked corrupt
        assert len(frames) < clean_depth
        assert frames[-1].proc_name() == "<corrupt frame>"
        live_bt = ldb.backtrace_text()
        assert "<corrupt frame>" in live_bt

        # the core records the smashed image; its backtrace matches
        path = tmp_path / "smashed.core"
        target.dump_core(str(path))
        core_ldb, post = open_core(path)
        assert core_ldb.backtrace_text() == live_bt

    def test_smashed_saved_context_still_yields_a_frame(self):
        ldb, target = deep_session("rmips")
        smash(target, target.context_addr, b"\xff" * 256)
        frames = target.frames()
        assert len(frames) >= 1
        assert frames[-1].corrupt

    @settings(max_examples=15, deadline=None)
    @given(arch=st.sampled_from(ARCH_NAMES),
           offset=st.integers(-512, 4096),
           payload=st.binary(min_size=1, max_size=2048))
    def test_random_smashes_never_raise(self, arch, offset, payload):
        ldb, target = deep_session(arch)
        sp = target.top_frame().sp
        lo = max(0, sp + offset)
        smash(target, lo, payload)
        frames = target.frames()  # must not raise, whatever we wrote
        assert_defensive(frames)
        ldb.backtrace_text()  # and the rendered form must not raise


def _attach(exe, listener, policy=None):
    """An Ldb attached through the listener, with a fast retry policy."""
    table_ps = loader_table_ps(exe)
    port = listener.port

    def connector():
        return connect("127.0.0.1", port)

    ldb = Ldb(stdout=io.StringIO())
    target = ldb.adopt_channel(connector(), table_ps, connector=connector)
    target.session.reply_timeout = 0.5
    target.session.policy = policy or RetryPolicy(
        max_attempts=10, base_delay=0.01, max_delay=0.05, seed=1)
    return ldb, target


class TestKilledNub:
    def test_nub_death_surfaces_as_died_event_with_core(self, tmp_path):
        exe = exe_for("rmips", "recur.c", RECUR)
        core_path = tmp_path / "killed.core"
        schedule = FaultSchedule()  # clean until armed below
        listener = Listener()
        nub = Nub(Process(exe), listener=listener, accept_timeout=30.0,
                  core_path=str(core_path), loader_ps=loader_table_ps(exe),
                  fault_schedule=schedule)
        runner = NubRunner(nub).start()
        try:
            ldb, target = _attach(exe, listener)
            target.core_path = str(core_path)
            ldb.break_at_function("down")
            event = ldb.events.wait()
            assert event.kind == "breakpoint"

            target.resume_from_breakpoint()
            schedule.kill_after = 0  # the nub's next send kills it
            event = ldb.events.wait()
            assert event.kind == "died"
            assert event.core_path == str(core_path)
            assert target.state == "disconnected"
            assert nub.killed

            # graceful degradation: the core the nub left behind opens
            core_ldb, post = open_core(core_path)
            assert post.arch_name == "rmips"
            assert core_ldb.backtrace_text()
        finally:
            runner.join(timeout=5.0)

    def test_reconnect_raises_typed_death_when_nub_is_gone(self, tmp_path):
        exe = exe_for("rmips", "recur.c", RECUR)
        core_path = tmp_path / "killed.core"
        schedule = FaultSchedule()
        listener = Listener()
        nub = Nub(Process(exe), listener=listener, accept_timeout=30.0,
                  core_path=str(core_path), loader_ps=loader_table_ps(exe),
                  fault_schedule=schedule)
        runner = NubRunner(nub).start()
        try:
            ldb, target = _attach(exe, listener)
            target.core_path = str(core_path)
            ldb.break_at_function("down")
            assert ldb.run_to_stop() == "stopped"
            schedule.kill_after = 0  # the nub dies answering the fetch
            target.wire.invalidate()
            with pytest.raises(PSError):
                target.stop_pc()
            with pytest.raises(TargetDiedError) as excinfo:
                target.reconnect()
            assert excinfo.value.core_path == str(core_path)
            assert str(core_path) in str(excinfo.value)
            assert target.state == "disconnected"
        finally:
            runner.join(timeout=5.0)


class TestReconnectFindsTargetExited:
    def test_exited_reconnect_raises_instead_of_replanting(self):
        """Regression: a reconnect that finds the nub announcing EXITED
        used to replay BREAKS into the dead target (and pretend the
        session was healthy); it must raise the typed death instead."""
        ldb = Ldb(stdout=io.StringIO())
        target = load_over_wire(ldb, exe_for("rmips", "recur.c", RECUR))
        session = target.session

        resyncs = []
        target.breakpoints.resync = lambda: resyncs.append(True)

        def fake_reconnect():
            # what the real _reconnect does when the nub answers the
            # new connection with EXITED: no stop announced, the exit
            # queued as a pending event, and no reconnect callback
            session.last_signal = None
            session.pending_events.append(protocol.exited(7))

        session.reconnect = fake_reconnect
        session.connector = lambda: None  # satisfies the has-a-path check
        with pytest.raises(TargetDiedError, match="exited"):
            target.reconnect()
        assert target.state == "exited"
        assert resyncs == []  # no BREAKS replay into a corpse

    def test_announced_reconnect_still_resyncs(self):
        """The counterpart: a reconnect that *does* find a stopped
        target keeps the Sec. 7.1 BREAKS replay."""
        ldb = Ldb(stdout=io.StringIO())
        target = load_over_wire(ldb, exe_for("rmips", "recur.c", RECUR))
        session = target.session

        resyncs = []
        target.breakpoints.resync = lambda: resyncs.append(True)
        session.last_signal = (SIGTRAP, 0, target.context_addr)
        target._session_reconnected(session)
        assert resyncs == [True]
