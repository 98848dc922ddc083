"""Acceptance tests for persistent recordings: record a live session,
save it, reopen with no nub behind it, and get byte-identical answers —
plus divergence detection when the file and the re-execution disagree.

The driver program is the time-travel suite's: a breakpoint hit in
``poke`` followed by a SIGSEGV, so the reopened timeline has a
well-defined interesting past."""

import io

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.api import ApiError, DebugAPI, ERR_DIVERGED
from repro.ldb.target import TargetError
from repro.machines import ARCH_NAMES, ENGINE_ENV, SIGSEGV, SIGTRAP
from repro.trace import DivergenceError, Recording, TraceError

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


def record_crash(arch, path, interval=37):
    """Record the full run (breakpoint hit, then the fault), save it."""
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(boom_exe(arch))
    ldb.start_recording(path=path, interval=interval)
    ldb.break_at_function("poke")
    assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    hit_icount = target.current_icount()
    assert ldb.run_to_stop() == "stopped" and target.signo == SIGSEGV
    ldb.record_save()
    return ldb, target, hit_icount


class TestLiveVsReplayFidelity:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_reopened_answers_match_live_on_every_isa(self, arch, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        live, live_t, hit_icount = record_crash(arch, path)
        live_fault_bt = live.backtrace_text()
        live_fault_regs = live.registers_text()
        live_fault_icount = live_t.current_icount()

        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(path)
        assert t.replaying and t.state == "stopped"
        assert t.signo == SIGSEGV
        assert t.current_icount() == live_fault_icount
        # the recorded fault: identical backtrace, registers, memory
        assert ldb.backtrace_text() == live_fault_bt
        assert ldb.registers_text() == live_fault_regs
        assert (t.wiremem.fetch_block("d", 0x2000, 64)
                == live_t.wiremem.fetch_block("d", 0x2000, 64))

        # travel back to the breakpoint hit: identical world there too
        hit = ldb.reverse_continue()
        assert hit.icount == hit_icount
        assert t.at_breakpoint()
        assert t.signo == SIGTRAP
        assert ldb.evaluate("g") == 15  # 0+1+..+5
        # the live session can travel to the same position: worlds match
        live.goto_icount(hit_icount)
        assert ldb.backtrace_text() == live.backtrace_text()
        assert ldb.registers_text() == live.registers_text()

    @pytest.mark.parametrize("arch", ["rmips", "rvax"])
    def test_forward_replay_reaches_the_same_fault(self, arch, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        live, live_t, _hit = record_crash(arch, path)
        live_bt = live.backtrace_text()
        fault_icount = live_t.current_icount()

        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(path)
        ldb.reverse_continue()
        # re-execute forward across the recorded stops (digest-checked)
        assert ldb.run_to_stop() == "stopped"
        assert t.signo == SIGSEGV
        assert t.current_icount() == fault_icount
        assert ldb.backtrace_text() == live_bt
        snap = ldb.obs.metrics.snapshot()
        assert snap.get("trace.replay.checks", 0) > 0
        assert snap.get("trace.replay.divergences", 0) == 0

    def test_goto_and_reverse_step_work_from_spills(self, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        _live, _t, hit_icount = record_crash("rmips", path)
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(path)
        base = t.recording.meta.base_icount
        assert ldb.goto_icount(hit_icount) == "stopped"
        assert t.current_icount() == hit_icount
        rs = ldb.reverse_step()
        assert base <= rs.icount < hit_icount
        proc, _file, _line = ldb.where_am_i()
        assert proc in ("main", "poke")

    def test_breakpoints_plant_on_a_replay_target(self, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        _live, _t, hit_icount = record_crash("rmips", path)
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(path)
        ldb.goto_icount(t.recording.meta.base_icount)
        ldb.break_at_line("boom.c", 5)  # the loop body
        assert ldb.run_to_stop() == "stopped"
        assert t.at_breakpoint()
        assert t.current_icount() < hit_icount


class TestCrossEngineReplay:
    """A recording's digests cover the whole register-level state, so a
    file recorded under one execution engine must replay under the
    other: their states are byte-identical, ``_wrote_reg`` included."""

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    @pytest.mark.parametrize("recorded,replayed",
                             [("step", "block"), ("block", "step")])
    def test_replays_under_the_other_engine(self, arch, recorded, replayed,
                                            tmp_path, monkeypatch):
        path = str(tmp_path / "boom.ldbrec")
        monkeypatch.setenv(ENGINE_ENV, recorded)
        live, live_t, hit_icount = record_crash(arch, path)
        live_bt = live.backtrace_text()
        fault_icount = live_t.current_icount()

        monkeypatch.setenv(ENGINE_ENV, replayed)
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(path)
        assert t.transport.process.cpu.engine.name == replayed
        hit = ldb.reverse_continue()
        assert hit.icount == hit_icount
        assert ldb.evaluate("g") == 15
        assert ldb.run_to_stop() == "stopped" and t.signo == SIGSEGV
        assert t.current_icount() == fault_icount
        assert ldb.backtrace_text() == live_bt
        snap = ldb.obs.metrics.snapshot()
        assert snap.get("trace.replay.checks", 0) > 0
        assert snap.get("trace.replay.divergences", 0) == 0


class TestInputsAndWriter:
    def test_injected_set_is_replayed_at_its_position(self, tmp_path):
        path = str(tmp_path / "set.ldbrec")
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.load_program(boom_exe("rmips"))
        ldb.start_recording(path=path, interval=37)
        ldb.break_at_function("poke")
        ldb.run_to_stop()
        ldb.assign("g = 99")  # an injected write the replay must redo
        assert ldb.run_to_stop() == "stopped" and t.signo == SIGSEGV
        assert ldb.evaluate("g") == 99
        recording = ldb.record_save()
        assert len(recording.inputs) >= 1

        ldb2 = Ldb(stdout=io.StringIO())
        t2 = ldb2.open_recording(path)
        assert ldb2.evaluate("g") == 99  # at the fault spill
        hit = ldb2.reverse_continue()
        # at the breakpoint: the pre-input arrival state (set not yet
        # applied — it happened on departure from this position)
        assert ldb2.evaluate("g") == 15
        # forward again: the input replays, the fault world matches
        assert ldb2.run_to_stop() == "stopped"
        assert t2.signo == SIGSEGV
        assert ldb2.evaluate("g") == 99
        assert ldb2.obs.metrics.snapshot().get("trace.replay.inputs", 0) >= 1

    def test_record_save_without_recording_is_typed(self):
        ldb = Ldb(stdout=io.StringIO())
        ldb.load_program(boom_exe("rmips"))
        with pytest.raises(TargetError, match="no recording"):
            ldb.record_save()

    def test_save_without_a_path_is_typed(self):
        ldb = Ldb(stdout=io.StringIO())
        ldb.load_program(boom_exe("rmips"))
        ldb.start_recording()  # no path
        with pytest.raises(TargetError, match="no save path"):
            ldb.record_save()

    def test_recording_survives_time_travel_mid_session(self, tmp_path):
        # record, travel back, resume forward (drops the stale future),
        # then save: the file must reopen and still reach the fault
        path = str(tmp_path / "tt.ldbrec")
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.load_program(boom_exe("rmips"))
        ldb.start_recording(path=path, interval=37)
        ldb.break_at_function("poke")
        ldb.run_to_stop()
        ldb.run_to_stop()
        ldb.reverse_continue()
        assert ldb.run_to_stop() == "stopped" and t.signo == SIGSEGV
        ldb.record_save()
        ldb2 = Ldb(stdout=io.StringIO())
        t2 = ldb2.open_recording(path)
        assert t2.signo == SIGSEGV
        ldb2.reverse_continue()
        assert ldb2.run_to_stop() == "stopped" and t2.signo == SIGSEGV


class TestDivergenceDetection:
    def tampered(self, path, tmp_path):
        rec = Recording.load(path)
        rec.stops[-1].digest ^= 0xDEADBEEF  # the fault stop's digest
        out = str(tmp_path / "tampered.ldbrec")
        rec.dump(out)
        return out, rec.stops[-1].icount

    def test_tampered_event_log_raises_with_first_bad_icount(self, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        record_crash("rmips", path)
        tampered, bad_icount = self.tampered(path, tmp_path)
        ldb = Ldb(stdout=io.StringIO())
        ldb.open_recording(tampered)
        with pytest.raises(DivergenceError) as info:
            ldb.reverse_continue()  # replays across the tampered stop
            ldb.run_to_stop()
        assert info.value.icount == bad_icount
        assert info.value.expected != info.value.actual
        assert ("icount %d" % bad_icount) in str(info.value)

    def test_divergence_maps_to_the_typed_api_error(self, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        record_crash("rmips", path)
        tampered, bad_icount = self.tampered(path, tmp_path)
        ldb = Ldb(stdout=io.StringIO())
        api = DebugAPI(ldb)
        api.execute("replay_open", {"path": tampered})
        # rewind to the base spill (restored directly, no re-execution),
        # then continue: the replay crosses the tampered stop position
        ldb.goto_icount(ldb.current.recording.meta.base_icount)
        with pytest.raises(ApiError) as info:
            for _ in range(8):  # recorded breakpoints stop us on the way
                api.execute("continue")
        assert info.value.code == ERR_DIVERGED

    def test_session_stays_debuggable_after_divergence(self, tmp_path):
        # the error is loud, but it must not wedge the session: the
        # replay parks on the divergent state as a stop, so inspection
        # and resumption keep answering (no phantom "running" state)
        path = str(tmp_path / "boom.ldbrec")
        record_crash("rmips", path)
        tampered, bad_icount = self.tampered(path, tmp_path)
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(tampered)
        with pytest.raises(DivergenceError):
            ldb.reverse_continue()
            ldb.run_to_stop()
        assert t.state == "stopped"
        assert t.current_icount() == bad_icount
        assert ldb.evaluate("g") == 15  # the divergent world is readable
        assert "main" in ldb.backtrace_text()
        # and resumable: past the divergent mark into the re-executed
        # fault (no marks left ahead, so no further checks fire)
        assert ldb.run_to_stop() == "stopped"
        assert t.signo == SIGSEGV


class TestRecordingAsTarget:
    def test_corrupt_file_is_a_typed_target_error(self, tmp_path):
        path = str(tmp_path / "junk.ldbrec")
        with open(path, "wb") as f:
            f.write(b"not a recording at all")
        ldb = Ldb(stdout=io.StringIO())
        with pytest.raises(TargetError, match="cannot open recording"):
            ldb.open_recording(path)

    def test_describe_and_status_reflect_replay(self, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        live, _t, _hit = record_crash("rmips", path)
        desc = live.current.describe()
        assert desc["recording_path"] == path
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(path)
        desc = t.describe()
        assert desc["replaying"] is True
        assert desc["state"] == "stopped"

    def test_replay_target_can_dump_a_core(self, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        record_crash("rmips", path)
        ldb = Ldb(stdout=io.StringIO())
        ldb.open_recording(path)
        core_path = str(tmp_path / "replayed.core")
        core = ldb.current.dump_core(core_path)
        assert core.signo == SIGSEGV
        ldb2 = Ldb(stdout=io.StringIO())
        t2 = ldb2.open_core(core_path)
        assert t2.signo == SIGSEGV

    def test_api_record_save_and_replay_open(self, tmp_path):
        path = str(tmp_path / "api.ldbrec")
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.load_program(boom_exe("rmips"))
        ldb.start_recording(path=path, interval=37)
        ldb.break_at_function("poke")
        ldb.run_to_stop()
        api = DebugAPI(ldb)
        out = api.execute("record_save")
        assert out["path"] == path and out["spills"] >= 1
        out = api.execute("replay_open", {"path": path})
        assert out["target"]["replaying"] is True
        assert out["final_icount"] == t.current_icount()


class TestStoresAfterDivergence:
    def test_a_store_at_the_divergent_stop_is_logged_there(self, tmp_path):
        # the replay parks on the divergent state mid-run; a store made
        # there must be logged at that position, not the run's start
        path = str(tmp_path / "boom.ldbrec")
        record_crash("rmips", path)
        rec = Recording.load(path)
        rec.stops[-1].digest ^= 0xDEADBEEF
        tampered = str(tmp_path / "tampered.ldbrec")
        rec.dump(tampered)
        ldb = Ldb(stdout=io.StringIO())
        t = ldb.open_recording(tampered)
        ldb.goto_icount(t.recording.meta.base_icount)
        with pytest.raises(DivergenceError) as info:
            for _ in range(8):
                ldb.run_to_stop()
        ldb.assign("g = 77")
        assert t.replay.inputs[-1].position == info.value.icount
        assert t.current_icount() == info.value.icount
