"""Durable artifacts: the power-cut property, salvage-on-open, partial
saves, recording-across-reconnect, and ``record stop``.

The central property: for *every* byte-length prefix of a valid
artifact (a power cut can stop a pre-atomic writer at any byte), the
open path answers one of exactly three ways — a clean open, a salvaged
read-only open wearing a :class:`SalvagedArtifact` warning, or a typed
load error.  Never a struct error, never a silent wrong answer.
"""

import io
import warnings as warnings_mod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.api import ApiError, DebugAPI, ERR_TARGET_STATE
from repro.ldb.cli import Cli
from repro.ldb.target import TargetError
from repro.machines import SIGSEGV
from repro.machines.atomicio import (FaultyFS, FsFaultSchedule, PowerCut,
                                     SalvagedArtifact, use_fs)
from repro.machines.core import CoreError, CoreFile
from repro.trace import Recording, TraceError
from repro.trace.format import OP_STORE, InputRecord
from repro.triage import ArtifactRecord, triage_artifact

from .test_format import tiny_recording


def tiny_core(loader_ps="/T 1 dict def"):
    return CoreFile(
        arch_name="rmips", byteorder="big", memsize=1 << 16,
        context_addr=0x100, icount=7, signo=11, code=3, fault_pc=0x2000,
        segments=[(0x2000, b"\x01\x02\x03\x04" * 16),
                  (0x8000, b"\xAA" * 64)],
        planted=[(0x2004, b"\x0d\x00\x00\x00")],
        loader_ps=loader_ps)


def open_prefix(raw, opener, error):
    """Open ``raw`` with salvage on; classify the outcome."""
    with warnings_mod.catch_warnings(record=True) as caught:
        warnings_mod.simplefilter("always", SalvagedArtifact)
        try:
            artifact = opener(raw, salvage=True)
        except error:
            return "error", None
    salvage_warned = any(issubclass(entry.category, SalvagedArtifact)
                         for entry in caught)
    assert salvage_warned == artifact.salvaged, \
        "salvage must warn exactly when it happened"
    return ("salvage" if artifact.salvaged else "open"), artifact


class TestPowerCutProperty:
    """Every truncation point of both artifact kinds is typed."""

    def test_every_recording_prefix_is_typed(self):
        raw = tiny_recording().to_bytes()
        outcomes = {"open": 0, "salvage": 0, "error": 0}
        for cut in range(len(raw) + 1):
            kind, rec = open_prefix(raw[:cut], Recording.from_bytes,
                                    TraceError)
            outcomes[kind] += 1
            if kind != "error":
                # whatever opened serves a coherent timeline
                assert rec.spills and rec.final_icount >= rec.spills[0].icount
                assert all(s.icount <= rec.final_icount for s in rec.stops)
        assert outcomes["open"] == 1  # only the full file opens clean
        assert outcomes["salvage"] > 0 and outcomes["error"] > 0

    def test_every_core_prefix_is_typed(self):
        raw = tiny_core().to_bytes()
        outcomes = {"open": 0, "salvage": 0, "error": 0}
        for cut in range(len(raw) + 1):
            kind, core = open_prefix(raw[:cut], CoreFile.from_bytes,
                                     CoreError)
            outcomes[kind] += 1
            if kind != "error":
                # the fault record survived, and the process rebuilds
                assert core.signo == 11 and core.fault_pc == 0x2000
                core.process()
        assert outcomes["open"] == 1
        assert outcomes["salvage"] > 0 and outcomes["error"] > 0

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(0, 2000), flip=st.integers(0, 2000),
           bit=st.integers(0, 7), kind=st.sampled_from(["rec", "core"]))
    def test_truncate_then_flip_is_typed(self, cut, flip, bit, kind):
        # damage beyond clean truncation: rot a byte of the prefix too
        if kind == "rec":
            raw, opener, error = (tiny_recording().to_bytes(),
                                  Recording.from_bytes, TraceError)
        else:
            raw, opener, error = (tiny_core().to_bytes(),
                                  CoreFile.from_bytes, CoreError)
        damaged = bytearray(raw[:min(cut, len(raw))])
        if damaged and flip < len(damaged):
            damaged[flip] ^= 1 << bit
        outcome, _ = open_prefix(bytes(damaged), opener, error)
        assert outcome in ("open", "salvage", "error")

    def test_strict_mode_still_refuses_all_damage(self):
        raw = tiny_recording().to_bytes()
        with pytest.raises(TraceError):
            Recording.from_bytes(raw[: len(raw) - 5])
        raw = tiny_core().to_bytes()
        with pytest.raises(CoreError):
            CoreFile.from_bytes(raw[: len(raw) - 5])

    def test_salvage_clamps_stops_and_inputs_to_horizon(self):
        from repro.trace.format import InputRecord, OP_STORE
        rec = tiny_recording(inputs=[
            InputRecord(3, OP_STORE, "d", 0x2000, b"\x2a\0\0\0"),
            InputRecord(40, OP_STORE, "d", 0x2004, b"\x2b\0\0\0")])
        raw = rec.to_bytes()
        # cut inside the second SPILL block: only the icount-3 spill
        # survives, so the icount-40 stop and input must go with it
        for cut in range(len(raw)):
            outcome, salvaged = open_prefix(raw[:cut],
                                            Recording.from_bytes,
                                            TraceError)
            if outcome == "salvage" and len(salvaged.spills) == 1:
                assert salvaged.final_icount == 3
                assert all(s.icount <= 3 for s in salvaged.stops)
                assert all(i.position <= 3 for i in salvaged.inputs)
                break
        else:
            pytest.fail("no single-spill salvage point found")


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


@pytest.fixture(scope="module")
def boom_exe():
    return compile_and_link({"boom.c": BOOM}, "rmips", debug=True)


def record_boom(boom_exe, path):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(boom_exe)
    ldb.start_recording(path=path, interval=37)
    ldb.break_at_function("poke")
    assert ldb.run_to_stop() == "stopped" and target.at_breakpoint()
    assert ldb.run_to_stop() == "stopped" and target.signo == SIGSEGV
    ldb.record_save()
    return ldb, target


class TestSalvagedOpenThroughLdb:
    def test_truncated_recording_replays_to_horizon(self, boom_exe,
                                                    tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        record_boom(boom_exe, path)
        raw = open(path, "rb").read()
        cut = str(tmp_path / "cut.ldbrec")
        with open(cut, "wb") as handle:
            handle.write(raw[: len(raw) * 2 // 3])

        ldb = Ldb(stdout=io.StringIO())
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always", SalvagedArtifact)
            target = ldb.open_recording(cut)
        assert any(issubclass(entry.category, SalvagedArtifact)
                   for entry in caught)
        rec = target.recording
        assert rec.salvaged and rec.spills
        # the surviving spills seed the ring: time travel works on the
        # salvaged horizon, and replay verifies what the log still has
        assert target.state == "stopped"
        assert target.current_icount() == rec.final_icount
        ldb.backtrace_text()
        if len(rec.spills) > 1:
            ldb.goto_icount(rec.spills[0].icount)
            assert target.current_icount() == rec.spills[0].icount

    def test_truncated_core_opens_salvaged(self, boom_exe, tmp_path):
        live = Ldb(stdout=io.StringIO())
        target = live.load_program(boom_exe)
        assert live.run_to_stop() == "stopped" and target.signo == SIGSEGV
        path = str(tmp_path / "boom.core")
        target.dump_core(path)
        raw = open(path, "rb").read()
        cut = str(tmp_path / "cut.core")
        with open(cut, "wb") as handle:
            handle.write(raw[: len(raw) - len(raw) // 4])

        # the symbol table is the last thing in a core body, so this
        # cut lost it: the salvaged open needs table_ps passed — the
        # same rule as a core dumped without an embedded table
        table_ps = CoreFile.load(path).loader_ps
        ldb = Ldb(stdout=io.StringIO())
        with warnings_mod.catch_warnings():
            # the salvage still warns before the table check refuses
            warnings_mod.simplefilter("ignore", SalvagedArtifact)
            with pytest.raises(TargetError, match="embeds no symbol table"):
                ldb.open_core(cut)
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always", SalvagedArtifact)
            post = ldb.open_core(cut, table_ps=table_ps)
        assert any(issubclass(entry.category, SalvagedArtifact)
                   for entry in caught)
        assert post.core.salvaged
        assert post.signo == SIGSEGV
        ldb.backtrace_text()

    def test_cli_surfaces_salvage_warning(self, boom_exe, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        record_boom(boom_exe, path)
        raw = open(path, "rb").read()
        cut = str(tmp_path / "cut.ldbrec")
        with open(cut, "wb") as handle:
            handle.write(raw[: len(raw) * 2 // 3])
        out = io.StringIO()
        cli = Cli(stdout=out)
        cli.command("replay %s" % cut)
        assert "warning: recording salvaged" in out.getvalue()


class TestMalformedInputLog:
    """A logged STORE whose data is no value size is a damaged LOG
    block: the recording opens salvaged without its log, and no surface
    meets the raw error rebuilding that input would raise."""

    @pytest.fixture
    def bad_path(self, boom_exe, tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        record_boom(boom_exe, path)
        recording = Recording.load(path)
        recording.inputs.append(InputRecord(
            8, OP_STORE, "d", recording.meta.context_addr, b"\0" * 7))
        bad = str(tmp_path / "bad.ldbrec")
        recording.dump(bad)  # whole blocks: every CRC holds
        return bad

    def test_load_refuses_and_salvages(self, bad_path):
        with pytest.raises(TraceError, match="malformed input-log entry"):
            Recording.load(bad_path)
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always", SalvagedArtifact)
            recording = Recording.load(bad_path, salvage=True)
        assert recording.salvaged and recording.inputs == []
        assert any(issubclass(entry.category, SalvagedArtifact)
                   for entry in caught)

    def test_cli_warns_and_keeps_going(self, bad_path):
        out = io.StringIO()
        cli = Cli(stdout=out)
        for line in ("replay %s" % bad_path, "goto 3", "continue"):
            cli.command(line)
        text = out.getvalue()
        assert "warning: recording salvaged" in text
        assert "malformed input-log entry" in text
        assert "now at icount 3" in text
        assert "stopped in poke" in text

    def test_api_answers_typed(self, bad_path):
        ldb = Ldb(stdout=io.StringIO())
        api = DebugAPI(ldb)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore", SalvagedArtifact)
            api.execute("replay_open", {"path": bad_path})
        ldb.goto_icount(3)
        assert api.execute("continue")["event"] == "breakpoint"

    def test_triage_marks_it_salvaged(self, bad_path):
        record = triage_artifact(bad_path)
        assert isinstance(record, ArtifactRecord) and record.salvaged
        assert record.signo == SIGSEGV


class TestPartialSave:
    def test_dead_nub_degrades_to_partial(self, boom_exe, tmp_path):
        from tests.nub.test_faults import _attach, _listening_nub
        path = str(tmp_path / "partial.ldbrec")
        nub, runner, listener = _listening_nub(boom_exe)
        try:
            ldb, target = _attach(boom_exe, listener)
            ldb.start_recording(path=path, interval=37)
            ldb.break_at_function("poke")
            assert ldb.run_to_stop() == "stopped"
            first = ldb.record_save()  # materializes everything so far
            assert not first.partial
            # accumulate fresh *pending* spills, then lose the nub for
            # good: connection severed and nothing listening anymore
            assert ldb.run_to_stop() == "stopped"
            listener.close()
            target.channel.sock.close()
            with pytest.raises(TargetError):
                ldb.record_save(path)  # strict save refuses
            partial = ldb.record_save(path, allow_partial=True)
            assert partial.partial
            assert len(partial.spills) >= len(first.spills)
        finally:
            runner.join()
            listener.close()
        # the partial file is a valid recording — no salvage needed
        replay = Ldb(stdout=io.StringIO())
        reopened = replay.open_recording(path)
        assert reopened.recording.partial is False  # flag is not persisted
        assert reopened.state == "stopped"
        replay.backtrace_text()

    def test_api_record_save_partial_flag(self, boom_exe, tmp_path):
        path = str(tmp_path / "api.ldbrec")
        ldb, _target = record_boom(boom_exe, path)
        api = DebugAPI(ldb)
        out = api.execute("record_save", {"path": path, "partial": True})
        assert out["partial"] is False  # healthy target: a full save
        with pytest.raises(ApiError):
            api.execute("record_save", {"partial": "yes"})


class TestSaveUnderFaultyDisk:
    def test_powercut_mid_save_keeps_previous_recording(self, boom_exe,
                                                        tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        ldb, target = record_boom(boom_exe, path)
        before = open(path, "rb").read()
        fs = FaultyFS(FsFaultSchedule(seed=5, script=["powercut"]))
        with use_fs(fs):
            with pytest.raises(PowerCut):
                ldb.record_save(path)
        # the artifact is exactly the previous save — never torn
        assert open(path, "rb").read() == before
        Recording.load(path)  # strict open succeeds
        # the machine reboots; the retried save sweeps the dead
        # writer's temp and lands cleanly
        fs.revive()
        with use_fs(fs):
            ldb.record_save(path)
        Recording.load(path)

    def test_enospc_mid_save_is_typed_and_keeps_previous(self, boom_exe,
                                                         tmp_path):
        path = str(tmp_path / "boom.ldbrec")
        ldb, _target = record_boom(boom_exe, path)
        before = open(path, "rb").read()
        fs = FaultyFS(FsFaultSchedule(seed=2, script=["enospc"]))
        with use_fs(fs):
            with pytest.raises(TargetError, match="disk full"):
                ldb.record_save(path)
        assert open(path, "rb").read() == before


class TestRecordStop:
    def test_debugger_verb(self, boom_exe, tmp_path):
        path = str(tmp_path / "x.ldbrec")
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(boom_exe)
        ldb.start_recording(path=path, interval=37)
        ldb.break_at_function("poke")
        assert ldb.run_to_stop() == "stopped"
        spills, _inputs = ldb.record_stop()
        assert spills > 0
        assert target.trace_writer is None
        assert target.replay is not None  # time travel survives
        assert target.replay.writer is None
        # stopping twice is a typed error
        with pytest.raises(TargetError, match="no recording"):
            ldb.record_stop()
        # and the tap really is gone: further stops record nothing
        assert ldb.run_to_stop() == "stopped"

    def test_api_verb(self, boom_exe, tmp_path):
        ldb = Ldb(stdout=io.StringIO())
        ldb.load_program(boom_exe)
        api = DebugAPI(ldb)
        with pytest.raises(ApiError) as info:
            api.execute("record_stop")
        assert info.value.code == ERR_TARGET_STATE
        ldb.start_recording(path=str(tmp_path / "y.ldbrec"))
        out = api.execute("record_stop")
        assert out["stopped"] is True
        assert out["discarded_spills"] >= 1

    def test_cli_verb(self, boom_exe, tmp_path):
        out = io.StringIO()
        cli = Cli(stdout=out)
        cli.start_program(boom_exe)
        cli.command("record --save %s" % (tmp_path / "z.ldbrec"))
        cli.command("record stop")
        assert "recording stopped without saving" in out.getvalue()
        assert cli.ldb.current.trace_writer is None


class TestRecordingAcrossReconnect:
    def test_recording_survives_reconnect_and_replays(self, boom_exe,
                                                      tmp_path):
        from tests.nub.test_faults import _attach, _listening_nub
        path = str(tmp_path / "stitched.ldbrec")
        nub, runner, listener = _listening_nub(boom_exe)
        try:
            ldb, target = _attach(boom_exe, listener)
            ldb.start_recording(path=path, interval=37)
            ldb.break_at_function("poke")
            assert ldb.run_to_stop() == "stopped"
            writer = target.trace_writer
            inputs_before = len(writer.inputs)
            # the connection dies mid-session; the nub preserves the
            # target and the recording rides across the reconnect
            target.channel.sock.close()
            target.reconnect()
            assert target.state == "stopped"
            assert target.trace_writer is writer
            assert writer.stitches == 1
            # the reconnect's BREAKS is recovery mechanics, not an
            # input: the input log must not have grown
            assert len(writer.inputs) == inputs_before
            assert ldb.run_to_stop() == "stopped"
            assert target.signo == SIGSEGV
            rec = ldb.record_save()
            assert len(rec.spills) >= 2
        finally:
            runner.join()
            listener.close()
        # the stitched file replays clean: divergence checking on, the
        # recorded digests verify across the reconnect boundary
        replay = Ldb(stdout=io.StringIO())
        reopened = replay.open_recording(path)
        assert reopened.signo == SIGSEGV
        replay.backtrace_text()
        metric = target.obs.metrics.snapshot().get(
            "trace.reconnect_stitches")
        assert metric == 1
