"""Observability end to end: the instrumented stack, the CLI verbs,
and the deterministic-transcript acceptance criterion — a scripted
session (break, backtrace, reverse-continue) dumps identical, decoded
JSONL on every run."""

import io
import json

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.cli import Cli

from ..ldb.helpers import FIB


@pytest.fixture(scope="module")
def fib_exe():
    return compile_and_link({"fib.c": FIB}, "rmips", debug=True)


def scripted_session(exe):
    """break -> continue -> backtrace -> continue -> reverse-continue,
    traced from the start; returns (ldb, deterministic JSONL dump)."""
    ldb = Ldb(stdout=io.StringIO())
    ldb.obs.tracer.enable()
    target = ldb.load_program(exe)
    ldb.enable_time_travel(interval=500)
    ldb.break_at_stop("fib", 9)  # in the print loop: hit per iteration
    ldb.run_to_stop()
    ldb.backtrace_text()
    ldb.run_to_stop()
    ldb.reverse_continue()  # back onto the previous iteration's hit
    dump = ldb.obs.tracer.dump()
    target.kill()
    return ldb, dump


class TestScriptedTranscript:
    def test_dump_is_deterministic_across_runs(self, fib_exe):
        _, first = scripted_session(fib_exe)
        _, second = scripted_session(fib_exe)
        assert first == second

    def test_dump_is_decoded_jsonl(self, fib_exe):
        _, dump = scripted_session(fib_exe)
        records = [json.loads(line) for line in dump.splitlines()]
        assert records
        # frames are decoded (opcode names + fields), not raw hex blobs
        sends = [r for r in records if r["name"] == "wire.send"]
        assert ({"BLOCKFETCH", "CHECKPOINT", "RESTORE"}
                <= {r["op"] for r in sends})
        assert all("addr" in r for r in sends if r["op"] == "BLOCKFETCH")
        # the replay search appears as nested spans with noted results
        scans = [r for r in records
                 if r["name"] == "replay.scan" and r["ev"] == "end"]
        assert scans and all("hits" in r for r in scans)
        # no wall-clock fields survive in the deterministic dump
        assert all("t_us" not in r and "dur_us" not in r for r in records)
        # the restore leaves its warning-level mark
        assert any(r["name"] == "target.restore"
                   and r["level"] == "warning" for r in records
                   if r.get("ev") == "event")

    def test_registry_covers_every_family(self, fib_exe):
        ldb, _ = scripted_session(fib_exe)
        snap = ldb.obs.metrics.snapshot()
        for family in ("wire.", "cache.", "session.", "target.", "replay."):
            assert any(name.startswith(family) for name in snap), family
        # the DAG mirror and the local MemoryStats agree on round-trips
        target = ldb.targets["t0"]
        assert ldb.obs.metrics.total("wire.") == target.stats.round_trips()


class TestFileHosts:
    def test_cores_and_recordings_report_into_the_debuggers_hub(
            self, fib_exe, tmp_path):
        """A core's and a recording's requests are counted and traced in
        the debugger's hub as the in-thread host's are."""
        live = Ldb(stdout=io.StringIO())
        target = live.load_program(fib_exe)
        live.start_recording(path=str(tmp_path / "fib.ldbrec"))
        live.break_at_stop("fib", 9)
        live.run_to_stop()
        live.record_save()
        target.dump_core(str(tmp_path / "fib.core"))
        for opener, name in ((Ldb.open_core, "fib.core"),
                             (Ldb.open_recording, "fib.ldbrec")):
            ldb = Ldb(stdout=io.StringIO())
            ldb.obs.tracer.enable()
            opener(ldb, str(tmp_path / name))
            ldb.backtrace_text()
            assert ldb.obs.metrics.get("session.requests", 0) > 0, name
            assert ldb.obs.metrics.get("session.events", 0) == 1, name
            sends = [json.loads(line)
                     for line in ldb.obs.tracer.dump().splitlines()]
            assert "BLOCKFETCH" in {record.get("op") for record in sends
                                    if record["name"] == "wire.send"}, name


class TestCliVerbs:
    def _cli(self, exe):
        out = io.StringIO()
        cli = Cli(stdin=io.StringIO(), stdout=out)
        cli.start_program(exe)
        return cli, out

    def _said(self, out, before):
        out.seek(before)
        return out.read()

    def test_stats_prints_registry(self, fib_exe):
        cli, out = self._cli(fib_exe)
        cli.command("break fib")
        cli.command("continue")
        before = out.tell()
        cli.command("stats")
        text = self._said(out, before)
        assert "session.requests" in text
        assert "wire." in text

    def test_sim_prints_engine_counters(self, fib_exe):
        cli, out = self._cli(fib_exe)
        cli.command("break fib")
        cli.command("continue")
        before = out.tell()
        cli.command("sim")
        text = self._said(out, before)
        assert "engine " in text
        if "engine block" in text:
            assert "blocks_compiled" in text and "generation" in text

    def test_trace_on_dump_off(self, fib_exe, tmp_path):
        cli, out = self._cli(fib_exe)
        cli.command("trace on")
        cli.command("break fib")
        cli.command("continue")
        path = tmp_path / "session.jsonl"
        cli.command("trace dump %s" % path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert any(r.get("op") == "BLOCKFETCH" for r in records)
        before = out.tell()
        cli.command("trace off")
        assert "tracing off" in self._said(out, before)

    def test_trace_dump_to_terminal_and_clear(self, fib_exe):
        cli, out = self._cli(fib_exe)
        cli.command("trace on")
        cli.command("break fib")
        before = out.tell()
        cli.command("trace dump")
        assert '"op": "' in self._said(out, before)
        cli.command("trace clear")
        before = out.tell()
        cli.command("trace dump")
        assert self._said(out, before) == ""

    def test_trace_usage_message(self, fib_exe):
        cli, out = self._cli(fib_exe)
        before = out.tell()
        cli.command("trace bogus")
        assert "trace: on | off | dump" in self._said(out, before)
