"""Triage's three doors — API verbs, the ldb CLI, and the gateway op —
plus the `fault` verb and extended backtrace fields they ride on."""

import io
import json
import os

import pytest

from repro.ldb import Ldb
from repro.ldb.api import DebugAPI
from repro.ldb.cli import Cli, main as cli_main
from repro.serve import RemoteError

from tests.serve.helpers import server


def first_core(corpus):
    directory, manifest = corpus
    name = next(a["path"] for a in manifest["artifacts"]
                if a["kind"] == "core")
    return os.path.join(directory, name)


# -- the DebugAPI additions ------------------------------------------------

def test_fault_verb_on_a_core(corpus):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.open_core(first_core(corpus))
    fault = DebugAPI(ldb).execute("fault")
    assert fault["arch"] == target.arch_name
    assert fault["signo"] == target.signo and fault["signo"] != 0
    assert fault["code"] == target.sigcode
    assert fault["fault_pc"] == target.core.fault_pc
    assert fault["icount"] == target.core.icount
    assert fault["post_mortem"] is True and fault["replaying"] is False


def test_fault_verb_on_a_recording(corpus):
    directory, manifest = corpus
    name = next(a["path"] for a in manifest["artifacts"]
                if a["kind"] == "recording")
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.open_recording(os.path.join(directory, name))
    fault = DebugAPI(ldb).execute("fault")
    assert fault["replaying"] is True
    assert fault["signo"] == target.signo != 0
    assert fault["icount"] == target.recording.final_icount
    assert fault["fault_pc"] is not None


def test_backtrace_frames_carry_pc_offset_corrupt(corpus):
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.open_core(first_core(corpus))
    frames = DebugAPI(ldb).execute("backtrace")["frames"]
    assert frames
    for row in frames:
        assert {"level", "proc", "file", "line", "pc", "offset",
                "corrupt"} <= set(row)
        assert row["corrupt"] is False
        if row["offset"] is not None:
            hit = target.linker.proc_containing(row["pc"])
            assert row["pc"] - hit[0] == row["offset"]


def test_fault_is_a_listed_nonmutating_verb():
    api = DebugAPI(Ldb(stdout=io.StringIO()))
    assert "fault" in api.commands()
    from repro.ldb.api import MUTATING
    assert "fault" not in MUTATING and "backtrace" not in MUTATING


# -- the CLI ---------------------------------------------------------------

def test_ldb_triage_subcommand(corpus, tmp_path, capsys):
    directory, manifest = corpus
    out_json = tmp_path / "report.json"
    rc = cli_main(["triage", directory, "--json", str(out_json)])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "crash groups" in shown and "could not be triaged" in shown
    data = json.loads(out_json.read_text())
    assert data["scanned"] == len(manifest["artifacts"])


def test_ldb_triage_subcommand_has_no_workers_option(corpus, capsys):
    # triage runs in one serial pass: a worker count is a usage error
    directory, _ = corpus
    with pytest.raises(SystemExit) as exit_:
        cli_main(["triage", directory, "--workers", "2"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage: ldb triage" in err
    assert "unrecognized arguments: --workers 2" in err


def test_ldb_triage_subcommand_batch_error(tmp_path, capsys):
    rc = cli_main(["triage", str(tmp_path / "missing")])
    assert rc == 2
    assert "ldb triage:" in capsys.readouterr().err


def test_repl_triage_verb(corpus):
    directory, manifest = corpus
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.command("triage %s" % directory)
    shown = out.getvalue()
    assert "crash groups" in shown
    # the REPL shares the debugger's registry: stats shows triage.*
    out.truncate(0), out.seek(0)
    cli.command("stats")
    assert "triage.batches" in out.getvalue()


def test_repl_triage_verb_usage_and_errors(tmp_path):
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.command("triage")
    assert "usage: triage" in out.getvalue()
    # a worker count is an extra word, answered with the usage line,
    # never an exception
    for extra in ("abc", "0"):
        out.truncate(0), out.seek(0)
        cli.command("triage %s %s" % (tmp_path, extra))
        assert "usage: triage" in out.getvalue()
    out.truncate(0), out.seek(0)
    cli.command("triage %s" % (tmp_path / "missing"))
    assert "ldb: triage:" in out.getvalue()


# -- the gateway op --------------------------------------------------------

def test_gateway_triage_op(corpus):
    directory, manifest = corpus
    with server() as srv:
        client = srv.client()
        report = client.triage(directory)
        assert report["scanned"] == len(manifest["artifacts"])
        assert report["triaged"] > 0 and report["groups"]
        kinds = {e["kind"] for e in report["errors"]}
        assert "diverged" in kinds and "corrupt-core" in kinds
        # the batch's metrics land in the server's shared registry
        stats = client.stats()
        assert srv.manager.obs.metrics.get("triage.batches") == 1
        assert stats  # serve.* family still answers beside it


def test_gateway_triage_typed_errors():
    with server() as srv:
        client = srv.client()
        with pytest.raises(RemoteError) as err:
            client.triage("")  # no path at all
        assert err.value.code == "ERR_TRIAGE"
        with pytest.raises(RemoteError) as err:
            client.triage("/nonexistent/corpus")
        assert err.value.code == "ERR_TRIAGE"
        # a pool size or mode is an unknown argument, refused by name
        # like an unknown fault key
        for extra in ({"workers": 2}, {"mode": "process"}):
            with pytest.raises(RemoteError) as err:
                client.request("triage", args=dict(extra, path="/tmp"))
            assert err.value.code == "ERR_TRIAGE"
            assert next(iter(extra)) in str(err.value)
