"""The gateway travels back.

``reverse_continue``, ``reverse_step``, ``reverse_next`` and ``goto``
are DebugAPI verbs, so a hosted session answers them the way the REPL
does: on a session spawned with ``record`` and on a ``replay`` session,
on every ISA, each lands on the icount and location the REPL reaches on
the same program or recording.  A core has no timeline: each answers
``ERR_POST_MORTEM`` there.
"""

import io
import re

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.api import ERR_POST_MORTEM, ApiError, DebugAPI
from repro.ldb.cli import Cli

from tests.serve.helpers import server

ARCHES = ("rmips", "rmipsel", "rsparc", "rm68k", "rvax")

TICKS = """int g;
void tick(int i) { g = g + i; }
int main(void) {
    int i;
    for (i = 0; i < 5; i++)
        tick(i);
    return g;
}
"""

#: the REPL's spelling of each verb
REPL = {"reverse_continue": "rc", "reverse_step": "rs",
        "reverse_next": "rn"}


def landings_by_gateway(client, sid, token, goto):
    out = []
    for verb in ("reverse_continue", "reverse_step", "reverse_next"):
        out.append(client.command(sid, token, verb))
    out.append(client.command(sid, token, "goto", {"icount": goto}))
    return [(r["icount"], r["where"]["proc"], r["where"]["file"],
             r["where"]["line"]) for r in out]


def landings_by_repl(cli, out, goto):
    landings = []
    for verb in ("reverse_continue", "reverse_step", "reverse_next"):
        before = out.tell()
        cli.command(REPL[verb])
        match = re.search(r"back at icount (\d+): (\S+) \(\) at (\S+):(\d+)",
                          out.getvalue()[before:])
        assert match, out.getvalue()[before:]
        landings.append((int(match.group(1)), match.group(2),
                         match.group(3), int(match.group(4))))
    before = out.tell()
    cli.command("goto %d" % goto)
    cli.command("where")
    match = re.search(r"now at icount (\d+)\n(\S+) \(\) at (\S+):(\d+)",
                      out.getvalue()[before:])
    assert match, out.getvalue()[before:]
    landings.append((int(match.group(1)), match.group(2), match.group(3),
                     int(match.group(4))))
    return landings


@pytest.mark.parametrize("arch", ARCHES)
def test_reverse_verbs_land_where_the_repl_lands(arch, tmp_path):
    live_rec = str(tmp_path / "gateway.ldbrec")
    repl_rec = str(tmp_path / "repl.ldbrec")
    with server() as srv:
        client = srv.client()
        info = client.spawn(source=TICKS, arch=arch, filename="ticks.c",
                            record=live_rec)
        sid, token = info["session"], info["token"]
        client.command(sid, token, "break", {"at": "tick"})
        for _ in range(3):
            assert client.command(sid, token, "continue")["event"] == \
                "breakpoint"
        client.command(sid, token, "record_save")
        # back three times, then forward again to where the recording ends
        goto = client.command(sid, token, "fault")["icount"]
        live = landings_by_gateway(client, sid, token, goto)
        client.detach(sid, token)

        info = client.replay(path=live_rec)
        sid, token = info["session"], info["token"]
        replayed = landings_by_gateway(client, sid, token, goto)
        client.detach(sid, token)
        client.close()

    exe = compile_and_link({"ticks.c": TICKS}, arch, debug=True)
    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.start_program(exe)
    for line in ("record --save %s" % repl_rec, "break tick", "continue",
                 "continue", "continue", "record save"):
        cli.command(line)
    assert "ldb:" not in out.getvalue()
    assert landings_by_repl(cli, out, goto) == live

    out = io.StringIO()
    cli = Cli(stdin=io.StringIO(), stdout=out)
    cli.command("replay %s" % live_rec)
    assert landings_by_repl(cli, out, goto) == replayed
    assert "ldb:" not in out.getvalue()
    # the recording travels like the session that wrote it, and the
    # landings are real places in the program, not just agreement
    assert replayed == live
    assert all(proc in ("tick", "main") and where == "ticks.c"
               for _icount, proc, where, _line in live)


@pytest.mark.parametrize("arch", ARCHES)
def test_a_core_has_no_timeline(arch, tmp_path):
    exe = compile_and_link({"ticks.c": TICKS}, arch, debug=True)
    ldb = Ldb(stdout=io.StringIO())
    ldb.load_program(exe)
    api = DebugAPI(ldb)
    api.execute("break", {"at": "tick"})
    api.execute("continue")
    core = str(tmp_path / "ticks.core")
    api.execute("dumpcore", {"path": core})
    ldb.open_core(core)
    for verb, args in (("reverse_continue", None), ("reverse_step", None),
                       ("reverse_next", None), ("goto", {"icount": 1})):
        with pytest.raises(ApiError) as info:
            api.execute(verb, args)
        assert info.value.code == ERR_POST_MORTEM
