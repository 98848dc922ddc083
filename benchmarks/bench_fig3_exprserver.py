"""F3 — Fig. 3: communication paths between ldb and the expression server.

The figure shows ldb exchanging bytes with the expression server over a
pair of pipes while fetching values from the nub.  This bench runs live
evaluations and counts the traffic on each leg: expressions out, lookup
callbacks back, PostScript in, and nub fetches triggered by interpreting
the result.
"""

import io
import json

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb

from .conftest import report
from .workloads import FIB_C


@pytest.fixture(scope="module")
def session():
    # cache=False: the paper's uncached setup, so every fetch counted
    # here reaches the wire as its own FETCH message
    exe = compile_and_link({"fib.c": FIB_C}, "rmips", debug=True)
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe, cache=False)
    ldb.break_at_stop("fib", 9)
    ldb.run_to_stop()
    return ldb, target


def test_fig3_conversation(benchmark, session):
    ldb, target = session
    client = ldb.expression_client()

    sent = []
    original_send = client._send

    def counting_send(line):
        sent.append(line)
        original_send(line)

    client._send = counting_send
    wire_before = target.stats.of("wire", "fetch")
    try:
        value = ldb.evaluate("a[j] + n")
    finally:
        client._send = original_send
    wire_fetches = target.stats.of("wire", "fetch") - wire_before

    expr_msgs = [line for line in sent if line.startswith("EXPR")]
    sym_msgs = [line for line in sent if line.startswith("SYM")]

    benchmark(ldb.evaluate, "a[j] + n")

    report("", "F3. Expression-server communication (paper Fig. 3)",
           "  evaluating `a[j] + n` at stopping point 9:",
           "    ldb -> server : %d EXPR message, %d SYM replies"
           % (len(expr_msgs), len(sym_msgs)),
           "    server -> ldb : /a, /j, /n ExpressionServer.lookup + "
           "PostScript + .result",
           "    ldb -> nub    : %d fetches while interpreting the result"
           % wire_fetches,
           "    value         : %s" % value)

    # -- shape -------------------------------------------------------------
    assert value == 1 + 10  # a[0] + n at the first j-loop iteration
    assert len(expr_msgs) == 1
    # three unknown identifiers came back as lookups -> three SYM replies
    assert len(sym_msgs) == 3
    names = [json.loads(m.split(" ", 1)[1])["name"] for m in sym_msgs]
    assert sorted(names) == ["a", "j", "n"]
    # interpreting the PostScript fetched through the wire
    assert wire_fetches >= 2


def test_fig3_symbol_data_is_c_tokens(session):
    """The reply carries type and symbol data as C tokens (Sec. 3)."""
    ldb, target = session
    frame = target.top_frame()
    entry = frame.resolve("a")
    info = ldb.expression_client()._symbol_info("a", entry, target, frame)
    assert info["decl"] == "int a[20]"
    assert "LazyData" in info["where"] or "Absolute" in info["where"]


def test_fig3_server_isolation(session):
    """The server lives behind byte streams: no shared state with ldb
    beyond the two pipes (the paper's address-space separation)."""
    ldb, _target = session
    client = ldb.expression_client()
    assert client.thread.is_alive()
    assert client.server.types is not None
    # the debugger side holds no reference to server symbol objects
    assert not hasattr(client, "symbols")
