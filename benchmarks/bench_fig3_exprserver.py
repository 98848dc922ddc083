"""F3 — Fig. 3: communication paths between ldb and the expression server.

The figure shows ldb exchanging text with the expression server while
fetching values from the nub.  This bench runs live evaluations and
counts the traffic on each leg: expressions out, lookup callbacks back,
SYM replies out, PostScript in, and nub fetches triggered by
interpreting the result.  The server answers on the debugger's thread,
so the bench also counts the threads and sockets the first evaluation
makes: none.
"""

import gc
import io
import json
import socket
import threading
import types

import pytest

from repro.cc.driver import compile_and_link
from repro.ldb import Ldb
from repro.ldb.frames import Frame
from repro.ldb.target import Target
from repro.postscript import Interp

from .conftest import report
from .workloads import FIB_C


def record_conversation(client, crossed):
    """Make ``client``'s server append every line that crosses to it and
    from it to ``crossed``, in order."""
    answer = client.server.answer

    def recording_answer(line, ask):
        def recording_ask(lookup):
            crossed.append(lookup)
            reply = ask(lookup)
            crossed.append(reply)
            return reply

        crossed.append(line)
        text = answer(line, recording_ask)
        crossed.append(text)
        return text

    client.server.answer = recording_answer


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
    started, made = [], []
    start, init = threading.Thread.start, socket.socket.__init__

    def counting_start(thread):
        started.append(thread)
        start(thread)

    def counting_init(sock, *args, **kwargs):
        made.append(sock)
        init(sock, *args, **kwargs)

    crossed = []
    threading.Thread.start, socket.socket.__init__ = counting_start, \
        counting_init
    try:
        client = ldb.expression_client()
        record_conversation(client, crossed)
        wire_before = target.stats.of("wire", "fetch")
        value = ldb.evaluate("a[j] + n")
        wire_fetches = target.stats.of("wire", "fetch") - wire_before
    finally:
        threading.Thread.start, socket.socket.__init__ = start, init
        del client.server.answer

    expr_msgs = [line for line in crossed if line.startswith("EXPR")]
    lookups = [line for line in crossed
               if line.endswith(" ExpressionServer.lookup\n")]
    sym_msgs = [line for line in crossed if line.startswith("SYM")]

    benchmark(ldb.evaluate, "a[j] + n")

    report("", "F3. Expression-server communication (paper Fig. 3)",
           "  evaluating `a[j] + n` at stopping point 9:",
           "    ldb -> server : %d EXPR message, %d SYM replies"
           % (len(expr_msgs), len(sym_msgs)),
           "    server -> ldb : %d lookups (%s) + PostScript + .result"
           % (len(lookups), ", ".join(line.split()[0] for line in lookups)),
           "    ldb -> nub    : %d fetches while interpreting the result"
           % wire_fetches,
           "    value         : %s" % value,
           "    first evaluation: %d threads started, %d sockets made"
           % (len(started), len(made)))

    # -- shape -------------------------------------------------------------
    assert value == 1 + 10  # a[0] + n at the first j-loop iteration
    assert len(expr_msgs) == 1
    # three unknown identifiers came back as lookups -> three SYM replies
    assert len(lookups) == 3
    assert len(sym_msgs) == 3
    names = [json.loads(m.split(" ", 1)[1])["name"] for m in sym_msgs]
    assert sorted(names) == ["a", "j", "n"]
    # interpreting the PostScript fetched through the wire
    assert wire_fetches >= 2
    # the server answers on the debugger's own thread
    assert (len(started), len(made)) == (0, 0)


def test_fig3_symbol_data_is_c_tokens(session):
    """The reply carries type and symbol data as C tokens (Sec. 3)."""
    ldb, target = session
    frame = target.top_frame()
    entry = frame.resolve("a")
    info = ldb.expression_client()._symbol_info("a", entry, target, frame)
    assert info["decl"] == "int a[20]"
    assert "LazyData" in info["where"] or "Absolute" in info["where"]


def test_fig3_server_isolation(session):
    """Only text crosses between ldb and the server (the paper's
    address-space separation): every line either side hands the other
    is a ``str``, and nothing the server holds is a debugger, target,
    frame or interpreter."""
    ldb, target = session
    client = ldb.expression_client()
    crossed = []
    record_conversation(client, crossed)
    try:
        assert ldb.evaluate("a[j] + n") == 11
    finally:
        del client.server.answer
    assert sum(line.startswith("SYM") for line in crossed) == 3
    assert all(type(line) is str for line in crossed)
    held = _reachable(client.server)
    assert any(obj is client.server.types for obj in held)
    assert not [obj for obj in held
                if isinstance(obj, (Ldb, Target, Frame, Interp))]


def _reachable(root):
    """Every object reachable from ``root`` through containers, instance
    attributes and bound methods (not through classes, modules or
    plain functions, which reach everything)."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return list(seen.values())
