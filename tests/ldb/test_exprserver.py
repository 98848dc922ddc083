"""Expression-server tests: the Fig. 3 conversation and the rewriter."""

import io
import socket
import sys
import threading

import pytest

from repro.cc.driver import compile_and_link
from repro.cc.ir import BINOP, CNST, CVT, INDIR, IRNode
from repro.ldb import Ldb
from repro.ldb.exprserver import EvalError, ExpressionServer, rewrite_to_ps
from repro.nub.session import DeadlineExceeded
from repro.postscript import new_interp

from .helpers import FIB, session


def run_ps(source):
    interp = new_interp(stdout=io.StringIO())
    interp.run(source)
    return interp.pop()


class TestRewriter:
    """IR -> PostScript (the paper's 124-line rewriter analog)."""

    def test_constants(self):
        assert run_ps(rewrite_to_ps(CNST("i4", 42))) == 42
        assert run_ps(rewrite_to_ps(CNST("f8", 2.5))) == 2.5

    @pytest.mark.parametrize("op,a,b,expected", [
        ("ADD", 3, 4, 7), ("SUB", 10, 4, 6), ("MUL", 6, 7, 42),
        ("BAND", 12, 10, 8), ("BOR", 12, 10, 14), ("BXOR", 12, 10, 6),
    ])
    def test_arith(self, op, a, b, expected):
        node = BINOP(op, "i4", CNST("i4", a), CNST("i4", b))
        assert run_ps(rewrite_to_ps(node)) == expected

    def test_add_wraps_to_32_bits(self):
        node = BINOP("ADD", "i4", CNST("i4", 2**31 - 1), CNST("i4", 1))
        assert run_ps(rewrite_to_ps(node)) == -(2**31)

    def test_signed_division_truncates(self):
        node = BINOP("DIV", "i4", CNST("i4", -7), CNST("i4", 2))
        assert run_ps(rewrite_to_ps(node)) == -3

    def test_unsigned_division(self):
        node = BINOP("DIV", "u4", CNST("u4", -2), CNST("u4", 3))
        assert run_ps(rewrite_to_ps(node)) == (2**32 - 2) // 3

    def test_signed_shift_right(self):
        node = BINOP("RSH", "i4", CNST("i4", -16), CNST("i4", 2))
        assert run_ps(rewrite_to_ps(node)) == -4

    def test_unsigned_shift_right(self):
        node = BINOP("RSH", "u4", CNST("u4", -16), CNST("u4", 2))
        assert run_ps(rewrite_to_ps(node)) == (2**32 - 16) >> 2

    @pytest.mark.parametrize("op,a,b,expected", [
        ("EQ", 3, 3, 1), ("NE", 3, 4, 1), ("LT", 3, 4, 1),
        ("GE", 3, 4, 0), ("GT", 5, 4, 1), ("LE", 5, 4, 0),
    ])
    def test_compares(self, op, a, b, expected):
        node = BINOP(op, "i4", CNST("i4", a), CNST("i4", b))
        assert run_ps(rewrite_to_ps(node)) == expected

    def test_unsigned_compare(self):
        # -1 as unsigned is huge
        node = BINOP("LT", "u4", CNST("u4", -1), CNST("u4", 1))
        assert run_ps(rewrite_to_ps(node)) == 0

    def test_cond_and_logic(self):
        cond = IRNode("COND", "i4", [CNST("i4", 1), CNST("i4", 10), CNST("i4", 20)])
        assert run_ps(rewrite_to_ps(cond)) == 10
        andand = IRNode("ANDAND", "i4", [CNST("i4", 2), CNST("i4", 0)])
        assert run_ps(rewrite_to_ps(andand)) == 0
        oror = IRNode("OROR", "i4", [CNST("i4", 0), CNST("i4", 5)])
        assert run_ps(rewrite_to_ps(oror)) == 1
        notn = IRNode("NOT", "i4", [CNST("i4", 0)])
        assert run_ps(rewrite_to_ps(notn)) == 1

    def test_conversions(self):
        to_float = CVT("f8", "i4", CNST("i4", 7))
        assert run_ps(rewrite_to_ps(to_float)) == 7.0
        to_int = CVT("i4", "f8", CNST("f8", 3.9))
        assert run_ps(rewrite_to_ps(to_int)) == 3
        narrow = CVT("i1", "i4", CNST("i4", 300))
        assert run_ps(rewrite_to_ps(narrow)) == 300 - 256

    def test_neg_and_bcom(self):
        assert run_ps(rewrite_to_ps(IRNode("NEG", "i4", [CNST("i4", 5)]))) == -5
        assert run_ps(rewrite_to_ps(IRNode("BCOM", "i4", [CNST("i4", 0)]))) == -1

    def test_rewriter_is_compact(self):
        """The paper: 124 lines of C rewrote 112 IR operators.  Our
        rewriter should be the same order of magnitude."""
        import inspect
        from repro.ldb import exprserver
        source = inspect.getsource(exprserver.rewrite_to_ps) \
            + inspect.getsource(exprserver._rewrite_cvt)
        lines = [l for l in source.splitlines()
                 if l.strip() and not l.strip().startswith("#")]
        assert len(lines) <= 200


class TestConversation:
    """The lookup round trip of Fig. 3."""

    def stopped(self, arch="rmips"):
        ldb, target = session(arch=arch)
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        return ldb, target

    def test_simple_expression(self):
        ldb, _target = self.stopped()
        assert ldb.evaluate("2 + 3 * 4") == 14

    def test_symbol_lookup_round_trip(self):
        ldb, _target = self.stopped()
        assert ldb.evaluate("n") == 10

    def test_static_array_subscript(self):
        ldb, _target = self.stopped()
        assert ldb.evaluate("a[4]") == 5

    def test_out_of_scope_name_fails(self):
        ldb, _target = self.stopped()
        with pytest.raises(EvalError):
            ldb.evaluate("i")   # the other block's local

    def test_parse_error_reported(self):
        ldb, _target = self.stopped()
        with pytest.raises(EvalError):
            ldb.evaluate("n +")

    def test_call_rejected_like_the_paper(self):
        """Sec. 7.1: expressions with procedure calls are future work."""
        ldb, _target = self.stopped()
        with pytest.raises(EvalError) as info:
            ldb.evaluate("fib(3)")
        assert "not yet supported" in str(info.value)

    def test_assignment_writes_target(self):
        ldb, target = self.stopped()
        ldb.evaluate("j = 3")
        assert ldb.evaluate("j") == 3

    def test_server_survives_errors(self):
        """An error must not wedge the conversation."""
        ldb, _target = self.stopped()
        with pytest.raises(EvalError):
            ldb.evaluate("totally bogus +++")
        assert ldb.evaluate("1 + 1") == 2

    def test_struct_types_reconstructed(self):
        """The server rebuilds type info from C tokens (Sec. 3)."""
        source = """
        struct pair { int first; int second; };
        struct pair g;
        int main(void) {
            g.first = 11; g.second = 22;
            return g.first;    /* line 6 */
        }
        """
        ldb, target = session(source, filename="pair.c")
        ldb.break_at_line("pair.c", 6)
        ldb.run_to_stop()
        assert ldb.evaluate("g.first + g.second") == 33

    def test_type_info_persists_between_expressions(self):
        source = """
        struct pair { int first; int second; };
        struct pair g;
        int main(void) {
            g.first = 11; g.second = 22;
            return g.first;    /* line 6 */
        }
        """
        ldb, target = session(source, filename="pair.c")
        ldb.break_at_line("pair.c", 6)
        ldb.run_to_stop()
        assert ldb.evaluate("g.first") == 11
        # the second expression reuses the saved struct definition
        assert ldb.evaluate("g.second") == 22

    def test_pointer_dereference(self):
        source = """
        int value = 55;
        int *ptr = &value;
        int main(void) { return *ptr; /* line 4 */ }
        """
        ldb, target = session(source, filename="ptr.c")
        ldb.break_at_line("ptr.c", 4)
        ldb.run_to_stop()
        assert ldb.evaluate("*ptr") == 55
        assert ldb.evaluate("ptr == &value") == 1


def converse(*lines):
    """Give a server the lines one at a time: its answer to each, as
    ``(verb, text)`` with the verb ``error`` or ``result``, or None for a
    line it does not answer."""
    server = ExpressionServer()
    answers = []
    for line in lines:
        text = server.answer(line, _no_lookups)
        body, _, verb = text.rpartition("ExpressionServer.")
        assert verb in ("result\n", "error\n", "") \
            and "ExpressionServer." not in body, text
        answers.append((verb.strip(), body.strip()) if text else None)
    return answers


def _no_lookups(line):
    raise AssertionError("unexpected lookup %r" % line)


class TestServerLoop:
    """Every EXPR gets exactly one answer, whatever fails on its line,
    so the conversation stays in lockstep."""

    def test_a_non_string_expression_is_answered(self):
        answers = converse('EXPR {"text": 5}', 'EXPR {"text": "1+2"}')
        assert [verb for verb, _ in answers] == ["error", "result"]
        assert answers[0][1].startswith("(TypeError: ")
        assert run_ps(answers[1][1]) == 3

    @pytest.mark.parametrize("line,name", [
        ("EXPR {not json", "JSONDecodeError"),
        ('EXPR {"txt": "1"}', "KeyError"),
        ("EXPR", "JSONDecodeError"),
    ])
    def test_a_malformed_expr_payload_is_answered(self, line, name):
        answers = converse(line, 'EXPR {"text": "2*3"}')
        assert [verb for verb, _ in answers] == ["error", "result"]
        assert answers[0][1].startswith("(%s: " % name)
        assert run_ps(answers[1][1]) == 6

    def test_a_malformed_reset_is_answered_by_the_next_expr(self):
        # RESET itself has no answer: the next EXPR carries its error
        # until a good RESET replaces it; a SYM or NOSYM outside a
        # lookup gets no answer either
        answers = converse("RESET {bad", 'EXPR {"text": "1"}',
                           'EXPR {"text": "1"}', 'RESET {"arch": "rvax"}',
                           "NOSYM n", 'EXPR {"text": "7"}')
        assert [answer and answer[0] for answer in answers] == [
            None, "error", "error", None, None, "result"]
        assert all(text.startswith("(JSONDecodeError: ")
                   for _, text in answers[1:3])
        assert run_ps(answers[5][1]) == 7

    def test_a_deeply_nested_expression_is_answered(self):
        text = "(" * 3000 + "1" + ")" * 3000
        answers = converse('EXPR {"text": "%s"}' % text, 'EXPR {"text": "4"}')
        assert answers[0] == ("error", "(expression nested too deeply)")
        assert run_ps(answers[1][1]) == 4

    def test_what_ask_raises_reaches_the_caller(self):
        """A deadline that expires while the debugger answers a lookup
        is the caller's to handle, not an error line of the server's."""
        def late(line):
            raise DeadlineExceeded("deadline passed during %r" % line)

        server = ExpressionServer()
        with pytest.raises(DeadlineExceeded):
            server.answer('EXPR {"text": "n + 1"}', late)
        assert server.answer('EXPR {"text": "5"}', _no_lookups) \
            == "5\nExpressionServer.result\n"


    @pytest.mark.parametrize("frames_left,asked", [(150, False),
                                                   (400, True)])
    def test_a_lookup_needs_stack_to_spare(self, frames_left, asked):
        """The debugger answers a lookup on the server's stack, so the
        server asks only with room to spare; nearer the recursion limit
        the expression is answered as too deep, before the debugger's
        code could run out of stack part way through."""
        lines = []

        def ask(line):
            lines.append(line)
            return "NOSYM n"

        server = ExpressionServer()
        text = _with_frames_left(frames_left, lambda: server.answer(
            'EXPR {"text": "n"}', ask))
        assert lines == (["/n ExpressionServer.lookup\n"] if asked else [])
        assert text == "(%s) ExpressionServer.error\n" % (
            "undeclared identifier 'n'" if asked
            else "expression nested too deeply")


def _with_frames_left(frames, call):
    """``call()`` run ``frames`` frames short of the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(levels):
        return call() if levels <= 0 else down(levels - 1)

    return down(sys.getrecursionlimit() - frames - depth)


class TestLockstepAfterAFailure:
    """An exception out of an evaluation, such as a deadline, must leave
    the conversation in step: the next expressions answer right."""

    def stopped(self):
        exe = compile_and_link({"fib.c": FIB}, "rmips", debug=True)
        ldb = Ldb(stdout=io.StringIO())
        # uncached, so interpreting the program reaches the transport
        target = ldb.load_program(exe, cache=False)
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        return ldb, target

    def test_a_deadline_while_interpreting_the_program(self, monkeypatch):
        ldb, target = self.stopped()
        transact, calls, late_at = target.transport.transact, [], None

        def counting(msg, *args, **kwargs):
            calls.append(msg)
            if len(calls) == late_at:
                raise DeadlineExceeded("deadline passed")
            return transact(msg, *args, **kwargs)

        # the first evaluation forces n's and j's entries
        assert ldb.evaluate("n * 100 + j") == 1000
        monkeypatch.setattr(target.transport, "transact", counting)
        assert ldb.evaluate("n * 100 + j") == 1000
        # the last request fetches j, before the program's ``add``
        late_at, calls[:] = len(calls), []
        with pytest.raises(DeadlineExceeded):
            ldb.evaluate("n * 100 + j")
        assert len(calls) == late_at
        assert ldb.evaluate("n") == 10
        assert ldb.evaluate("j") == 0

    def test_a_deadline_while_answering_a_lookup(self, monkeypatch):
        ldb, _target = self.stopped()
        client = ldb.expression_client()

        def late(*args):
            monkeypatch.undo()
            raise DeadlineExceeded("deadline passed")

        monkeypatch.setattr(client, "_symbol_info", late)
        with pytest.raises(DeadlineExceeded):
            ldb.evaluate("n * 100 + j")
        assert ldb.evaluate("n") == 10
        assert ldb.evaluate("j") == 0


def test_evaluating_starts_no_thread_and_opens_no_socket(monkeypatch):
    """The server answers on the debugger's thread: the first
    evaluation on a fresh debugger starts no thread and makes no
    socket, so closing the debugger has no conversation to end."""
    ldb, _target = session()
    ldb.break_at_stop("fib", 9)
    ldb.run_to_stop()
    started, made = [], []
    start, init = threading.Thread.start, socket.socket.__init__

    def counting_start(thread):
        started.append(thread)
        start(thread)

    def counting_init(sock, *args, **kwargs):
        made.append(sock)
        init(sock, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(socket.socket, "__init__", counting_init)
    assert ldb.evaluate("a[j] + n") == 11
    assert (len(started), len(made)) == (0, 0)


def test_ldb_close_closes_every_transport():
    from repro.ldb.debugger import load_over_wire
    ldb, local = session()
    wired = load_over_wire(ldb, local.process.exe)
    assert ldb.evaluate("1 + 2", target=wired) == 3
    ldb.close()
    assert local.transport.closed
    assert wired.session.channel is None
    wired.runner.join(5.0)  # the nub sees its debugger gone and ends
    assert not wired.runner.thread.is_alive()
    ldb.close()  # a second call does nothing
