#!/usr/bin/env python
"""The expression server conversation (paper Sec. 3, Fig. 3).

Shows the machinery behind `print`: the expression travels as text to a
compiler front end; unknown identifiers come back as
``/name ExpressionServer.lookup`` callbacks; the server reconstructs
symbol and type data from C tokens; and the final answer arrives as a
*PostScript procedure* that ldb's embedded interpreter evaluates against
the frame's abstract memory.  Only text lines cross between the two,
though the server answers on the debugger's own thread.

Run:  python examples/expression_server.py
"""

from repro.cc.driver import compile_and_link
from repro.cc.lexer import tokenize
from repro.cc.parser import Parser
from repro.cc.sema import Sema
from repro.cc.ctypes_ import TypeSystem
from repro.ldb import Ldb
from repro.ldb.exprserver import PureLowering, rewrite_to_ps

PROGRAM = """
struct account { int balance; int overdraft; };

struct account acct;
int rate = 7;

int main(void) {
    acct.balance = 1000;
    acct.overdraft = -50;
    return acct.balance / rate;   /* line 10 */
}
"""


def show_rewriter(expression):
    """Compile an expression stand-alone and show the generated PS."""
    types = TypeSystem("rmips")
    parser = Parser(expression, "<demo>", types)
    ast = parser.expression()
    sema = Sema(types, "<demo>")
    typed = sema.expr(ast)
    ir_tree = PureLowering().lower(typed)
    ps = rewrite_to_ps(ir_tree)
    print("  C expression : %s" % expression)
    print("  IR tree      : %r" % ir_tree)
    print("  PostScript   : %s" % ps)
    print()


def main():
    print("=== the IR-to-PostScript rewriter (constants only) ===\n")
    for expr in ("2 + 3 * 4", "(10 > 3) && (2 < 1)", "1.5 * 4.0",
                 "-7 / 2", "(char) 300"):
        show_rewriter(expr)

    print("=== a live conversation against a stopped target ===\n")
    exe = compile_and_link({"acct.c": PROGRAM}, "rmips", debug=True)
    ldb = Ldb()
    target = ldb.load_program(exe)
    ldb.break_at_line("acct.c", 10)
    ldb.run_to_stop()

    for expression in (
        "acct.balance",
        "acct.balance + acct.overdraft",
        "acct.balance / rate",
        "acct.balance > 500 ? 1 : 0",
        "acct.overdraft = -100",
        "acct.overdraft",
    ):
        value = ldb.evaluate(expression)
        print("(ldb) print %-32s => %s" % (expression, value))

    print("\nNote: the server reconstructed `struct account` from C tokens")
    print("sent as text; the type persists between expressions.")
    print("Procedure calls into the target are not yet supported, exactly")
    print("as the paper reports (Sec. 7.1):")
    try:
        ldb.evaluate("main()")
    except Exception as err:
        print("(ldb) print main()  => error: %s" % err)


if __name__ == "__main__":
    main()
