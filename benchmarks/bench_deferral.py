"""E4 — the deferral technique (paper Sec. 5).

"We can defer not only the interpretation but also the lexical analysis
of PostScript code by quoting it with parentheses; the scanner reads the
resulting string quickly.  This deferral technique reduces by 40% the
time required to read a large symbol table."

We emit the same large symbol table in both modes (procedures as quoted
strings vs. inline ``{...}`` bodies) and time interpreting each, best of
nine reads in processor time.
"""

import io
import time

import pytest

from repro.cc import pssym
from repro.cc.ctypes_ import TypeSystem
from repro.cc.gen import get_backend
from repro.cc.irgen import IRGen
from repro.cc.parser import parse
from repro.cc.sema import Sema
from repro.postscript import new_interp

from .conftest import report
from .workloads import large_program


@pytest.fixture(scope="module")
def both_tables():
    source = large_program(functions=120)
    types = TypeSystem("rmips")
    ast = parse(source, "big.c", types)
    info = Sema(types, "big.c").analyze(ast)
    unit_ir = IRGen(types, info).generate(ast)
    backend = get_backend("rmips")
    unit = backend.compile_unit(unit_ir, debug=True)
    deferred = pssym.emit_unit(unit, unit_ir, info, backend, types, defer=True)
    eager = pssym.emit_unit(unit, unit_ir, info, backend, types, defer=False)
    return deferred, eager


def read_table(text):
    interp = new_interp(stdout=io.StringIO())
    interp.run("BeginLoaderTable (rmips) UseArchitecture")
    interp.run(text)
    interp.run("(rmips) << >> [ ] << >> EndLoaderTable EndArchitecture")
    return interp.pop()


def _time_both(deferred, eager, repeats=9):
    """The best processor time of reading each form over ``repeats``
    reads a form.  The forms alternate, so both see the same minutes of
    a shared host, and processor time leaves out the waits other
    processes cause: the gate below decides on these two numbers."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for index, text in enumerate((deferred, eager)):
            start = time.process_time()
            read_table(text)
            best[index] = min(best[index], time.process_time() - start)
    return best


def test_deferral_speeds_up_reading(benchmark, both_tables):
    deferred, eager = both_tables
    t_deferred, t_eager = _time_both(deferred, eager)
    benchmark.pedantic(read_table, args=(deferred,), rounds=3, iterations=1)
    saving = 100.0 * (t_eager - t_deferred) / t_eager

    report("", "E4. Deferred lexical analysis (paper Sec. 5: 40% less "
               "symbol-table read time)",
           "  eager {...} bodies : %.3f s processor time" % t_eager,
           "  deferred strings   : %.3f s   (%.0f%% less)"
           % (t_deferred, saving))

    # -- shape: a solid constant-factor win -----------------------------
    assert t_deferred < t_eager
    assert saving >= 10.0, saving


def test_deferred_tables_produce_identical_structure(both_tables):
    deferred, eager = both_tables
    t1 = read_table(deferred)
    t2 = read_table(eager)
    procs1 = [e["name"].text for e in t1["symtab"]["procs"]]
    procs2 = [e["name"].text for e in t2["symtab"]["procs"]]
    assert procs1 == procs2
    # both resolve a type's decl identically
    a1 = t1["symtab"]["externs"]["work000"]
    a2 = t2["symtab"]["externs"]["work000"]
    assert a1["type"]["decl"].text == a2["type"]["decl"].text
