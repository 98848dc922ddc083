"""T2 — the paper's Sec. 7 startup-phase timing table.

    Modula-3 initialization                      1.9 sec
    Read initial PostScript                      1.6
    Read symbol table for hello.c (1 line)       2.2
    Read symbol table for lcc (13,000 lines)     5.5
    Connect to hello.c (one machine)             1.8
    Connect to lcc (one machine)                 5.1
    Connect to lcc (two MIPS machines)           6.2
    Connect to lcc (host MIPS, target SPARC)     5.0
    dbx: start and read a.out for lcc            1.5
    gdb: start and read a.out for lcc            1.1

Phase mapping: "Modula-3 initialization" -> constructing the bare
interpreter; "read initial PostScript" -> prelude + symload + arch
dictionaries, which a process reads once; each debugger after that
copies what the read made (its own row); symbol-table reading ->
interpreting the loader table in a new debugger;
connecting -> starting the target under its nub and taking the entry
stop.  The dbx/gdb baseline is the binary-stabs reader.

A process also interprets each loader-table text once and copies the
table it built for every later debugger.  So that the paper's rows
time the read, each timed text is made new with a trailing comment
line; two extra rows time a debugger that reads, or connects to, the
large program's table again and gets the copy.

Shape expectations: reading the large program's PostScript table costs
several times the one-liner's; cross-architecture connection costs about
the same as same-architecture (the paper's point); and the stabs
baseline is several times faster than reading PostScript tables —
retargetability is paid for in startup time.
"""

import io
import itertools
import time

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.cc.stabs import N_SLINE
from repro.ldb import Ldb
from repro.postscript import Interp, new_interp, read_initial

from .conftest import report
from .workloads import hello_program, large_program


def best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def read_stabs_baseline(blob):
    """The dbx/gdb analog: parse binary stabs into symbol records."""
    import struct
    count, str_size = struct.unpack("<II", blob[:8])
    records = []
    offset = 8
    strtab_at = 8 + 12 * count
    strtab = blob[strtab_at:]
    for _ in range(count):
        strx, ntype, _other, desc, value = struct.unpack(
            "<IBBhI", blob[offset : offset + 12])
        offset += 12
        end = strtab.index(b"\0", strx)
        records.append((strtab[strx:end].decode("latin-1"), ntype, desc, value))
    return records


@pytest.fixture(scope="module")
def programs():
    hello = compile_and_link({"hello.c": hello_program()}, "rmips", debug=True)
    big = compile_and_link({"big.c": large_program(functions=120)}, "rmips",
                           debug=True)
    big_sparc = compile_and_link({"big.c": large_program(functions=120)},
                                 "rsparc", debug=True)
    return hello, big, big_sparc


def test_startup_phase_table(benchmark, programs):
    hello, big, big_sparc = programs
    rows = []

    t_init = best_of(lambda: Interp(stdout=io.StringIO()))
    rows.append(("Interpreter initialization", t_init))
    t_read = best_of(lambda: read_initial(Interp(stdout=io.StringIO())))
    rows.append(("Read initial PostScript", max(t_read - t_init, 0.0)))
    t_copy = best_of(lambda: new_interp(stdout=io.StringIO()))
    rows.append(("Copy initial PostScript (per debugger)",
                 max(t_copy - t_init, 0.0)))

    serial = itertools.count()

    def unread(ps_source):
        """``ps_source`` as a text this process has never read."""
        return ps_source + "%% unread %d\n" % next(serial)

    hello_ps = loader_table_ps(hello)
    big_ps = loader_table_ps(big)
    big_sparc_ps = loader_table_ps(big_sparc)

    def read_table(ps_source):
        ldb = Ldb(stdout=io.StringIO())
        ldb.read_loader_table(ps_source)

    t_hello_read = best_of(lambda: read_table(unread(hello_ps)))
    rows.append(("Read symbol table for hello.c (1 line)", t_hello_read))
    t_big_read = best_of(lambda: read_table(unread(big_ps)))
    rows.append(("Read symbol table for big.c (%d lines)"
                 % len(large_program(120).splitlines()), t_big_read))
    read_table(big_ps)
    t_big_reread = best_of(lambda: read_table(big_ps))
    rows.append(("Read symbol table for big.c again (copy)", t_big_reread))

    def connect(exe, ps_source):
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exe, table_ps=ps_source)
        target.kill()

    t_hello_connect = best_of(lambda: connect(hello, unread(hello_ps)))
    rows.append(("Connect to hello.c (one machine)", t_hello_connect))
    t_big_connect = best_of(lambda: connect(big, unread(big_ps)))
    rows.append(("Connect to big.c (one machine)", t_big_connect))
    read_table(big_ps)
    t_big_reconnect = best_of(lambda: connect(big, big_ps))
    rows.append(("Connect to big.c again (copy)", t_big_reconnect))

    def connect_two():
        ldb = Ldb(stdout=io.StringIO())
        t1 = ldb.load_program(big, table_ps=unread(big_ps))
        t2 = ldb.load_program(big, table_ps=unread(big_ps))
        t1.kill()
        t2.kill()

    t_two = best_of(connect_two, repeats=2)
    rows.append(("Connect to big.c (two rmips targets)", t_two))

    def connect_cross():
        ldb = Ldb(stdout=io.StringIO())
        t1 = ldb.load_program(big_sparc, table_ps=unread(big_sparc_ps))
        t1.kill()

    t_cross = best_of(connect_cross)
    rows.append(("Connect to big.c (target rsparc)", t_cross))

    stabs_blob = big.compiled_units[0].unit.stabs
    t_stabs = best_of(lambda: read_stabs_baseline(stabs_blob))
    rows.append(("stabs baseline: read symbols for big.c", t_stabs))

    benchmark.pedantic(lambda: read_table(unread(big_ps)), rounds=2,
                       iterations=1)

    report("", "T2. Startup phases (paper Sec. 7 table; shape, not 1992 "
               "absolute times)")
    for label, seconds in rows:
        report("  %-46s %8.4f s" % (label, seconds))

    # -- shape assertions -------------------------------------------------
    # the large table costs several times the one-line program's
    assert t_big_read > 2.0 * t_hello_read
    # cross-architecture connection is not more expensive than
    # same-architecture (the paper: 5.0s SPARC vs 5.1s MIPS)
    assert t_cross < 2.0 * t_big_connect + 0.5
    # the machine-dependent (stabs) baseline reads symbols much faster
    # than interpreting PostScript — the cost of retargetability
    assert t_stabs < t_big_read / 3
    # two targets cost roughly twice one target
    assert t_two < 3.0 * t_big_connect + 0.5
