"""A process reads each loader table once and copies it per debugger.

``read_table`` on a debugger's own interpreter is the reference, as
``read_initial`` is for the initial PostScript: a debugger served a
copy must answer like one that interpreted the text itself, and no
copy may share a dictionary, array, ``items`` list or location with
the template or with another copy.
"""

import io
import itertools
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.ldb import Ldb, debugger
from repro.ldb.api import ApiError, DebugAPI
from repro.ldb.debugger import read_table
from repro.ldb.target import TargetError
from repro.postscript import (
    Location,
    PSArray,
    PSDict,
    PSError,
    copy_table,
    new_interp,
)

from ..postscript.test_initial import Correspondence

ISAS = ("rmips", "rmipsel", "rsparc", "rm68k", "rvax")

#: a divide by zero under a recursion, with a struct, an enum (integer
#: keys in its type's dictionary) and locals
CRASH = """struct pair { int a; int b; };
enum mood { CALM, ANGRY = 7 };
int g = 5;
struct pair p;
enum mood m;
int depth(int n, int zero)
{
    int local = n * 3;
    if (n == 0) return local / zero;
    return depth(n - 1, zero) + local;
}
int main(void)
{
    p.a = 2; p.b = g;
    m = ANGRY;
    return depth(2, g - g);
}
"""

#: compiled on its own, so its symbol ids (/S7 ...) restart and collide
#: with CRASH's in the same architecture (two tables' own /names)
OTHER = """int h = 9;
int count(int k, int zero)
{
    int twice = k + k;
    return twice / zero;
}
int main(void) { h = count(h, h - 9); return h; }
"""

QUESTIONS = ([("backtrace",), ("fault",)]
             + [("print", name) for name in
                ("g", "p", "m", "local", "n", "zero", "h", "twice", "k")]
             + [("stops", line) for line in range(1, 18)])

_serial = itertools.count()


def unread(text: str) -> str:
    """``text`` as a loader table this process has never read."""
    return text + "%% unread %d\n" % next(_serial)


_exes = {}


def exe_of(arch: str, source: str):
    key = (arch, source)
    if key not in _exes:
        _exes[key] = compile_and_link({"crash.c": source}, arch, debug=True)
    return _exes[key]


def reading_fresh(ldb: Ldb) -> Ldb:
    """``ldb``, made to interpret every table itself."""
    ldb.read_loader_table = lambda text: read_table(ldb.interp, text)
    return ldb


def crashed(ldb: Ldb, exe, text: str):
    target = ldb.load_program(exe, table_ps=text)
    assert ldb.run_to_stop(target=target) == "stopped" and target.signo
    return target


def answer(ldb: Ldb, question):
    api = DebugAPI(ldb)
    try:
        if question[0] == "stops":
            symtab = ldb.current.symtab
            return [(entry["name"].text, stop["sourcey"], stop["sourcex"],
                     symtab.stop_address(stop))
                    for entry, stop in symtab.stops_for_line("crash.c",
                                                             question[1])]
        if question[0] == "print":
            return api.execute("print", {"expr": question[1]})
        return api.execute(question[0])
    except ApiError as err:
        return ("error", err.code, str(err))


def reads(ldb: Ldb):
    metrics = ldb.obs.metrics
    return (metrics.get("ldb.table_reads.cached"),
            metrics.get("ldb.table_reads.fresh"))


class TableCorrespondence(Correspondence):
    """Holds table ``b`` to be a structural copy of table ``a``."""

    def __init__(self, a: PSDict, b: PSDict):
        self.a_ops = self.b_ops = {}
        self.forward = {}
        self.backward = {}
        self.same(a, b)


def mutable_ids(table: PSDict) -> set:
    found = set()
    todo = [table]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (PSDict, PSArray, Location)) \
                and id(obj) not in found:
            found.add(id(obj))
            if isinstance(obj, PSDict):
                todo.extend(obj.store.values())
            elif isinstance(obj, PSArray):
                found.add(id(obj.items))
                todo.extend(obj.items)
    return found


def template_of(text: str):
    return debugger._tables._templates[text]


class TestCopies:
    @pytest.mark.parametrize("arch", ISAS)
    def test_a_copy_equals_the_reference_read(self, arch):
        text = unread(loader_table_ps(exe_of(arch, CRASH)))
        copied = Ldb(stdout=io.StringIO()).read_loader_table(text)
        TableCorrespondence(read_table(new_interp(stdout=io.StringIO()),
                                       text), copied)
        enum = [t for t in copied["names"].store.values()
                if isinstance(t, PSDict) and "enumtags" in t]
        assert enum and enum[0]["enumtags"].get(7).text == "ANGRY"

    def test_copies_share_nothing_mutable(self):
        text = unread(loader_table_ps(exe_of("rmips", CRASH)))
        tables = [Ldb(stdout=io.StringIO()).read_loader_table(text)
                  for _ in range(3)]
        template = template_of(text)
        seen = mutable_ids(template)
        for table in tables:
            TableCorrespondence(template, table)
            ids = mutable_ids(table)
            assert not ids & seen
            seen |= ids


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(warm=st.lists(st.sampled_from(QUESTIONS), max_size=6),
       asked=st.lists(st.sampled_from(QUESTIONS), min_size=1, max_size=8),
       two=st.booleans())
@pytest.mark.parametrize("arch", ISAS)
def test_a_copy_answers_like_a_fresh_read(arch, warm, asked, two):
    """After another debugger has forced what ``warm`` asks in its own
    copy, a debugger served copies of CRASH's table (and, with ``two``,
    of OTHER's, whose symbol ids collide) answers ``asked`` as one that
    read both tables itself, and the templates are as they were built."""
    programs = [(exe_of(arch, CRASH), unread(loader_table_ps(
        exe_of(arch, CRASH))))]
    if two:
        programs.append((exe_of(arch, OTHER), unread(loader_table_ps(
            exe_of(arch, OTHER)))))
    warmer = Ldb(stdout=io.StringIO())
    built = []
    for exe, text in programs:
        crashed(warmer, exe, text)
        built.append(copy_table(template_of(text)))
        for question in warm:
            answer(warmer, question)

    served = Ldb(stdout=io.StringIO())
    fresh = reading_fresh(Ldb(stdout=io.StringIO()))
    for ldb in (served, fresh):
        for exe, text in programs:
            crashed(ldb, exe, text)
    assert reads(served) == (len(programs), 0)
    for target in list(served.targets):
        served.switch_target(target)
        fresh.switch_target(target)
        for question in asked:
            assert answer(served, question) == answer(fresh, question), \
                (target, question)
    for (_, text), snapshot in zip(programs, built):
        TableCorrespondence(snapshot, template_of(text))


class TestNeverCached:
    def test_a_malformed_table_raises_as_a_fresh_read_and_is_not_cached(self):
        # in this order, each text would read differently after the one
        # before it, had that one left anything behind in the reader
        malformed = [
            ("BeginLoaderTable (rmips) UseArchitecture /Stale 1 def",
             PSError),
            ("Stale", PSError),
            ("(rmips) UseArchitecture 1 AddProc", PSError),
            ("BeginLoaderTable (nosuch) UseArchitecture", PSError),
            ("1 2 3", TargetError),
            ("", PSError),
        ]
        Ldb(stdout=io.StringIO()).read_loader_table(
            unread(loader_table_ps(exe_of("rmips", CRASH))))
        for text, error in malformed:
            text = unread(text)
            with pytest.raises(error) as fresh:
                read_table(new_interp(stdout=io.StringIO()), text)
            for _ in range(2):
                with pytest.raises(error) as served:
                    Ldb(stdout=io.StringIO()).read_loader_table(text)
                assert str(served.value) == str(fresh.value), text
                assert text not in debugger._tables._templates

    @pytest.mark.parametrize("held", [
        "/Held PC def",                      # an arch dictionary's location
        "/Held /Local load def",             # ... its procedure
        "/Held /Local load cvx def",         # ... that procedure's items
        "/Held userdict def",
        "/Held systemdict def",
        "/Held ArchDicts /rmips get def",
        "/Held << ArchDicts 1 >> def",       # keyed by an initial dict
        "/Key [1] def /Held << Key 1 >> def",  # keyed by the table's array
        "/Held mark def",
        pytest.param("/Held %s%s def" % ("[" * 1200, "]" * 1200),
                     id="/Held [[...]] def, nested too deep to copy"),
    ])
    def test_a_table_a_copy_cannot_hold_is_read_fresh(self, held):
        text = unread(loader_table_ps(exe_of("rmips", CRASH)).replace(
            "(rmips) UseArchitecture\n",
            "(rmips) UseArchitecture\n%s\n" % held, 1))
        assert held in text
        ldbs = [Ldb(stdout=io.StringIO()) for _ in range(2)]
        tables = [ldb.read_loader_table(text) for ldb in ldbs
                  for _ in range(2)]
        never_cached = template_of(text) is None
        assert never_cached
        assert [reads(ldb) for ldb in ldbs] == [(0, 2), (0, 2)]
        held_ones = [table["names"]["Held"] for table in tables]
        assert id(held_ones[0]) != id(held_ones[2])
        if held == "/Held PC def":
            for ldb, value in zip(ldbs, held_ones[::2]):
                assert id(value) == id(ldb.interp.systemdict["ArchDicts"][
                    "rmips"]["PC"])


class TestReads:
    def test_a_second_debugger_counts_one_cached_read(self):
        text = unread(loader_table_ps(exe_of("rmips", CRASH)))
        first, second = Ldb(stdout=io.StringIO()), Ldb(stdout=io.StringIO())
        first.read_loader_table(text)
        second.read_loader_table(text)
        assert (reads(first), reads(second)) == ((0, 1), (1, 0))
        second.read_loader_table(text)
        assert reads(second) == (2, 0)

    def test_sixteen_threads_interpret_a_new_text_once(self):
        text = unread(loader_table_ps(exe_of("rmips", CRASH)))
        start = threading.Barrier(16)
        ldbs = [Ldb(stdout=io.StringIO()) for _ in range(16)]
        tables = [None] * 16

        def read(index):
            start.wait(10)
            tables[index] = ldbs[index].read_loader_table(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,), daemon=True)
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(reads(ldb) for ldb in ldbs) == [(0, 1)] + [(1, 0)] * 15
        reference = read_table(new_interp(stdout=io.StringIO()), text)
        seen = mutable_ids(template_of(text))
        for table in tables:
            TableCorrespondence(reference, table)
            ids = mutable_ids(table)
            assert not ids & seen
            seen |= ids

    def test_the_least_recently_read_text_goes_first(self, monkeypatch):
        monkeypatch.setattr(debugger, "_tables", debugger._LoaderTables())
        base = loader_table_ps(exe_of("rmips", CRASH))
        monkeypatch.setattr(debugger, "_TABLE_TEXT_BOUND",
                            3 * len(base) + 200)
        texts = [unread(base) for _ in range(4)]
        ldb = Ldb(stdout=io.StringIO())
        for text in texts[:3] + texts[:1] + texts[3:]:
            ldb.read_loader_table(text)
        assert list(debugger._tables._templates) == \
            [texts[2], texts[0], texts[3]]
        assert reads(ldb) == (1, 4)
        too_big = unread(base + "%" * (3 * len(base)))
        ldb.read_loader_table(too_big)
        assert too_big not in debugger._tables._templates
        assert reads(ldb) == (1, 5)
