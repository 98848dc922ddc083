"""Symbol-table machinery tests: forcing, lookup maps, memoization."""

import pytest

from repro.postscript import Location, Operator, PSArray, PSError, String

from .helpers import FIB, session


class TestProcedureMapping:
    def test_pc_to_procedure_entry(self):
        ldb, target = session()
        ldb.break_at_function("fib")
        ldb.run_to_stop()
        pc = target.stop_pc()
        entry = target.symtab.proc_entry_for_pc(pc)
        assert entry["name"].text == "fib"

    def test_pc_in_middle_of_procedure(self):
        ldb, target = session()
        ldb.break_at_stop("fib", 6)
        ldb.run_to_stop()
        entry = target.symtab.proc_entry_for_pc(target.stop_pc())
        assert entry["name"].text == "fib"

    def test_externs_lookup(self):
        ldb, target = session()
        assert target.symtab.extern_entry("main") is not None
        assert target.symtab.extern_entry("nothere") is None

    @staticmethod
    def failing_where(target, failures):
        """Make the first procedure's deferred where raise ``failures``
        times before it forces; every procedure's name, mapped to its pc."""
        symtab = target.symtab
        pcs = {}
        for entry in symtab.procs():
            hit = target.linker.proc_containing(
                target.linker.global_address("_" + entry["name"].text))
            pcs[entry["name"].text] = hit[0]
        first = symtab.procs()[0]
        real = first["where"]
        calls = []

        def flaky(interp):
            calls.append(1)
            if len(calls) <= failures:
                raise PSError("undefined", "where fails")
            interp.call(real)

        first["where"] = PSArray([Operator("flaky", flaky)], literal=False)
        return pcs

    def test_a_where_that_fails_once_leaves_no_procedure_unmapped(self):
        ldb, target = session()
        pcs = self.failing_where(target, failures=1)
        with pytest.raises(PSError, match="where fails"):
            target.symtab.proc_entry_for_pc(pcs["main"])
        for name, pc in pcs.items():
            assert target.symtab.proc_entry_for_pc(pc)["name"].text == name

    def test_a_where_that_always_fails_fails_every_lookup(self):
        ldb, target = session()
        pcs = self.failing_where(target, failures=10 ** 6)
        for _ in range(3):
            for pc in pcs.values():
                with pytest.raises(PSError, match="where fails"):
                    target.symtab.proc_entry_for_pc(pc)


class TestForcing:
    def test_where_forced_once(self):
        """Anchor fetches happen at most once per entry (Sec. 7)."""
        ldb, target = session()
        ldb.break_at_function("fib")
        ldb.run_to_stop()
        frame = target.top_frame()
        entry = frame.resolve("a")          # the static array
        assert isinstance(entry["where"], String)   # still deferred
        before = target.stats.snapshot()
        loc1 = target.location_of(entry, frame)
        mid = target.stats.snapshot()
        loc2 = target.location_of(entry, frame)
        assert isinstance(entry["where"], Location)  # memoized
        assert loc1 == loc2
        # the first force fetched the anchor (served by the cache or the
        # wire, depending on what is warm), the second did not
        first = target.stats.diff(before)
        assert first.get("cache.fetch", 0) + first.get("wire.fetch", 0) > 0
        second = target.stats.diff(mid)
        assert second.get("cache.fetch", 0) + second.get("wire.fetch", 0) == 0

    def test_frame_relative_where_not_memoized(self):
        """Local locations depend on the frame and must be recomputed."""
        source = """
        int force_mem(int *p) { return *p; }
        int outer(int depth) {
            int mine = depth;
            if (depth == 0) return force_mem(&mine);    /* line 5: break */
            return outer(depth - 1) + mine;
        }
        int main(void) { return outer(2); }
        """
        ldb, target = session(source, filename="o.c")
        ldb.break_at_line("o.c", 5)
        ldb.run_to_stop()
        frames = target.frames()
        entry0 = frames[0].resolve("mine")
        loc0 = target.location_of(entry0, frames[0])
        loc1 = target.location_of(entry0, frames[1])
        assert loc0 != loc1          # different frames, different slots
        assert not isinstance(entry0["where"], Location)  # not memoized

    def test_stop_addresses_forced_lazily(self):
        ldb, target = session()
        entry = target.symtab.extern_entry("fib")
        stop = target.symtab.loci(entry)[3]
        address = target.symtab.stop_address(stop)
        assert isinstance(address, int)
        # forced in place
        assert target.symtab.stop_address(stop) == address


class TestSourceMapping:
    def test_stops_for_line(self):
        ldb, target = session()
        hits = target.symtab.stops_for_line("fib.c", 7)
        assert len(hits) >= 2   # init, cond, incr share the for line

    def test_multiple_stops_on_one_line(self):
        """One source line can hold several stopping points (Sec. 2)."""
        source = "int main(void) { int i; i = 1; i = 2; i = 3; return i; }"
        ldb, target = session(source, filename="one.c")
        hits = target.symtab.stops_for_line("one.c", 1)
        assert len(hits) >= 5

    def test_unknown_file_empty(self):
        ldb, target = session()
        assert target.symtab.stops_for_line("other.c", 3) == []

    def test_decl_of(self):
        ldb, target = session()
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        frame = target.top_frame()
        assert target.symtab.decl_of(frame.resolve("a")) == "int a[20]"
        assert target.symtab.decl_of(frame.resolve("j")) == "int j"


class TestValuePrinting:
    def test_int_value(self):
        ldb, target = session()
        ldb.break_at_function("fib")
        ldb.run_to_stop()
        assert ldb.print_variable("n").strip() == "10"

    def test_array_value_uses_printer_procedure(self):
        ldb, target = session()
        ldb.break_at_stop("fib", 9)
        ldb.run_to_stop()
        text = ldb.print_variable("a").strip()
        assert text.startswith("{1, 1, 2, 3, 5")
        assert text.endswith("...}")  # 20 elements exceed ArrayLimit

    def test_struct_value(self):
        source = """
        struct point { int x; int y; };
        int main(void) {
            struct point p;
            p.x = 3; p.y = 4;
            return p.x;     /* line 6 */
        }
        """
        ldb, target = session(source, filename="p.c")
        ldb.break_at_line("p.c", 6)
        ldb.run_to_stop()
        assert ldb.print_variable("p").strip() == "{x = 3, y = 4}"

    def test_char_pointer_prints_string(self):
        source = """
        char *msg = "hello world";
        int main(void) { return msg[0]; }
        """
        ldb, target = session(source, filename="s.c")
        ldb.break_at_line("s.c", 3)
        ldb.run_to_stop()
        assert ldb.print_variable("msg").strip() == '"hello world"'

    def test_function_pointer_prints_name(self):
        """Printing a function pointer needs the loader table (Sec. 7)."""
        source = """
        int helper(int x) { return x; }
        int (*fp)(int) = helper;
        int main(void) { return fp(1); }
        """
        ldb, target = session(source, filename="f.c")
        ldb.break_at_line("f.c", 4)
        ldb.run_to_stop()
        assert ldb.print_variable("fp").strip() == "helper"

    def test_enum_prints_tag(self):
        source = """
        enum color { RED, GREEN, BLUE };
        enum color c = GREEN;
        int main(void) { return c; }
        """
        ldb, target = session(source, filename="e.c")
        ldb.break_at_line("e.c", 4)
        ldb.run_to_stop()
        assert ldb.print_variable("c").strip() == "GREEN"

    def test_double_value(self):
        source = """
        double d = 6.25;
        int main(void) { return (int) d; }
        """
        ldb, target = session(source, filename="d.c")
        ldb.break_at_line("d.c", 3)
        ldb.run_to_stop()
        assert ldb.print_variable("d").strip() == "6.25"
