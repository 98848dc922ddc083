"""PostScript symbol-table emission tests (paper Sec. 2)."""

import io

import pytest

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.cc.pssym import decl_pattern, ps_string, struct_cdef
from repro.cc.ctypes_ import ArrayType, PointerType, StructType, TypeSystem
from repro.postscript import Location, PSDict, new_interp

FIB = """void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    {   int i;
        for (i=2; i<n; i++)
            a[i] = a[i-1] + a[i-2];
    }
    {   int j;
        for (j=0; j<n; j++)
            printf("%d ", a[j]);
    }
    printf("\\n");
}
int main(void) { fib(10); return 0; }
"""


_INTERPS = {}


def load_table(source, arch="rmips", defer=True):
    exe = compile_and_link({"fib.c": source}, arch, debug=True)
    interp = new_interp(stdout=io.StringIO())
    interp.run(loader_table_ps(exe))
    table = interp.pop()
    _INTERPS[id(table)] = interp
    return table, exe


def force_loci(table, proc_entry):
    """Force a deferred loci array (what ldb's symtab layer does)."""
    from repro.postscript import PSArray, String, is_executable
    value = proc_entry["loci"]
    if isinstance(value, (PSArray, String)) and is_executable(value):
        interp = _INTERPS[id(table)]
        interp.push_dict(interp.systemdict["ArchDicts"]
                         [table["symtab"]["architecture"].text])
        interp.push_dict(table["names"])
        try:
            interp.call(value)
            value = interp.pop()
        finally:
            interp.pop_dict_stack()
            interp.pop_dict_stack()
        proc_entry["loci"] = value
    return value


class TestDeclPatterns:
    def test_scalars(self):
        t = TypeSystem()
        assert decl_pattern(t.int) == "int %s"
        assert decl_pattern(t.uchar) == "unsigned char %s"
        assert decl_pattern(t.double) == "double %s"

    def test_array(self):
        t = TypeSystem()
        assert decl_pattern(ArrayType(t.int, 20)) == "int %s[20]"

    def test_pointer(self):
        t = TypeSystem()
        assert decl_pattern(PointerType(t.char)) == "char *%s"

    def test_pointer_to_array_parenthesized(self):
        t = TypeSystem()
        assert decl_pattern(PointerType(ArrayType(t.int, 4))) == "int (*%s)[4]"

    def test_struct(self):
        s = StructType("point")
        t = TypeSystem()
        s.define([("x", t.int), ("y", t.int)])
        assert decl_pattern(s) == "struct point %s"
        assert struct_cdef(s) == "struct point { int x; int y; }"

    def test_ps_string_escapes(self):
        assert ps_string("a(b)c\\") == r"(a\(b\)c\\)"


class TestEntryShape:
    """The entries must look like the paper's S10/S8 examples."""

    def test_entry_fields(self):
        table, _exe = load_table(FIB)
        fib = table["symtab"]["externs"]["fib"]
        for key in ("name", "type", "sourcefile", "sourcey", "sourcex",
                    "kind", "where", "uplink", "formals", "statics", "loci"):
            assert key in fib, key

    def test_variable_where_is_deferred_string(self):
        """The deferral technique: where procedures arrive as strings.

        On rsparc parameters live in the frame, so their where value is
        a deferred Param computation (on rmips `n` gets promoted to a
        register, whose location is computed eagerly at load, like the
        paper's S10)."""
        from repro.postscript import Location, String
        table, _exe = load_table(FIB, arch="rsparc")
        fib = table["symtab"]["externs"]["fib"]
        n_entry = force_loci(table, fib)[0]["syms"]
        assert n_entry["name"].text == "n"
        where = n_entry["where"]
        assert isinstance(where, String) and not where.literal
        assert "Param" in where.text
        # and the rmips register case: evaluated when the table is read
        table2, _exe2 = load_table(FIB, arch="rmips")
        fib2 = table2["symtab"]["externs"]["fib"]
        n2 = force_loci(table2, fib2)[0]["syms"]
        assert isinstance(n2["where"], Location)
        assert n2["where"].space == "r"

    def test_static_uses_lazydata_anchor(self):
        table, _exe = load_table(FIB)
        fib = table["symtab"]["externs"]["fib"]
        a_entry = fib["statics"]["a"]
        assert "LazyData" in a_entry["where"].text
        assert "_stanchor__" in a_entry["where"].text

    def test_type_dictionary_contents(self):
        table, _exe = load_table(FIB)
        fib = table["symtab"]["externs"]["fib"]
        a_type = fib["statics"]["a"]["type"]
        assert a_type["decl"].text == "int %s[20]"
        assert a_type["elemsize"] == 4
        assert a_type["arraysize"] == 80
        assert a_type["elemtype"]["decl"].text == "int %s"

    def test_loci_count_matches_fig1(self):
        table, _exe = load_table(FIB)
        fib = table["symtab"]["externs"]["fib"]
        assert len(force_loci(table, fib)) == 14

    def test_architecture_recorded(self):
        for arch in ("rmips", "rvax"):
            table, _exe = load_table(FIB, arch)
            assert table["symtab"]["architecture"].text == arch

    def test_m68k_register_save_mask(self):
        """The compiler adds register-save masks for the 68020 (Sec. 5)."""
        src = """
        int busy(int n) {
            int a = n, b = n * 2;
            printf("%d", a);
            return a + b;
        }
        int main(void) { return busy(3); }
        """
        table, _exe = load_table(src, "rm68k")
        busy = table["symtab"]["externs"]["busy"]
        assert "savemask" in busy
        assert busy["savemask"] != 0

    def test_sourcemap_lists_procs_per_file(self):
        table, _exe = load_table(FIB)
        entries = table["symtab"]["sourcemap"]["fib.c"]
        names = [e["name"].text for e in entries]
        assert names == ["fib", "main"]

    def test_anchors_listed(self):
        table, _exe = load_table(FIB)
        anchors = table["symtab"]["anchors"]
        assert len(anchors) == 1
        name = anchors[0].text
        assert name.startswith("_stanchor__")
        assert name in table["anchormap"]


class TestDeferModes:
    def test_eager_mode_builds_procedures(self):
        from repro.cc import pssym
        from repro.cc.driver import compile_unit
        from repro.postscript import PSArray

        compiled = compile_unit(FIB, "fib.c", "rmips", debug=True)
        from repro.cc.gen import get_backend
        # re-emit eagerly
        backend = get_backend("rmips")
        backend.compile_unit(compiled.unit_ir, debug=True)
        eager = pssym.emit_unit(backend.unit, compiled.unit_ir,
                                compiled.unit_info, backend,
                                None, defer=False)
        deferred = compiled.unit.pssym
        assert "{ " in eager
        assert ") cvx" in deferred
        assert len(eager) >= len(deferred) * 0.5  # same order of size

    def test_both_modes_interpret_equally(self):
        import io as _io
        from repro.cc import pssym
        from repro.cc.driver import compile_unit
        from repro.postscript import new_interp as mk

        compiled = compile_unit(FIB, "fib.c", "rmips", debug=True)
        from repro.cc.gen import get_backend
        backend = get_backend("rmips")
        backend.compile_unit(compiled.unit_ir, debug=True)
        for defer in (True, False):
            text = pssym.emit_unit(backend.unit, compiled.unit_ir,
                                   compiled.unit_info, backend, None,
                                   defer=defer)
            interp = mk(stdout=_io.StringIO())
            interp.run("BeginLoaderTable (rmips) UseArchitecture")
            interp.run(text)
            interp.run("(rmips) << >> [ ] << >> EndLoaderTable EndArchitecture")
            table = interp.pop()
            assert len(table["symtab"]["procs"]) == 2
