#!/usr/bin/env python
"""PostScript symbol tables, up close (paper Sec. 2).

Compiles the paper's fib.c and shows the actual artifacts:

  * the generated PostScript symbol-table source (the S10/S8 entries);
  * the loader table built from nm output;
  * the uplink tree of Fig. 2, reconstructed by walking entries;
  * the stopping points of Fig. 1;
  * a printer procedure (ARRAY) interpreted against an abstract memory.

Run:  python examples/postscript_symtab.py
"""

import io

from repro.cc.driver import compile_and_link, loader_table_ps
from repro.machines import nm
from repro.postscript import new_interp

FIB_C = """void fib(int n)
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


def main():
    exe = compile_and_link({"fib.c": FIB_C}, "rmips", debug=True)
    pssym = exe.compiled_units[0].unit.pssym

    print("=== the generated PostScript symbol table (first entries) ===\n")
    for line in pssym.splitlines()[:8]:
        print("  " + (line if len(line) < 100 else line[:97] + "..."))

    print("\n=== nm output the driver transforms into the loader table ===\n")
    for line in nm(exe).splitlines()[:10]:
        print("  " + line)

    print("\n=== interpreting the loader table ===\n")
    interp = new_interp(stdout=io.StringIO())
    interp.run(loader_table_ps(exe))
    table = interp.pop()
    symtab = table["symtab"]
    print("  architecture: %s" % symtab["architecture"].text)
    print("  procedures:   %s" % ", ".join(
        e["name"].text for e in symtab["procs"]))
    print("  anchors:      %s" % ", ".join(
        a.text for a in symtab["anchors"]))

    print("\n=== the uplink tree of Fig. 2 ===\n")
    fib = symtab["externs"]["fib"]
    # loci arrive deferred (a quoted string, Sec. 5); force them the way
    # ldb's symbol-table layer does, with the machine-dependent names and
    # the table's own definitions in scope
    interp.push_dict(interp.systemdict["ArchDicts"]["rmips"])
    interp.push_dict(table["names"])
    interp.call(fib["loci"])
    loci = list(interp.pop())
    interp.pop_dict_stack()
    interp.pop_dict_stack()
    print("  fib has %d stopping points (Fig. 1 shows 14)" % len(loci))
    seen = {}
    for index, stop in enumerate(loci):
        entry = stop["syms"]
        chain = []
        while entry is not None:
            chain.append(entry["name"].text)
            entry = entry.get("uplink")
        print("  stop %2d at line %2d: visible %s"
              % (index, stop["sourcey"], " -> ".join(chain) or "(params only)"))

    print("\n=== a type dictionary and its printer procedure ===\n")
    a_entry = fib["statics"]["a"]
    a_type = a_entry["type"]
    print("  decl      : %s" % a_type["decl"].text.replace("%s", "a"))
    print("  elemsize  : %s   arraysize: %s"
          % (a_type["elemsize"], a_type["arraysize"]))
    print("  printer   : %r  (deferred: scanned as a string)"
          % a_type["printer"])
    print("  where     : %r  (LazyData: resolved via the anchor symbol)"
          % a_entry["where"])


if __name__ == "__main__":
    main()
